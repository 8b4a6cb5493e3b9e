"""Exact linear algebra over the rationals.

Vectors are tuples and matrices are tuples of row tuples, all with Fraction
entries; ``scalar`` and ``vec`` refuse floats and bools. Routines never
mutate their arguments and every result is deterministic and reproducible
bit-for-bit.

The elimination routines (``rref``, ``rank``, ``nullspace``, ``solve``,
``inverse``, ``in_span``, ``extend_independent``) take each row either as a
dense sequence or as a sparse dict ``{column: coefficient}``, and run one
kernel on sparse integer rows. Each row is scaled by the lcm of its own
denominators, one positive number per row, which changes neither the row
space nor which entries are zero. Elimination is fraction-free, one pass
over the rows in order: while a row starts at a column an earlier row has
as its pivot, it is cleared there by an integer combination with that row
and divided by the gcd of its entries; the column it then starts at is its
pivot. Gauss-Jordan then clears each pivot row at the later pivots. No row
is searched for or moved, and no output depends on this order: the reduced
echelon form is unique, so a pivot row divided by its pivot is exactly the
rational reduced row. Only the results are turned into Fractions, once, at
the end; ``rank``, ``in_span`` and ``extend_independent`` run the forward
pass alone and build none. Free variables are filled in column order.

``nullspace_ints``, ``solve_ints`` and ``inverse_ints`` hand the results of
``nullspace``, ``solve`` and ``inverse`` over as integers: one view
``(d, vectors)``, sparse int vectors that are the rational results times d,
d the lcm of their denominators (the form of the maps' stored states).
The public routines build their dense Fractions from these views, so a
caller that sums on integers never has its results turned into Fractions
and back. Integer rows skip the conversion to Fractions.

With ``ncols`` less than the row width (the augmented column of ``solve``),
pivots are taken only in the first ``ncols`` columns, and each row past the
rank is zero there.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


# Fraction(str)'s grammar on Python 3.10, less exponents: the part that every
# supported Python reads alike
_RATIONAL = re.compile(r"\s*([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|\.(\d*))?\s*")


def _ratio(text: str) -> tuple[int, int] | None:
    """(n, q), q > 0, not always in lowest terms: the exact rational n/q
    written as "p", "p/q" or a decimal such as "0.5", ".5" or "5.", where p
    and q are digit strings, with an optional sign and optional whitespace
    around the whole; None for any other text. The grammar is fixed here
    rather than taken from ``Fraction(str)``, whose grammar grew in later
    Pythons, so it is the same on every supported Python: underscores,
    whitespace around "/" and exponents are refused everywhere (Fraction
    would write out every digit of 1e100000000 and stall)."""
    num, slash, den = text.partition("/")
    if (num[1:] if num[:1] in ("+", "-") else num).isdecimal() and (den.isdecimal() or not slash):
        try:  # "p" or "p/q" with an optional sign: the grammar's common case, read without the pattern
            n, d = int(num), int(den) if slash else 1
            if d:
                return n, d
        except ValueError:  # a digit string over int's digit limit
            pass
    m = _RATIONAL.fullmatch(text)
    if m is not None:
        sign, num, den, dec = m.groups()
        try:
            n, d = int(num or 0), int(den) if den is not None else 10 ** len(dec or "")
            if dec:  # a decimal: its digits over a power of ten
                n = n * d + int(dec)
            if d:
                return (-n if sign == "-" else n), d
        except ValueError:  # a digit string over int's digit limit
            pass
    return None


def scalar(e) -> Fraction:
    """An exact rational. Floats and bools raise TypeError: a float's binary
    value would enter silently inexact, and a bool is not a coefficient. A
    string is read by the documents' grammar (``_ratio``), and other text
    raises ValueError."""
    if type(e) is Fraction:
        return e
    if isinstance(e, str):
        ratio = _ratio(e)
        if ratio is None:
            raise ValueError(f"bad rational {e!r}")
        return Fraction(*ratio)
    if isinstance(e, (bool, float)):
        raise TypeError(f"coefficient must be an exact rational, got {type(e).__name__} {e!r}")
    return Fraction(e)


def vec(entries: Iterable) -> Vector:
    return tuple(map(scalar, entries))


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Sequence, v: Sequence) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v: Sequence) -> Vector:
    c = scalar(c)
    return tuple(c * a for a in v)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(row) for row in rows)


def zero_mat(nrows: int, ncols: int) -> Matrix:
    return tuple(zero_vec(ncols) for _ in range(nrows))


def identity_mat(n: int) -> Matrix:
    return tuple(unit_vec(n, i) for i in range(n))


def transpose(rows: Matrix) -> Matrix:
    if not rows:
        return ()
    return tuple(zip(*rows))


def mat_vec(rows: Matrix, v: Sequence) -> Vector:
    return tuple(sum((r[j] * v[j] for j in range(len(v)) if v[j]), ZERO) for r in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        out.append(tuple(sum((row[k] * col[k] for k in range(len(row)) if row[k]), ZERO) for col in bt) if bt else zero_vec(ncols))
    return tuple(out)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_add(r, s) for r, s in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(vec_scale(c, r) for r in a)


def _items(row):
    """(column, coefficient) pairs of a dense or a sparse row."""
    items = getattr(row, "items", None)
    return items() if items is not None else enumerate(row)


def _width(rows) -> int:
    """Number of columns: the longest dense row, or one past the largest sparse index."""
    return max((max(r, default=-1) + 1 if hasattr(r, "items") else len(r) for r in rows), default=0)


def _int_row(items) -> dict:
    """The nonzeros of a row as {column: int}: every coefficient made exact
    through ``scalar`` (so floats and bools raise TypeError), times the lcm of
    the row's denominators, divided by the gcd of the results. A row of ints
    is only divided."""
    row = {}
    ints = True
    for k, c in items:
        if type(c) is not int:
            c = scalar(c)
            ints = False
        if c:
            row[k] = c
    if not ints:
        d = math.lcm(*{c.denominator for c in row.values()})
        row = {k: c.numerator * (d // c.denominator) for k, c in row.items()}
    g = math.gcd(*row.values())
    return {k: x // g for k, x in row.items()} if g > 1 else row


def _clear(row: dict, prow: dict, c: int) -> dict:
    """``row`` with column c cleared by an integer combination with the pivot
    row ``prow``, divided by the gcd of its entries."""
    g = math.gcd(row[c], prow[c])
    a, s = row[c] // g, prow[c] // g
    new = {k: s * x for k, x in row.items()} if s != 1 else dict(row)
    for k, y in prow.items():
        x = new.get(k, 0) - a * y
        if x:
            new[k] = x
        else:
            del new[k]
    g = math.gcd(*new.values())
    return {k: x // g for k, x in new.items()} if g > 1 else new


def _eliminate(rows: list, ncols: int, full: bool) -> list[tuple[int, int]]:
    """Fraction-free elimination of the integer rows in place, in row order;
    returns ``(column, row index)`` for each pivot, in column order. The
    pivot rows end in echelon form, every other row zero below ``ncols``.
    With ``full`` each pivot row is then cleared at the later pivots, last
    pivot first, so that it is cleared by reduced rows (Gauss-Jordan)."""
    owner: dict[int, int] = {}  # pivot column -> index of its row
    for i, row in enumerate(rows):
        c = min(row, default=ncols)
        while c in owner:
            row = _clear(row, rows[owner[c]], c)
            c = min(row, default=ncols)
        rows[i] = row
        if c < ncols:
            owner[c] = i
    pivots = sorted(owner.items())
    if full:
        for c, i in reversed(pivots):
            for k in [k for k in rows[i] if k > c and k in owner]:
                rows[i] = _clear(rows[i], rows[owner[k]], k)
    return pivots


def _reduced(rows, ncols: int | None, full: bool = True) -> tuple[list[dict], list[int], int]:
    """(integer rows after elimination, the pivot rows first in column order;
    pivots; width) for dense or sparse rows."""
    width = _width(rows)
    if ncols is None:
        ncols = width
    work = [_int_row(_items(r)) for r in rows]
    pivots = _eliminate(work, ncols, full)
    owners = {i for _, i in pivots}
    work = [work[i] for _, i in pivots] + [r for i, r in enumerate(work) if i not in owners]
    return work, [c for c, _ in pivots], max(width, ncols)


def rref(rows: Sequence, ncols: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Pivots are taken in the first ``ncols`` columns (default: all). The rows
    come back dense, of the full width. When ``ncols`` is the width they are
    the unique reduced echelon form, zero past the rank. When it is less
    (an augmented system), the rows past the rank are zero below ``ncols``
    and span the rows of the row space that are: only whether they are all
    zero carries meaning.
    """
    work, pivots, width = _reduced(rows, ncols)
    out = []
    for i, row in enumerate(work):
        p = row[pivots[i]] if i < len(pivots) else 1
        dense = [ZERO] * width
        for k, x in row.items():
            dense[k] = Fraction(x, p)
        out.append(dense)
    return out, pivots


def rank(rows: Sequence, ncols: int | None = None) -> int:
    return len(_reduced(rows, ncols, full=False)[1])


def lowest_terms(d: int, vectors) -> tuple[int, tuple[dict, ...]]:
    """The integer view ``(d, vectors)`` over its least scale: d and every
    coefficient divided by their gcd. For d > 0 that scale is the lcm of the
    denominators of the rational vectors the view stands for."""
    vectors = tuple(vectors)
    g = math.gcd(d, *(c for v in vectors for c in v.values()))
    if g == 1:
        return d, vectors
    return d // g, tuple({k: c // g for k, c in v.items()} for v in vectors)


def _dense(d: int, v: dict, n: int) -> Vector:
    out = [ZERO] * n
    for k, c in v.items():
        out[k] = Fraction(c, d)
    return tuple(out)


def nullspace_ints(rows: Sequence, ncols: int) -> tuple[int, tuple[dict, ...]]:
    """The basis of ``nullspace`` as one integer view ``(d, vectors)``.

    After Gauss-Jordan a pivot row holds its pivot and the free columns
    only, so the basis vector of free column f is d at f and
    ``-row[f] * d / row[pivot]`` at each pivot, d the lcm of the pivots of
    the rows with a free entry."""
    work, pivots, _ = _reduced(rows, ncols)
    d = math.lcm(*(abs(row[pc]) for row, pc in zip(work, pivots) if len(row) > 1))
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = {free: d}
        for row, pc in zip(work, pivots):
            x = row.get(free)
            if x:
                v[pc] = -x * d // row[pc]
        basis.append({k: v[k] for k in sorted(v)})
    return lowest_terms(d, basis)


def nullspace(rows: Sequence, ncols: int) -> list[Vector]:
    """Basis of {v : rows @ v = 0}, one vector per free column, in column order."""
    d, basis = nullspace_ints(rows, ncols)
    return [_dense(d, v, ncols) for v in basis]


def solve_ints(rows: Sequence, rhs: Sequence, ncols: int | None = None) -> tuple[int, dict] | None:
    """The solution of ``solve`` as ``(d, x)``: x the sparse solution times
    d, as ints, d the lcm of its denominators; None if there is none."""
    if ncols is None:
        ncols = _width(rows)
    if len(rhs) > len(rows):
        raise ValueError(f"right-hand side has {len(rhs)} entries, the system has {len(rows)} rows")
    return solve_many_ints(rows, [dict(enumerate(rhs))], ncols)[0]


def solve_many_ints(rows: Sequence, rhs_columns: Sequence, ncols: int) -> list:
    """``solve_ints`` of rows @ x = b for each sparse column b ({row: value})
    of ``rhs_columns``, by one elimination of the rows augmented with every
    column. Pivots stay in the first ``ncols`` columns, so each solution is
    the one its own system gives, or None. Rows a column has no entry for
    get a zero right-hand side."""
    aug = [dict(_items(r)) for r in rows]
    for t, column in enumerate(rhs_columns):
        for m, b in column.items():
            if m not in range(len(aug)):
                raise ValueError(f"right-hand side {t} has an entry at row {m}, the system has {len(aug)} rows")
            aug[m][ncols + t] = b
    work, pivots, _ = _reduced(aug, ncols)
    past = work[len(pivots):]  # zero below ncols: each column must be zero here too
    out = []
    for col in range(ncols, ncols + len(rhs_columns)):
        if any(col in row for row in past):
            out.append(None)
            continue
        solved = [(pc, row[col], row[pc]) for row, pc in zip(work, pivots) if col in row]
        d = math.lcm(*(abs(p) for _, _, p in solved))
        d, (x,) = lowest_terms(d, [{pc: b * d // p for pc, b, p in solved}])
        out.append((d, x))
    return out


def solve(rows: Sequence, rhs: Sequence, ncols: int | None = None) -> Vector | None:
    """First-pivot particular solution of rows @ x = rhs (free variables zero)."""
    if ncols is None:
        ncols = _width(rows)
    sol = solve_ints(rows, rhs, ncols)
    return None if sol is None else _dense(*sol, ncols)


def inverse_ints(a: Sequence) -> tuple[int, tuple[dict, ...]] | None:
    """The rows of ``inverse`` as one integer view ``(d, rows)``, keys in
    order; None if the matrix is singular."""
    n = len(a)
    aug = [{**dict(_items(r)), n + i: 1} for i, r in enumerate(a)]
    work, pivots, _ = _reduced(aug, n)
    if len(pivots) != n:
        return None
    d = math.lcm(*(abs(row[i]) for i, row in enumerate(work)))
    return lowest_terms(d, ({k - n: row[k] * d // row[i] for k in sorted(row) if k >= n}
                            for i, row in enumerate(work)))


def inverse(a: Sequence) -> Matrix | None:
    """The inverse of a square matrix, None if it is singular."""
    inv = inverse_ints(a)
    if inv is None:
        return None
    d, rows = inv
    return tuple(_dense(d, row, len(a)) for row in rows)


def in_span(rows: Sequence, v) -> bool:
    return not extend_independent(rows, [v])


def extend_independent(base: Sequence, candidates: Sequence) -> list[int]:
    """Indices of candidates that grow the span of ``base``, scanned in order.

    One forward pass over base and candidates as rows, in order: a row gives
    a pivot exactly when it is outside the span of the rows before it."""
    rows = [_int_row(_items(v)) for v in [*base, *candidates]]
    nb = len(base)
    return sorted(i - nb for _, i in _eliminate(rows, _width(rows), False) if i >= nb)
