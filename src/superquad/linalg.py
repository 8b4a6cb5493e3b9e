"""Exact linear algebra over the rationals.

Vectors are tuples and matrices are tuples of row tuples, all with Fraction
entries; ``scalar`` and ``vec`` refuse floats and bools. Routines never
mutate their arguments. Elimination always takes the first usable pivot in
row-major order and free variables are filled in column order, so every
result is deterministic and reproducible bit-for-bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(e) -> Fraction:
    """An exact rational. Floats and bools raise TypeError: a float's binary
    value would enter silently inexact, and a bool is not a coefficient."""
    if type(e) is Fraction:
        return e
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


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Sequence) -> Vector:
    c = scalar(c)
    return tuple(c * a for a in v)


def vec_is_zero(v: Sequence) -> bool:
    return all(a == 0 for a in v)


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


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_sub(r, s) for r, s in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(vec_scale(c, r) for r in a)


def rref(rows: Sequence[Sequence], ncols: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    work = [list(vec(r)) for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = ONE / work[r][c]
        work[r] = [inv * x if x else x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y if y else x for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def rank(rows: Sequence[Sequence], ncols: int | None = None) -> int:
    return len(rref(rows, ncols)[1])


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[Vector]:
    """Basis of {v : rows @ v = 0}, one vector per free column, in column order."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(tuple(v))
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence, ncols: int | None = None) -> Vector | None:
    """First-pivot particular solution of rows @ x = rhs (free variables zero)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, ncols)
    for r in range(len(pivots), len(red)):
        if red[r][ncols] != 0:
            return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def inverse(a: Matrix) -> Matrix | None:
    n = len(a)
    aug = [list(r) + list(unit_vec(n, i)) for i, r in enumerate(a)]
    red, pivots = rref(aug, None)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(red[i][n:]) for i in range(n))


def in_span(rows: Sequence[Sequence], v: Sequence) -> bool:
    if vec_is_zero(v):
        return True
    if not rows:
        return False
    return rank(rows) == rank(list(rows) + [list(v)])


def extend_independent(base: Sequence[Sequence], candidates: Sequence[Sequence]) -> list[int]:
    """Indices of candidates that grow the span of ``base``, scanned in order.

    One rref of all the vectors taken as columns, base first: a column is a
    pivot exactly when it is outside the span of the columns before it."""
    nb = len(base)
    _, pivots = rref(transpose(tuple(base) + tuple(candidates)), nb + len(candidates))
    return [p - nb for p in pivots if p >= nb]
