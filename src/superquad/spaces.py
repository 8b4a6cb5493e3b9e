"""Z2-graded vector spaces, homogeneous maps, bilinear forms and the change
of parity.

A super-space is an ordered homogeneous basis: a tuple of (label, parity)
pairs with parity in {0, 1}. Basis order is data (extension outputs keep the
a / h / dual block order) and is never rearranged. Zero-dimensional spaces
are legal everywhere. All values are immutable and all operations are pure.

Maps and forms store their nonzeros as integers, ``(d, ints)``: every
coefficient times d, the lcm of their reduced denominators. ``normalize``
makes every such state, from exact coefficients (``from_entries``) or from
integers over a common denominator (``from_ints``), so the state is
canonical and equality compares it. Every check reads the state; the
export ``entries()`` and the dense views are its only ``Fraction`` forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Sequence

from . import linalg
from .errors import NotHomogeneous, Violation
from .linalg import Matrix, Vector, ZERO

EVEN = 0
ODD = 1

# Sparse vectors are dicts {index: coefficient}. add_scaled accumulates in
# place and may leave cancelled zeros behind; every sparse vector a function
# returns or a map stores has them dropped. EMPTY is the shared read-only
# zero vector.
EMPTY = MappingProxyType({})


def add_scaled(acc: dict, c, v) -> None:
    """acc += c * v, in place."""
    if c == 1:
        for k, x in v.items():
            if k in acc:
                acc[k] += x
            else:
                acc[k] = x
        return
    for k, x in v.items():
        if k in acc:
            acc[k] += c * x
        else:
            acc[k] = c * x


def drop_zeros(v: dict) -> dict:
    return {k: c for k, c in v.items() if c}


def common_scale(views) -> tuple[int, list]:
    """(d, scaled): integer views ``(d_t, vectors)``, each a stored state
    (``scaled_*``) or another exact view at scale d_t, brought to one scale d,
    the lcm of the d_t; d is then the lcm of the denominators of every
    vector, as if all had been scaled together. ``vectors`` is a tuple of
    sparse vectors, or a dict of them by key, and keeps its shape."""
    views = list(views)
    d = math.lcm(*(dt for dt, _ in views))
    out = []
    for dt, vs in views:
        if dt != d:
            f = d // dt
            if isinstance(vs, dict):
                vs = {key: {k: c * f for k, c in v.items()} for key, v in vs.items()}
            else:
                vs = tuple({k: c * f for k, c in v.items()} for v in vs)
        out.append(vs)
    return d, out


def sparse_transpose(vectors, n: int) -> list[dict]:
    """The n sparse vectors w with w[k][i] = vectors[i][k]: the rows of the
    matrix whose columns are ``vectors``, or the other way round."""
    out = [{} for _ in range(n)]
    for i, v in enumerate(vectors):
        for k, c in v.items():
            out[k][i] = c
    return out


def _check_parity(p) -> int:
    if type(p) is not int or p not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {p!r}")
    return p


def out_of_range(keys, bounds: tuple[int, ...]):
    """(key, index): the first index tuple of ``keys``, in sorted order, of
    the wrong length or with an index outside 0 <= index < its bound, and
    that index (None for a wrong length); None if all are inside."""
    arity = len(bounds)
    if set(map(len, keys)) <= {arity} and all(
            0 <= min(column) and max(column) < bound for column, bound in zip(zip(*keys), bounds)):
        return None
    for key in sorted(keys):
        if len(key) != arity:
            return key, None
        for index, bound in zip(key, bounds):
            if not 0 <= index < bound:
                return key, index


def normalize(entries, bounds, what: str, d: int | None = None) -> tuple[int, dict]:
    """The one normalisation point of every graded map and form, and of the
    document writers: ``(d, {indices: n})``, each coefficient n/d with d the
    lcm of their reduced denominators (1 if there are none), repeated
    indices summed, zeros dropped, keys in lexicographic order. d is then
    canonical, so two results are equal exactly when the rational tables
    are.

    ``entries`` is an iterable of (*indices, c) with c an exact rational
    (``linalg.scalar``: floats and bools raise TypeError), or, when ``d`` is
    given, a dict {indices: n} of int numerators over d, zeros allowed. An
    index tuple out of ``bounds`` raises ValueError; bounds None checks none."""
    if d is None:
        items = []
        scalar = linalg.scalar
        arity = None if bounds is None else len(bounds)
        for *key, c in entries:
            key = tuple(key)
            if arity is not None:
                bad = len(key) != arity
                for i, b in zip(key, bounds):
                    bad = bad or not 0 <= i < b
                if bad:
                    raise ValueError(f"{what} entry ({','.join(map(str, key))}) out of range")
            items.append((key, c if type(c) is int else scalar(c)))
        d = math.lcm(*{c.denominator for _, c in items})
        table: dict = {}
        for key, c in items:
            n = c.numerator * (d // c.denominator)
            table[key] = table[key] + n if key in table else n
    else:
        table = entries
        bad = None if bounds is None else out_of_range(table, bounds)
        if bad is not None:
            raise ValueError(f"{what} entry ({','.join(map(str, bad[0]))}) out of range")
    g = math.gcd(d, *table.values())
    if g == 1:
        return d, {key: n for key, n in sorted(table.items()) if n}
    return d // g, {key: n // g for key, n in sorted(table.items()) if n}


def _dense_entries(matrix, nrows: int, ncols: int, what: str):
    """(r, c, x) for every entry of a dense nrows x ncols matrix, after a shape check."""
    rows = tuple(tuple(r) for r in matrix)
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError(what)
    return ((r, c, x) for r, row in enumerate(rows) for c, x in enumerate(row))


class _Sparse:
    """An immutable value stored by its nonzeros as integers.

    ``FIELDS`` names what equality compares: the spaces and degree, then
    last the stored state ``(d, ints)``, every nonzero coefficient times d,
    d the lcm of their reduced denominators (``normalize``). The state is
    canonical, so equality and the hash read it directly. The dense view is
    built from it on first use, cached in a slot of its own (``_matrix`` or
    ``_table``), and takes no part in equality, hashing or ``repr``.
    """

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    @classmethod
    def _build(cls, *args):
        self = object.__new__(cls)
        self._set(*args)
        return self

    @classmethod
    def from_ints(cls, *args):
        """The arguments of ``from_entries`` with the entries replaced by d
        and a table {indices: n}, each coefficient n/d (see ``normalize``)."""
        *spaces, d, table = args
        return cls._build(*spaces, table, d)

    def _init(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _view(self, slot: str, build):
        """The view cached in ``slot``, built on first use."""
        if getattr(self, slot) is None:
            object.__setattr__(self, slot, build())
        return getattr(self, slot)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.FIELDS)

    def __hash__(self):
        d, table = self.scaled_table()
        return hash(tuple(getattr(self, f) for f in self.FIELDS[:-1]) + (d,) + tuple(table.items()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.FIELDS)})"

    def __reduce__(self):
        """Pickled and copied as its spaces and integer state, rebuilt through ``_set``."""
        d, table = self.scaled_table()
        return type(self)._build, tuple(getattr(self, f) for f in self.FIELDS[:-1]) + (table, d)

    def entries(self, *shift: int) -> list:
        """Nonzero entries as (*indices, c) in lexicographic order, each index
        shifted by its entry of ``shift`` (0 past its end), for embedding
        into a larger map."""
        d, table = self.scaled_table()
        shift += (0,) * (3 - len(shift))
        return [tuple(i + s for i, s in zip(key, shift)) + (Fraction(n, d),) for key, n in table.items()]


def is_token(text: str) -> bool:
    """One field of the text formats, as labels and names must be: nonempty,
    no whitespace, and no '#', which starts a comment."""
    return bool(text) and "#" not in text and not any(ch.isspace() for ch in text)


@dataclass(frozen=True)
class SuperSpace:
    basis: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple((str(l), _check_parity(p)) for l, p in self.basis))
        labels = [l for l, _ in self.basis]
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        for l in labels:
            if not is_token(l):
                raise ValueError(f"bad basis label {l!r}")

    @property
    def dim(self) -> int:
        return len(self.basis)

    # labels and parities are built once per space, cached in the instance's
    # __dict__; equality, hashing and pickling see the basis only
    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.basis)

    @functools.cached_property
    def parities(self) -> tuple[int, ...]:
        return tuple(p for _, p in self.basis)

    def __getstate__(self):
        return {"basis": self.basis}

    @property
    def dim_even(self) -> int:
        return sum(1 for _, p in self.basis if p == EVEN)

    @property
    def dim_odd(self) -> int:
        return sum(1 for _, p in self.basis if p == ODD)

    def parity(self, i: int) -> int:
        return self.basis[i][1]

    def label(self, i: int) -> str:
        return self.basis[i][0]


def parity_shift(space: SuperSpace) -> SuperSpace:
    """P(V): same labels, every parity flipped."""
    return SuperSpace(tuple((l, (p + 1) % 2) for l, p in space.basis))


def apply_p_delta(delta: int, space: SuperSpace) -> SuperSpace:
    """P_delta(V): V itself for delta = 0, P(V) for delta = 1."""
    _check_parity(delta)
    return space if delta == 0 else parity_shift(space)


def dual_space(space: SuperSpace) -> SuperSpace:
    """V* with the dual basis; the dual of a parity-p vector has parity p."""
    return SuperSpace(tuple((l + "*", p) for l, p in space.basis))


def p_delta_dual(space: SuperSpace, delta: int) -> SuperSpace:
    """P_delta(V)* with catalog-style labels: x* for delta 0, P(x)* for delta 1."""
    _check_parity(delta)
    if delta == 0:
        return dual_space(space)
    return SuperSpace(tuple((f"P({l})*", (p + 1) % 2) for l, p in space.basis))


class GradedLinearMap(_Sparse):
    """Homogeneous linear map, stored by its columns.

    ``scaled_columns`` is the stored state ``(d, columns)``: column c is the
    image of the c-th source basis vector times d, a sparse int vector
    ``{r: n}``, rows in order, no zeros. ``matrix`` (dense) is a view built
    on first use. The map is immutable; its columns must not be mutated.
    """

    __slots__ = ("source", "target", "degree", "scaled_columns", "_matrix")
    FIELDS = ("source", "target", "degree", "scaled_columns")

    def __init__(self, source: SuperSpace, target: SuperSpace, degree: int, matrix):
        """Dense form: matrix[r][c] is coordinate r of the image of e_c."""
        self._set(source, target, degree, _dense_entries(
            matrix, target.dim, source.dim, "matrix shape does not match source/target dimensions"))

    @classmethod
    def from_entries(cls, source: SuperSpace, target: SuperSpace, degree: int, entries) -> "GradedLinearMap":
        """entries: iterable of (r, c, x), x coordinate r of the image of e_c;
        coefficients of a repeated (r, c) add up."""
        return cls._build(source, target, degree, entries)

    def _set(self, source, target, degree, entries, d=None) -> None:
        _check_parity(degree)
        tp, sp = target.parities, source.parities
        cols = [{} for _ in range(source.dim)]
        d, table = normalize(entries, (target.dim, source.dim), "map", d)
        for (r, c), n in table.items():
            if tp[r] != (sp[c] + degree) % 2:
                raise NotHomogeneous(f"entry ({r},{c}) breaks homogeneity of a degree-{degree} map")
            cols[c][r] = n
        self._init(source=source, target=target, degree=degree, scaled_columns=(d, tuple(cols)), _matrix=None)

    @classmethod
    def zero(cls, source: SuperSpace, target: SuperSpace, degree: int) -> "GradedLinearMap":
        return cls._build(source, target, degree, ())

    def scaled_table(self) -> tuple[int, dict]:
        """(d, {(r, c): n}): the stored state as one table, in row-major order."""
        d, cols = self.scaled_columns
        return d, dict(sorted(((r, c), n) for c, col in enumerate(cols) for r, n in col.items()))

    @property
    def matrix(self) -> Matrix:
        """Dense view: matrix[r][c] is coordinate r of the image of e_c."""
        d, cols = self.scaled_columns
        return self._view("_matrix", lambda: tuple(
            linalg._dense(d, row, self.source.dim) for row in sparse_transpose(cols, self.target.dim)))


class GradedBilinearForm(_Sparse):
    """Bilinear form with a declared degree, stored by its rows.

    ``scaled_rows`` is the stored state ``(d, rows)``: row i is
    ``{j: B(e_i, e_j)}`` times d as ints, columns in order, no zeros.
    ``matrix`` (dense) is a view built on first use. The constructors check shapes
    only: whether the entries actually realise the declared degree pattern
    is a checkable property (check_form_degree), so invalid forms can be
    represented and flagged.
    """

    __slots__ = ("space", "degree", "scaled_rows", "_matrix")
    FIELDS = ("space", "degree", "scaled_rows")

    def __init__(self, space: SuperSpace, degree: int, matrix):
        """Dense form: matrix[i][j] = B(e_i, e_j)."""
        self._set(space, degree, _dense_entries(matrix, space.dim, space.dim,
                                                "form matrix must be dim x dim"))

    @classmethod
    def from_entries(cls, space: SuperSpace, degree: int, entries) -> "GradedBilinearForm":
        """entries: iterable of (i, j, c) meaning B(e_i, e_j) = c; coefficients
        of a repeated (i, j) add up."""
        return cls._build(space, degree, entries)

    def _set(self, space, degree, entries, d=None) -> None:
        _check_parity(degree)
        rows = [{} for _ in range(space.dim)]
        d, table = normalize(entries, (space.dim, space.dim), "form", d)
        for (i, j), n in table.items():
            rows[i][j] = n
        self._init(space=space, degree=degree, scaled_rows=(d, tuple(rows)), _matrix=None)

    def scaled_table(self) -> tuple[int, dict]:
        """(d, {(i, j): n}): the stored state as one table, in row-major order."""
        d, rows = self.scaled_rows
        return d, {(i, j): n for i, row in enumerate(rows) for j, n in row.items()}

    @property
    def matrix(self) -> Matrix:
        """Dense view: matrix[i][j] = B(e_i, e_j)."""
        d, rows = self.scaled_rows
        return self._view("_matrix", lambda: tuple(linalg._dense(d, row, self.space.dim) for row in rows))

    def value(self, u: Sequence, v: Sequence) -> Fraction:
        """B(u, v) for dense vectors u and v."""
        d, rows = self.scaled_rows
        return sum((a * n * v[j] for a, row in zip(u, rows) if a for j, n in row.items()), ZERO) / d

    def rank(self) -> int:
        return linalg.rank(self.scaled_rows[1], self.space.dim)

    def is_non_degenerate(self) -> bool:
        return self.rank() == self.space.dim

    def check_supersymmetry(self) -> Violation | None:
        """B(x,y) = (-1)^{|x||y|} B(y,x) entrywise; pairs where both entries
        vanish are skipped, so the first failing (i, j) is in row-major order.
        Compared on the integer view; the residual is divided back by d. The
        residual at (j, i) is -+ the one at (i, j), so only i <= j is scanned."""
        par = self.space.parities
        d, rows = self.scaled_rows
        nonzero = {(i, j) if i <= j else (j, i) for i, row in enumerate(rows) for j in row}
        for i, j in sorted(nonzero):
            res = rows[i].get(j, 0) - (-1 if par[i] * par[j] else 1) * rows[j].get(i, 0)
            if res:
                return Violation("super-symmetry", (i, j), Fraction(res, d))
        return None


def check_form_degree(form: GradedBilinearForm) -> int:
    """Degree realised by the matrix pattern: 0 if even, 1 if odd.

    A zero matrix fits both patterns and reports the declared degree. A matrix
    with nonzero entries in both the equal-parity and mixed-parity blocks is
    not homogeneous and raises.
    """
    par = form.space.parities
    even_bad = odd_bad = None
    for i, row in enumerate(form.scaled_rows[1]):
        for j in row:
            if par[i] != par[j]:
                if even_bad is None:
                    even_bad = (i, j)
            else:
                if odd_bad is None:
                    odd_bad = (i, j)
    if even_bad is None and odd_bad is None:
        return form.degree
    if even_bad is None:
        return EVEN
    if odd_bad is None:
        return ODD
    raise NotHomogeneous(
        f"mixed-parity entry at {even_bad} and equal-parity entry at {odd_bad}: "
        "form is neither even nor odd"
    )


class GradedBilinearMap(_Sparse):
    """Even bilinear map left x right -> target, stored by its nonzeros.

    ``scaled_pairs`` is the stored state ``(d, pairs)``: ``pairs[(i, j)]``
    is the value on (e_i, e_j) times d, as a sparse int vector ``{k: n}``.
    Pairs and coefficients are kept in lexicographic order and no zero
    coefficient or empty value is ever stored, so a kernel that walks them
    touches only nonzero structure constants, in scan order. The map is
    immutable; its values must not be mutated. ``table`` (dense) is a view
    built on first use.
    """

    __slots__ = ("left", "right", "target", "scaled_pairs", "_table")
    FIELDS = ("left", "right", "target", "scaled_pairs")

    def __init__(self, left: SuperSpace, right: SuperSpace, target: SuperSpace, table):
        """Dense form: table[i][j] is the coordinate vector of the value on (e_i, e_j)."""
        table = tuple(tuple(tuple(v) for v in row) for row in table)
        if len(table) != left.dim or any(len(row) != right.dim for row in table):
            raise ValueError("bilinear table shape mismatch")
        if any(len(v) != target.dim for row in table for v in row):
            raise ValueError("bilinear table value dimension mismatch")
        self._set(left, right, target,
                  ((i, j, k, c) for i, row in enumerate(table) for j, v in enumerate(row)
                   for k, c in enumerate(v)))

    @classmethod
    def from_entries(cls, left, right, target, entries) -> "GradedBilinearMap":
        """entries: iterable of (i, j, k, c); coefficients of a repeated (i, j, k) add up."""
        return cls._build(left, right, target, entries)

    def _set(self, left, right, target, entries, d=None) -> None:
        d, table = normalize(entries, (left.dim, right.dim, target.dim), "bilinear", d)
        pairs: dict = {}
        for (i, j, k), n in table.items():
            if (i, j) in pairs:
                pairs[i, j][k] = n
            else:
                pairs[i, j] = {k: n}
        self._init(left=left, right=right, target=target, scaled_pairs=(d, pairs), _table=None)

    @classmethod
    def zero(cls, left: SuperSpace, right: SuperSpace, target: SuperSpace) -> "GradedBilinearMap":
        return cls._build(left, right, target, ())

    def scaled_table(self) -> tuple[int, dict]:
        """(d, {(i, j, k): n}): the stored state as one table, in lexicographic order."""
        d, pairs = self.scaled_pairs
        return d, {(i, j, k): n for (i, j), v in pairs.items() for k, n in v.items()}

    @property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        """Dense view: table[i][j] is the value on (e_i, e_j). No kernel of
        the library reads it."""
        return self._view("_table", lambda: tuple(
            tuple(self.value(i, j) for j in range(self.right.dim)) for i in range(self.left.dim)))

    def value(self, i: int, j: int) -> Vector:
        d, pairs = self.scaled_pairs
        return linalg._dense(d, pairs.get((i, j), EMPTY), self.target.dim)

    def check_even(self, name: str = "bilinear-even", what: str = "value") -> Violation | None:
        """As an even map, the value on (e_i, e_j) lies in the (p_i + p_j) block."""
        pl, pr, pt = self.left.parities, self.right.parities, self.target.parities
        d, pairs = self.scaled_pairs
        for (i, j), v in pairs.items():
            want = (pl[i] + pr[j]) % 2
            for k, n in v.items():
                if pt[k] != want:
                    return Violation(name, (i, j, k), Fraction(n, d), f"{what} leaves its parity block")
        return None

    def check_super_skew(self, name: str = "bilinear-skew") -> Violation | None:
        """value(e_j, e_i) = -(-1)^{p_i p_j} value(e_i, e_j); see ``super_skew_violation``."""
        if self.left.basis != self.right.basis:
            raise ValueError("super skew-symmetry needs equal source spaces")
        d, pairs = self.scaled_pairs
        return super_skew_violation(name, self.left.parities, pairs, d, self.target.dim)


def super_skew_violation(name: str, parities, pairs: dict, d: int, dim: int) -> Violation | None:
    """First (i, j), in row-major order, with value(e_j, e_i) != -(-1)^{p_i p_j}
    value(e_i, e_j), for the integer view ``pairs`` (the nonzeros of a map
    on a space with these parities, times d); pairs where both values vanish
    are skipped. The residual at (j, i) is +- the one at (i, j), so only
    i <= j is scanned; the values hold no zeros, so a pair passes exactly
    when one value equals the other or its negative. The witness carries the
    residual divided back by d, as a dense vector of length dim."""
    for i, j in sorted({(i, j) if i <= j else (j, i) for i, j in pairs}):
        u, w = pairs.get((i, j), EMPTY), pairs.get((j, i), EMPTY)
        sign = -1 if parities[i] * parities[j] else 1
        if w == (u if sign == -1 else {k: -c for k, c in u.items()}):
            continue
        res = dict(w)
        add_scaled(res, sign, u)
        return Violation(name, (i, j), linalg._dense(d, res, dim))
    return None
