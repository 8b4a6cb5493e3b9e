"""Z2-graded vector spaces, homogeneous maps, bilinear forms and the change
of parity.

A super-space is an ordered homogeneous basis: a tuple of (label, parity)
pairs with parity in {0, 1}. Basis order is data (extension outputs keep the
a / h / dual block order) and is never rearranged. Zero-dimensional spaces
are legal everywhere. All values are immutable and all operations are pure.
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


def sparse_vec(v: Sequence) -> dict:
    return {k: c for k, c in enumerate(v) if c}


def dense_vec(v, n: int) -> Vector:
    out = [ZERO] * n
    for k, c in v.items():
        out[k] = c
    return tuple(out)


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


def scaled_to_ints(vectors) -> tuple[int, tuple[dict, ...]]:
    """(d, scaled): d is the lcm of the denominators of every coefficient of
    the sparse vectors (1 if there are none), and scaled holds the same
    vectors, in order, times d, with int coefficients. Scaling every
    constant of an identity by one positive number keeps each of its sums
    zero exactly when the rational sum is, so a scan can run on ints."""
    vectors = list(vectors)
    d = math.lcm(*{c.denominator for v in vectors for c in v.values()})
    return d, tuple({k: c.numerator * (d // c.denominator) for k, c in v.items()} for v in vectors)


def common_scale(views) -> tuple[int, list]:
    """(d, scaled): integer views ``(d_t, vectors)``, each from
    ``scaled_to_ints`` or a ``scaled_*`` property, brought to one scale d,
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
    if p not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {p!r}")
    return p


def _normalize(entries, bounds: tuple[int, ...], what: str) -> dict:
    """The one normalisation point of every graded map and form. Each entry
    is (*indices, c); the result maps each index tuple in range to its exact
    coefficient (``linalg.scalar``), repeated indices summed, zeros dropped,
    keys in lexicographic order. An index out of range raises ValueError."""
    acc: dict = {}
    arity, scalar = len(bounds), linalg.scalar
    for *key, c in entries:
        key = tuple(key)
        bad = len(key) != arity
        for i, b in zip(key, bounds):
            bad = bad or not 0 <= i < b
        if bad:
            raise ValueError(f"{what} entry ({','.join(map(str, key))}) out of range")
        c = scalar(c)
        if c:
            acc[key] = acc[key] + c if key in acc else c
    return {key: acc[key] for key in sorted(acc) if acc[key]}


def _dense_entries(matrix, nrows: int, ncols: int, what: str):
    """(r, c, x) for every entry of a dense nrows x ncols matrix, after a shape check."""
    rows = tuple(tuple(r) for r in matrix)
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError(what)
    return ((r, c, x) for r, row in enumerate(rows) for c, x in enumerate(row))


class _Sparse:
    """An immutable value stored by its nonzeros.

    ``FIELDS`` names what equality compares: the spaces and degree, then the
    stored nonzeros last; the hash takes ``entries()`` in their place. Dense
    and integer views are cached in slots of their own and take no part in
    equality, hashing or ``repr``.
    """

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    @classmethod
    def _build(cls, *args):
        self = object.__new__(cls)
        self._set(*args)
        return self

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
        return hash(tuple(getattr(self, f) for f in self.FIELDS[:-1]) + tuple(self.entries()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.FIELDS)})"

    def __reduce__(self):
        """Pickled and copied as its spaces and entries, rebuilt through ``_set``."""
        return type(self)._build, tuple(getattr(self, f) for f in self.FIELDS[:-1]) + (self.entries(),)


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

    def vector_parity(self, v: Sequence) -> int | None:
        """Parity of a homogeneous coordinate vector; None if mixed or zero."""
        seen = {self.parity(i) for i, c in enumerate(v) if c != 0}
        if len(seen) == 1:
            return seen.pop()
        return None


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

    ``sparse_columns[c]`` is the image of the c-th source basis vector as a
    sparse vector ``{r: x}``, rows in order, no zeros. ``matrix`` (dense)
    and ``scaled_columns`` (integer) are views built on first use. The map
    is immutable; its columns must not be mutated.
    """

    __slots__ = ("source", "target", "degree", "sparse_columns", "_matrix", "_scaled_columns")
    FIELDS = ("source", "target", "degree", "sparse_columns")

    def __init__(self, source: SuperSpace, target: SuperSpace, degree: int, matrix):
        """Dense form: matrix[r][c] is coordinate r of the image of e_c."""
        self._set(source, target, degree, _dense_entries(
            matrix, target.dim, source.dim, "matrix shape does not match source/target dimensions"))

    @classmethod
    def from_entries(cls, source: SuperSpace, target: SuperSpace, degree: int, entries) -> "GradedLinearMap":
        """entries: iterable of (r, c, x), x coordinate r of the image of e_c;
        coefficients of a repeated (r, c) add up."""
        return cls._build(source, target, degree, entries)

    def _set(self, source, target, degree, entries) -> None:
        _check_parity(degree)
        tp, sp = target.parities, source.parities
        cols = [{} for _ in range(source.dim)]
        for (r, c), x in _normalize(entries, (target.dim, source.dim), "map").items():
            if tp[r] != (sp[c] + degree) % 2:
                raise NotHomogeneous(f"entry ({r},{c}) breaks homogeneity of a degree-{degree} map")
            cols[c][r] = x
        self._init(source=source, target=target, degree=degree, sparse_columns=tuple(cols),
                   _matrix=None, _scaled_columns=None)

    @classmethod
    def zero(cls, source: SuperSpace, target: SuperSpace, degree: int) -> "GradedLinearMap":
        return cls._build(source, target, degree, ())

    def entries(self, dr: int = 0, dc: int = 0) -> list:
        """Nonzero entries as (r, c, x) in row-major order, the indices shifted
        by (dr, dc) for embedding into a larger map."""
        return sorted((r + dr, c + dc, x) for c, col in enumerate(self.sparse_columns)
                      for r, x in col.items())

    @property
    def matrix(self) -> Matrix:
        """Dense view: matrix[r][c] is coordinate r of the image of e_c."""
        return self._view("_matrix", lambda: tuple(
            dense_vec(row, self.source.dim)
            for row in sparse_transpose(self.sparse_columns, self.target.dim)))

    @property
    def scaled_columns(self) -> tuple[int, tuple[dict, ...]]:
        """(d, columns): ``sparse_columns`` times d as ints; see ``scaled_to_ints``."""
        return self._view("_scaled_columns", lambda: scaled_to_ints(self.sparse_columns))

    def apply_sparse(self, v) -> dict:
        out: dict = {}
        cols = self.sparse_columns
        for j, c in v.items():
            add_scaled(out, c, cols[j])
        return drop_zeros(out)

    def is_zero(self) -> bool:
        return not any(self.sparse_columns)

    def rank(self) -> int:
        return linalg.rank(self.sparse_columns, self.target.dim)

def parity_shift_map(t: GradedLinearMap) -> GradedLinearMap:
    """P(T): source parities flipped, same entries, degree raised; P(T)(P(v)) = T(v)."""
    return GradedLinearMap.from_entries(parity_shift(t.source), t.target, (t.degree + 1) % 2,
                                        t.entries())


class GradedBilinearForm(_Sparse):
    """Bilinear form with a declared degree, stored by its rows.

    ``sparse_rows[i]`` is ``{j: B(e_i, e_j)}``, columns in order, no zeros.
    ``matrix`` (dense) and ``scaled_rows`` (integer) are views built on first
    use. The constructors check shapes only: whether the entries actually
    realise the declared degree pattern is a checkable property
    (check_form_degree), so invalid forms can be represented and flagged.
    """

    __slots__ = ("space", "degree", "sparse_rows", "_matrix", "_scaled_rows")
    FIELDS = ("space", "degree", "sparse_rows")

    def __init__(self, space: SuperSpace, degree: int, matrix):
        """Dense form: matrix[i][j] = B(e_i, e_j)."""
        self._set(space, degree, _dense_entries(matrix, space.dim, space.dim,
                                                "form matrix must be dim x dim"))

    @classmethod
    def from_entries(cls, space: SuperSpace, degree: int, entries) -> "GradedBilinearForm":
        """entries: iterable of (i, j, c) meaning B(e_i, e_j) = c; coefficients
        of a repeated (i, j) add up."""
        return cls._build(space, degree, entries)

    def _set(self, space, degree, entries) -> None:
        _check_parity(degree)
        rows = [{} for _ in range(space.dim)]
        for (i, j), c in _normalize(entries, (space.dim, space.dim), "form").items():
            rows[i][j] = c
        self._init(space=space, degree=degree, sparse_rows=tuple(rows), _matrix=None, _scaled_rows=None)

    def entries(self, di: int = 0, dj: int = 0) -> list:
        """Nonzero entries as (i, j, c) in row-major order, the indices shifted
        by (di, dj) for embedding into a larger form."""
        return [(i + di, j + dj, c) for i, row in enumerate(self.sparse_rows) for j, c in row.items()]

    @property
    def matrix(self) -> Matrix:
        """Dense view: matrix[i][j] = B(e_i, e_j)."""
        return self._view("_matrix", lambda: tuple(dense_vec(row, self.space.dim)
                                                   for row in self.sparse_rows))

    @property
    def scaled_rows(self) -> tuple[int, tuple[dict, ...]]:
        """(d, rows): ``sparse_rows`` times d as ints; see ``scaled_to_ints``."""
        return self._view("_scaled_rows", lambda: scaled_to_ints(self.sparse_rows))

    def covector(self, u) -> dict:
        """B(u, e_j) over j, as a sparse vector, for a sparse vector u."""
        out: dict = {}
        rows = self.sparse_rows
        for i, a in u.items():
            add_scaled(out, a, rows[i])
        return drop_zeros(out)

    def value(self, u: Sequence, v: Sequence) -> Fraction:
        return sum((c * v[j] for j, c in self.covector(sparse_vec(u)).items()), ZERO)

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
    for i, row in enumerate(form.sparse_rows):
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

    ``pairs[(i, j)]`` is the value on (e_i, e_j) as a sparse vector
    ``{k: c}``. Pairs and coefficients are kept in lexicographic order and
    no zero coefficient or empty value is ever stored, so a kernel that walks
    ``pairs`` touches only nonzero structure constants, in scan order. The
    map is immutable; ``pairs`` must not be mutated. ``table`` (dense) and
    ``scaled_pairs`` (integer) are views derived from ``pairs`` on first use.
    """

    __slots__ = ("left", "right", "target", "pairs", "_table", "_scaled_pairs")
    FIELDS = ("left", "right", "target", "pairs")

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

    def _set(self, left, right, target, entries) -> None:
        pairs: dict = {}
        for (i, j, k), c in _normalize(entries, (left.dim, right.dim, target.dim), "bilinear").items():
            pairs.setdefault((i, j), {})[k] = c
        self._init(left=left, right=right, target=target, pairs=pairs, _table=None, _scaled_pairs=None)

    @classmethod
    def zero(cls, left: SuperSpace, right: SuperSpace, target: SuperSpace) -> "GradedBilinearMap":
        return cls._build(left, right, target, ())

    @property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        """Dense view: table[i][j] is the value on (e_i, e_j). No kernel of
        the library reads it."""
        return self._view("_table", lambda: tuple(
            tuple(self.value(i, j) for j in range(self.right.dim)) for i in range(self.left.dim)))

    @property
    def scaled_pairs(self) -> tuple[int, dict]:
        """(d, pairs): ``pairs`` times d with int coefficients, d the lcm of
        their denominators (see ``scaled_to_ints``)."""
        def build():
            d, values = scaled_to_ints(self.pairs.values())
            return d, dict(zip(self.pairs, values))
        return self._view("_scaled_pairs", build)

    def value(self, i: int, j: int) -> Vector:
        return dense_vec(self.pairs.get((i, j), EMPTY), self.target.dim)

    def right_sparse(self, i: int, v) -> dict:
        """Value on (e_i, v) for a sparse vector v of the right space."""
        out: dict = {}
        get = self.pairs.get
        for j, c in v.items():
            w = get((i, j))
            if w:
                add_scaled(out, c, w)
        return drop_zeros(out)

    def value_vectors(self, u: Sequence, v: Sequence) -> Vector:
        out: dict = {}
        sv = sparse_vec(v)
        for i, a in enumerate(u):
            if a:
                add_scaled(out, a, self.right_sparse(i, sv))
        return dense_vec(drop_zeros(out), self.target.dim)

    def entries(self, di: int = 0, dj: int = 0, dk: int = 0) -> list:
        """Nonzero coefficients as (i, j, k, c) in lexicographic order, the
        indices shifted by (di, dj, dk) for embedding into a larger map."""
        return [(i + di, j + dj, k + dk, c) for (i, j), v in self.pairs.items()
                for k, c in v.items()]

    def is_zero(self) -> bool:
        return not self.pairs

    def check_even(self, name: str = "bilinear-even", what: str = "value") -> Violation | None:
        """As an even map, the value on (e_i, e_j) lies in the (p_i + p_j) block."""
        pl, pr, pt = self.left.parities, self.right.parities, self.target.parities
        for (i, j), v in self.pairs.items():
            want = (pl[i] + pr[j]) % 2
            for k, c in v.items():
                if pt[k] != want:
                    return Violation(name, (i, j, k), c, f"{what} leaves its parity block")
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
        return Violation(name, (i, j), dense_vec({k: Fraction(c, d) for k, c in res.items()}, dim))
    return None
