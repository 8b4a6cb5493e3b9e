"""Z2-graded vector spaces, homogeneous maps, bilinear forms and the change
of parity.

A super-space is an ordered homogeneous basis: a tuple of (label, parity)
pairs with parity in {0, 1}. Basis order is data (extension outputs keep the
a / h / dual block order); ``SuperSpace.normalized`` produces the canonical
even-first ordering when one is wanted. Zero-dimensional spaces are legal
everywhere. All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


def _check_parity(p) -> int:
    if p not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {p!r}")
    return p


@dataclass(frozen=True)
class SuperSpace:
    basis: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple((str(l), _check_parity(p)) for l, p in self.basis))
        labels = [l for l, _ in self.basis]
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        for l in labels:
            # labels are format atoms: no whitespace, and '#' starts comments
            if not l or "#" in l or any(ch.isspace() for ch in l):
                raise ValueError(f"bad basis label {l!r}")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.basis)

    @property
    def parities(self) -> tuple[int, ...]:
        return tuple(p for _, p in self.basis)

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

    def normalized(self) -> "SuperSpace":
        """Canonical order: even basis vectors first, stable within blocks."""
        return SuperSpace(tuple(sorted(self.basis, key=lambda lp: lp[1])))

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


@dataclass(frozen=True)
class GradedLinearMap:
    """Homogeneous linear map; matrix columns are images of source basis vectors."""

    source: SuperSpace
    target: SuperSpace
    degree: int
    matrix: Matrix

    def __post_init__(self):
        _check_parity(self.degree)
        object.__setattr__(self, "matrix", linalg.mat(self.matrix))
        if len(self.matrix) != self.target.dim or any(len(r) != self.source.dim for r in self.matrix):
            raise ValueError("matrix shape does not match source/target dimensions")
        for r in range(self.target.dim):
            for c in range(self.source.dim):
                if self.matrix[r][c] != 0 and self.target.parity(r) != (self.source.parity(c) + self.degree) % 2:
                    raise NotHomogeneous(
                        f"entry ({r},{c}) breaks homogeneity of a degree-{self.degree} map"
                    )

    @classmethod
    def zero(cls, source: SuperSpace, target: SuperSpace, degree: int) -> "GradedLinearMap":
        return cls(source, target, degree, linalg.zero_mat(target.dim, source.dim))

    @classmethod
    def identity(cls, space: SuperSpace) -> "GradedLinearMap":
        return cls(space, space, EVEN, linalg.identity_mat(space.dim))

    def column(self, j: int) -> Vector:
        return tuple(self.matrix[r][j] for r in range(self.target.dim))

    def apply(self, v: Sequence) -> Vector:
        return linalg.mat_vec(self.matrix, v)

    @cached_property
    def sparse_columns(self) -> tuple[dict, ...]:
        """Column j as a sparse vector: the image of the j-th source basis vector."""
        cols = [{} for _ in range(self.source.dim)]
        for r, row in enumerate(self.matrix):
            for c, x in enumerate(row):
                if x:
                    cols[c][r] = x
        return tuple(cols)

    def apply_sparse(self, v) -> dict:
        out: dict = {}
        cols = self.sparse_columns
        for j, c in v.items():
            add_scaled(out, c, cols[j])
        return drop_zeros(out)

    def compose(self, other: "GradedLinearMap") -> "GradedLinearMap":
        """self after other."""
        if other.target.basis != self.source.basis:
            raise ValueError("composition spaces do not match")
        return GradedLinearMap(
            other.source, self.target, (self.degree + other.degree) % 2,
            linalg.mat_mul(self.matrix, other.matrix),
        )

    def add(self, other: "GradedLinearMap") -> "GradedLinearMap":
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            raise ValueError("can only add maps of identical type")
        return GradedLinearMap(self.source, self.target, self.degree,
                               linalg.mat_add(self.matrix, other.matrix))

    def scale(self, c) -> "GradedLinearMap":
        return GradedLinearMap(self.source, self.target, self.degree,
                               linalg.mat_scale(c, self.matrix))

    def is_zero(self) -> bool:
        return linalg.mat_is_zero(self.matrix)

    def rank(self) -> int:
        return linalg.rank(self.matrix, self.source.dim)

    def is_bijective(self) -> bool:
        return self.source.dim == self.target.dim and self.rank() == self.source.dim


def parity_shift_map(t: GradedLinearMap) -> GradedLinearMap:
    """P(T): source parities flipped, same entries, degree raised; P(T)(P(v)) = T(v)."""
    return GradedLinearMap(parity_shift(t.source), t.target, (t.degree + 1) % 2, t.matrix)


@dataclass(frozen=True)
class GradedBilinearForm:
    """Bilinear form with a declared degree; matrix[i][j] = B(e_i, e_j).

    The constructor checks shapes only: whether the matrix actually realises
    the declared degree pattern is a checkable property (check_form_degree),
    so invalid forms can be represented and flagged.
    """

    space: SuperSpace
    degree: int
    matrix: Matrix

    def __post_init__(self):
        _check_parity(self.degree)
        object.__setattr__(self, "matrix", linalg.mat(self.matrix))
        n = self.space.dim
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise ValueError("form matrix must be dim x dim")

    def entry(self, i: int, j: int) -> Fraction:
        return self.matrix[i][j]

    @cached_property
    def sparse_rows(self) -> tuple[dict, ...]:
        """Row i as a sparse vector: j -> B(e_i, e_j)."""
        return tuple(sparse_vec(row) for row in self.matrix)

    @cached_property
    def scaled_rows(self) -> tuple[int, tuple[dict, ...]]:
        """(d, rows): ``sparse_rows`` times d as ints; see ``scaled_to_ints``."""
        return scaled_to_ints(self.sparse_rows)

    def value(self, u: Sequence, v: Sequence) -> Fraction:
        nzv = [(j, b) for j, b in enumerate(v) if b]
        total = ZERO
        for i, a in enumerate(u):
            if a:
                row = self.matrix[i]
                total += a * sum((row[j] * b for j, b in nzv), ZERO)
        return total

    def rank(self) -> int:
        return linalg.rank(self.matrix, self.space.dim)

    def is_non_degenerate(self) -> bool:
        return self.rank() == self.space.dim

    def check_supersymmetry(self) -> Violation | None:
        """B(x,y) = (-1)^{|x||y|} B(y,x) entrywise; pairs where both entries
        vanish are skipped, so the first failing (i, j) is in row-major order."""
        par = self.space.parities
        rows = self.sparse_rows
        nonzero = {(i, j) for i, row in enumerate(rows) for j in row}
        for i, j in sorted(nonzero | {(j, i) for i, j in nonzero}):
            sign = -1 if par[i] * par[j] else 1
            res = rows[i].get(j, ZERO) - sign * rows[j].get(i, ZERO)
            if res:
                return Violation("super-symmetry", (i, j), res)
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


class GradedBilinearMap:
    """Even bilinear map left x right -> target, stored by its nonzeros.

    ``pairs[(i, j)]`` is the value on (e_i, e_j) as a sparse vector
    ``{k: c}``. Pairs and coefficients are kept in lexicographic order and
    no zero coefficient or empty value is ever stored, so a kernel that walks
    ``pairs`` touches only nonzero structure constants, in scan order. The
    map is immutable; ``pairs`` must not be mutated. ``table`` (dense) and
    ``scaled_pairs`` (integer) are views derived from ``pairs`` on first use;
    neither takes part in equality, hashing or ``repr``.
    """

    __slots__ = ("left", "right", "target", "pairs", "_table", "_scaled_pairs")

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

    @classmethod
    def _build(cls, left, right, target, entries):
        self = object.__new__(cls)
        self._set(left, right, target, entries)
        return self

    def _set(self, left, right, target, entries) -> None:
        """The one normalisation point: exact coefficients, indices in range, no zeros."""
        nl, nr, nt = left.dim, right.dim, target.dim
        acc: dict = {}
        for i, j, k, c in entries:
            if not (0 <= i < nl and 0 <= j < nr and 0 <= k < nt):
                raise ValueError(f"bilinear entry ({i},{j},{k}) out of range")
            c = linalg.scalar(c)
            if c:
                v = acc.setdefault((i, j), {})
                v[k] = v[k] + c if k in v else c
        pairs = {}
        for key in sorted(acc):
            v = {k: c for k, c in sorted(acc[key].items()) if c}
            if v:
                pairs[key] = v
        for name, value in (("left", left), ("right", right), ("target", target),
                            ("pairs", pairs), ("_table", None), ("_scaled_pairs", None)):
            object.__setattr__(self, name, value)

    @classmethod
    def zero(cls, left: SuperSpace, right: SuperSpace, target: SuperSpace) -> "GradedBilinearMap":
        return cls._build(left, right, target, ())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.left, self.right, self.target, self.pairs) == \
            (other.left, other.right, other.target, other.pairs)

    def __hash__(self):
        return hash((self.left, self.right, self.target, tuple(self.entries())))

    def __repr__(self):
        return (f"{type(self).__name__}({self.left!r}, {self.right!r}, {self.target!r}, "
                f"pairs={self.pairs!r})")

    @property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        """Dense view: table[i][j] is the value on (e_i, e_j). Built on first
        use and cached; no kernel of the library reads it."""
        if self._table is None:
            nt = self.target.dim
            zero = linalg.zero_vec(nt)
            pairs = self.pairs
            object.__setattr__(self, "_table", tuple(
                tuple(dense_vec(pairs[(i, j)], nt) if (i, j) in pairs else zero
                      for j in range(self.right.dim))
                for i in range(self.left.dim)))
        return self._table

    @property
    def scaled_pairs(self) -> tuple[int, dict]:
        """(d, pairs): ``pairs`` times d with int coefficients, d the lcm of
        their denominators (see ``scaled_to_ints``). Built on first use and
        cached."""
        if self._scaled_pairs is None:
            d, values = scaled_to_ints(self.pairs.values())
            object.__setattr__(self, "_scaled_pairs", (d, dict(zip(self.pairs, values))))
        return self._scaled_pairs

    def value(self, i: int, j: int) -> Vector:
        return dense_vec(self.pairs.get((i, j), EMPTY), self.target.dim)

    def coefficient(self, i: int, j: int, k: int) -> Fraction:
        return self.pairs.get((i, j), EMPTY).get(k, ZERO)

    def left_sparse(self, u, j: int) -> dict:
        """Value on (u, e_j) for a sparse vector u of the left space."""
        out: dict = {}
        get = self.pairs.get
        for i, c in u.items():
            w = get((i, j))
            if w:
                add_scaled(out, c, w)
        return drop_zeros(out)

    def right_sparse(self, i: int, v) -> dict:
        """Value on (e_i, v) for a sparse vector v of the right space."""
        out: dict = {}
        get = self.pairs.get
        for j, c in v.items():
            w = get((i, j))
            if w:
                add_scaled(out, c, w)
        return drop_zeros(out)

    def right_vector(self, i: int, v: Sequence) -> Vector:
        return dense_vec(self.right_sparse(i, sparse_vec(v)), self.target.dim)

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
        """value(e_j, e_i) = -(-1)^{p_i p_j} value(e_i, e_j), first failing (i, j)
        in row-major order; pairs where both values vanish are skipped."""
        if self.left.basis != self.right.basis:
            raise ValueError("super skew-symmetry needs equal source spaces")
        par = self.left.parities
        pairs = self.pairs
        for i, j in sorted(set(pairs) | {(j, i) for i, j in pairs}):
            res = dict(pairs.get((j, i), EMPTY))
            add_scaled(res, -1 if par[i] * par[j] else 1, pairs.get((i, j), EMPTY))
            if any(res.values()):
                return Violation(name, (i, j), dense_vec(res, self.target.dim))
        return None
