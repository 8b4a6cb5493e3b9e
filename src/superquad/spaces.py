"""Z2-graded vector spaces, homogeneous maps, bilinear forms and the change
of parity.

A super-space is an ordered homogeneous basis: a tuple of (label, parity)
pairs with parity in {0, 1}. Basis order is data (extension outputs keep the
a / h / dual block order); ``SuperSpace.normalized`` produces the canonical
even-first ordering when one is wanted. Zero-dimensional spaces are legal
everywhere. All values are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import NotHomogeneous, Violation
from .linalg import Matrix, Vector, ZERO

EVEN = 0
ODD = 1


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


def supercommutator(s: GradedLinearMap, t: GradedLinearMap) -> GradedLinearMap:
    """[S,T] = S T - (-1)^{|S||T|} T S."""
    st = s.compose(t)
    ts = t.compose(s)
    sign = -1 if (s.degree * t.degree) % 2 else 1
    return GradedLinearMap(st.source, st.target, st.degree,
                           linalg.mat_sub(st.matrix, linalg.mat_scale(sign, ts.matrix)))


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

    def value(self, u: Sequence, v: Sequence) -> Fraction:
        total = ZERO
        for i, a in enumerate(u):
            if a:
                row = self.matrix[i]
                total += a * sum((row[j] * v[j] for j in range(len(v)) if v[j]), ZERO)
        return total

    def rank(self) -> int:
        return linalg.rank(self.matrix, self.space.dim)

    def is_non_degenerate(self) -> bool:
        return self.rank() == self.space.dim

    def check_supersymmetry(self) -> Violation | None:
        """B(x,y) = (-1)^{|x||y|} B(y,x) entrywise."""
        par = self.space.parities
        for i in range(self.space.dim):
            for j in range(self.space.dim):
                sign = -1 if par[i] * par[j] else 1
                if self.matrix[i][j] != sign * self.matrix[j][i]:
                    return Violation("super-symmetry", (i, j),
                                     self.matrix[i][j] - sign * self.matrix[j][i])
        return None


def check_form_degree(form: GradedBilinearForm) -> int:
    """Degree realised by the matrix pattern: 0 if even, 1 if odd.

    A zero matrix fits both patterns and reports the declared degree. A matrix
    with nonzero entries in both the equal-parity and mixed-parity blocks is
    not homogeneous and raises.
    """
    par = form.space.parities
    even_bad = odd_bad = None
    for i in range(form.space.dim):
        for j in range(form.space.dim):
            if form.matrix[i][j] == 0:
                continue
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


@dataclass(frozen=True)
class GradedBilinearMap:
    """Even bilinear map left x right -> target; table[i][j] is a target vector."""

    left: SuperSpace
    right: SuperSpace
    target: SuperSpace
    table: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "table",
            tuple(tuple(linalg.vec(v) for v in row) for row in self.table),
        )
        if len(self.table) != self.left.dim or any(len(row) != self.right.dim for row in self.table):
            raise ValueError("bilinear table shape mismatch")
        for row in self.table:
            for v in row:
                if len(v) != self.target.dim:
                    raise ValueError("bilinear table value dimension mismatch")

    @classmethod
    def zero(cls, left: SuperSpace, right: SuperSpace, target: SuperSpace) -> "GradedBilinearMap":
        return cls(left, right, target,
                   tuple(tuple(linalg.zero_vec(target.dim) for _ in range(right.dim))
                         for _ in range(left.dim)))

    @classmethod
    def from_entries(cls, left, right, target, entries) -> "GradedBilinearMap":
        """entries: iterable of (i, j, k, coefficient)."""
        table = [[list(linalg.zero_vec(target.dim)) for _ in range(right.dim)]
                 for _ in range(left.dim)]
        for i, j, k, c in entries:
            table[i][j][k] += Fraction(c)
        return cls(left, right, target, tuple(tuple(tuple(v) for v in row) for row in table))

    def value(self, i: int, j: int) -> Vector:
        return self.table[i][j]

    def left_vector(self, u: Sequence, j: int) -> Vector:
        out = linalg.zero_vec(self.target.dim)
        for i, c in enumerate(u):
            if c:
                out = linalg.vec_add(out, linalg.vec_scale(c, self.table[i][j]))
        return out

    def right_vector(self, i: int, v: Sequence) -> Vector:
        out = linalg.zero_vec(self.target.dim)
        for j, c in enumerate(v):
            if c:
                out = linalg.vec_add(out, linalg.vec_scale(c, self.table[i][j]))
        return out

    def value_vectors(self, u: Sequence, v: Sequence) -> Vector:
        out = linalg.zero_vec(self.target.dim)
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if b:
                    out = linalg.vec_add(out, linalg.vec_scale(a * b, self.table[i][j]))
        return out

    def entries(self):
        """Sorted nonzero coefficients as (i, j, k, c)."""
        return [(i, j, k, c) for i, row in enumerate(self.table) for j, v in enumerate(row)
                for k, c in enumerate(v) if c]

    def is_zero(self) -> bool:
        return all(linalg.vec_is_zero(v) for row in self.table for v in row)

    def check_even(self, name: str = "bilinear-even", what: str = "value") -> Violation | None:
        """As an even map, the value on (e_i, e_j) lies in the (p_i + p_j) block."""
        pl, pr, pt = self.left.parities, self.right.parities, self.target.parities
        for i in range(self.left.dim):
            for j in range(self.right.dim):
                want = (pl[i] + pr[j]) % 2
                for k, c in enumerate(self.table[i][j]):
                    if c != 0 and pt[k] != want:
                        return Violation(name, (i, j, k), c, f"{what} leaves its parity block")
        return None

    def check_super_skew(self, name: str = "bilinear-skew") -> Violation | None:
        if self.left.basis != self.right.basis:
            raise ValueError("super skew-symmetry needs equal source spaces")
        par = self.left.parities
        for i in range(self.left.dim):
            for j in range(self.right.dim):
                sign = -1 if par[i] * par[j] else 1
                expect = linalg.vec_scale(-sign, self.table[i][j])
                if self.table[j][i] != expect:
                    return Violation(name, (i, j), linalg.vec_sub(self.table[j][i], expect))
        return None
