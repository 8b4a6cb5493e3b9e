"""Lie superalgebra structures and their verification predicates.

Structure constants are stored densely for every ordered pair of basis
indices; the super skew relation between (i,j) and (j,i) is validated, never
assumed. Constructors reject anything failing grading, super skew-symmetry or
the Jacobi super identity, and every predicate returns its first witness on
failure: verification is part of the user-facing surface.

Checks run on basis tuples only; bilinearity extends them to arbitrary
vectors, so basis exhaustiveness is completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .errors import ConditionViolated, ValidationError, Violation
from .linalg import Matrix, Vector, ZERO
from .spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    apply_p_delta,
    check_form_degree,
    dual_space,
    supercommutator,
)


class SuperBracket(GradedBilinearMap):
    """Bracket table on a super-space: table[i][j] = coordinates of [e_i, e_j].

    An even bilinear map of the space into itself. Its axioms are the map's
    own checks under their bracket names: check_even("grading", "bracket")
    and check_super_skew("super-skew").
    """

    def __init__(self, space: SuperSpace, table):
        super().__init__(space, space, space, table)

    @property
    def space(self) -> SuperSpace:
        return self.target

    @classmethod
    def zero(cls, space: SuperSpace) -> "SuperBracket":
        return cls(space, GradedBilinearMap.zero(space, space, space).table)

    @classmethod
    def from_entries(cls, space: SuperSpace, entries) -> "SuperBracket":
        """entries: iterable of structure constants (i, j, k, c) meaning
        [e_i, e_j] has coefficient c on e_k. Both (i,j) and (j,i) rows are
        expected in the input; nothing is symmetrised."""
        return cls(space, GradedBilinearMap.from_entries(space, space, space, entries).table)

    def ad_matrix(self, i: int) -> Matrix:
        """Matrix of ad(e_i): column j is [e_i, e_j]."""
        return linalg.transpose(self.table[i])

    def ad_vector_matrix(self, w: Sequence) -> Matrix:
        """Matrix of ad(w) for a coordinate vector w."""
        n = self.space.dim
        return linalg.transpose(tuple(self.left_vector(w, j) for j in range(n)))


def cyclic_residual(parities: Sequence[int], i: int, j: int, k: int, piece) -> Vector:
    """Super-cyclic sum of (-1)^{|x||z|} piece(x, y, z) over the shifts of (i, j, k).

    Every cyclic identity of the construction has this shape: Jacobi with
    piece [x,[y,z]], and the cocycle conditions with their own pieces.
    """
    total = None
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        term = piece(x, y, z)
        if parities[x] * parities[z]:
            term = linalg.vec_scale(-1, term)
        total = term if total is None else linalg.vec_add(total, term)
    return total


def check_jacobi(bracket: SuperBracket) -> Violation | None:
    """First violating triple of the Jacobi super identity, or None.

    Once super skew-symmetry holds, the cyclic sum for a permuted triple is a
    sign multiple of the sum for the sorted one, so scanning i <= j <= k is
    exhaustive.
    """
    n = bracket.space.dim
    par = bracket.space.parities

    def piece(x, y, z):  # [e_x, [e_y, e_z]]
        return bracket.right_vector(x, bracket.table[y][z])

    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                res = cyclic_residual(par, i, j, k, piece)
                if not linalg.vec_is_zero(res):
                    return Violation("jacobi", (i, j, k), res)
    return None


@dataclass(frozen=True)
class LieSuperAlgebra:
    bracket: SuperBracket

    def __post_init__(self):
        for check in (lambda: self.bracket.check_even("grading", "bracket"),
                      lambda: self.bracket.check_super_skew("super-skew"),
                      lambda: check_jacobi(self.bracket)):
            v = check()
            if v is not None:
                raise ValidationError(v)

    @property
    def space(self) -> SuperSpace:
        return self.bracket.space

    @property
    def dim(self) -> int:
        return self.bracket.space.dim

    @classmethod
    def abelian(cls, space: SuperSpace) -> "LieSuperAlgebra":
        return cls(SuperBracket.zero(space))


def check_invariance(form: GradedBilinearForm, bracket: SuperBracket) -> Violation | None:
    """B([x,y],z) = B(x,[y,z]) on all basis triples; witness on failure."""
    if form.space.basis != bracket.space.basis:
        raise ValueError("form and bracket live on different spaces")
    n = form.space.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum((c * form.matrix[m][k] for m, c in enumerate(bracket.table[i][j]) if c), ZERO)
                rhs = sum((c * form.matrix[i][m] for m, c in enumerate(bracket.table[j][k]) if c), ZERO)
                if lhs != rhs:
                    return Violation("invariance", (i, j, k), lhs - rhs)
    return None


@dataclass(frozen=True)
class QuadraticLieSuperAlgebra:
    """Lie superalgebra with an invariant metric, homogeneous of degree delta."""

    algebra: LieSuperAlgebra
    metric: GradedBilinearForm

    def __post_init__(self):
        if self.metric.space.basis != self.algebra.space.basis:
            raise ValidationError(Violation("metric-space", (), None, "metric on wrong space"))
        realised = check_form_degree(self.metric)  # raises NotHomogeneous on mixed patterns
        if realised != self.metric.degree:
            raise ValidationError(Violation("metric-degree", (), realised,
                                            f"declared degree {self.metric.degree}"))
        v = self.metric.check_supersymmetry()
        if v is not None:
            raise ValidationError(v)
        v = check_invariance(self.metric, self.algebra.bracket)
        if v is not None:
            raise ValidationError(v)
        if not self.metric.is_non_degenerate():
            raise ValidationError(Violation("non-degenerate", (), self.metric.rank(),
                                            f"metric rank below dim {self.space.dim}"))

    @property
    def space(self) -> SuperSpace:
        return self.algebra.space

    @property
    def bracket(self) -> SuperBracket:
        return self.algebra.bracket

    @property
    def delta(self) -> int:
        return self.metric.degree

    @property
    def dim(self) -> int:
        return self.algebra.dim


def is_derivation(d: GradedLinearMap, bracket: SuperBracket) -> bool:
    """Leibniz rule D[x,y] = [Dx,y] + (-1)^{|D||x|}[x,Dy] on all basis pairs."""
    if d.source.basis != bracket.space.basis or d.target.basis != bracket.space.basis:
        raise ValueError("derivation candidate must map the algebra to itself")
    n = bracket.space.dim
    par = bracket.space.parities
    for i in range(n):
        di = d.column(i)
        for j in range(n):
            lhs = d.apply(bracket.table[i][j])
            rhs = bracket.left_vector(di, j)
            sign = -1 if (d.degree * par[i]) % 2 else 1
            rhs = linalg.vec_add(rhs, linalg.vec_scale(sign, bracket.right_vector(i, d.column(j))))
            if lhs != rhs:
                return False
    return True


def is_metric_skew(d: GradedLinearMap, form: GradedBilinearForm) -> bool:
    """B(Dx,y) = -(-1)^{|x||D|} B(x,Dy) on all basis pairs."""
    if d.source.basis != form.space.basis:
        raise ValueError("map and form live on different spaces")
    n = form.space.dim
    par = form.space.parities
    for i in range(n):
        di = d.column(i)
        for j in range(n):
            lhs = form.value(di, linalg.unit_vec(n, j))
            sign = -1 if (par[i] * d.degree) % 2 else 1
            rhs = -sign * form.value(linalg.unit_vec(n, i), d.column(j))
            if lhs != rhs:
                return False
    return True


def b_flat(form: GradedBilinearForm) -> GradedLinearMap:
    """Musical map g -> g*, x -> B(x, .); degree |B|, bijective iff B non-degenerate."""
    return GradedLinearMap(form.space, dual_space(form.space), form.degree,
                           linalg.transpose(form.matrix))


@dataclass(frozen=True)
class Representation:
    """Action of an algebra on a module space; action[i] realises basis vector i."""

    algebra: LieSuperAlgebra
    module_space: SuperSpace
    action: tuple[GradedLinearMap, ...]

    def __post_init__(self):
        if len(self.action) != self.algebra.dim:
            raise ValueError("one action map per algebra basis vector required")
        for i, m in enumerate(self.action):
            if m.degree != self.algebra.space.parity(i):
                raise ValueError(f"action of basis vector {i} has wrong degree")
            if m.source.basis != self.module_space.basis or m.target.basis != self.module_space.basis:
                raise ValueError("action maps must be endomorphisms of the module space")

    def act_vector(self, w: Sequence) -> Matrix:
        n = self.module_space.dim
        out = linalg.zero_mat(n, n)
        for i, c in enumerate(w):
            if c:
                out = linalg.mat_add(out, linalg.mat_scale(c, self.action[i].matrix))
        return out

    def check_bracket_law(self) -> Violation | None:
        """action([x,y]) = action(x)action(y) - (-1)^{|x||y|}action(y)action(x)."""
        par = self.algebra.space.parities
        for i in range(self.algebra.dim):
            for j in range(self.algebra.dim):
                lhs = self.act_vector(self.algebra.bracket.table[i][j])
                ab = linalg.mat_mul(self.action[i].matrix, self.action[j].matrix)
                ba = linalg.mat_mul(self.action[j].matrix, self.action[i].matrix)
                sign = -1 if par[i] * par[j] else 1
                rhs = linalg.mat_sub(ab, linalg.mat_scale(sign, ba))
                if lhs != rhs:
                    return Violation("representation", (i, j),
                                     linalg.mat_sub(lhs, rhs))
        return None


def coadjoint(g: LieSuperAlgebra) -> Representation:
    """ad*(x)(f) = -(-1)^{|x||f|} f o ad(x) on the dual space."""
    return delta_coadjoint(g, 0)


def delta_coadjoint(g: LieSuperAlgebra, delta: int) -> Representation:
    """Action on P_delta(g)*: ad*_d(x)(P_d(f))(P_d(y)) = -(-1)^{(|f|+d)|x|} f([x,y])."""
    n = g.dim
    par = g.space.parities
    module = dual_space(apply_p_delta(delta, g.space))
    maps = []
    for i in range(n):
        rows = [[ZERO] * n for _ in range(n)]
        for j in range(n):
            sign = -1 if ((par[j] + delta) * par[i]) % 2 else 1
            for k in range(n):
                c = g.bracket.table[i][k][j]
                if c:
                    rows[k][j] = -sign * c
        maps.append(GradedLinearMap(module, module, par[i], tuple(tuple(r) for r in rows)))
    return Representation(g, module, tuple(maps))


def curvature_failures(a: LieSuperAlgebra, h_bracket: SuperBracket,
                       theta: Sequence[GradedLinearMap], lam: GradedBilinearMap):
    """Pairs (i, j), in scan order, where the curvature condition
    [theta(x_i), theta(x_j)] - theta([x_i, x_j]_a) = ad_h(lam(x_i, x_j)) fails."""
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = supercommutator(theta[i], theta[j]).matrix
            for m, c in enumerate(a.bracket.table[i][j]):
                if c:
                    lhs = linalg.mat_sub(lhs, linalg.mat_scale(c, theta[m].matrix))
            if lhs != h_bracket.ad_vector_matrix(lam.value(i, j)):
                yield i, j


def semidirect_product(a: LieSuperAlgebra, h: LieSuperAlgebra,
                       theta: Sequence[GradedLinearMap],
                       lam: GradedBilinearMap) -> LieSuperAlgebra:
    """Generalized semi-direct product of h by a via (theta, lam).

    Preconditions checked on all basis tuples before the bracket is built:
    each theta(x) is a derivation of h, [theta(x),theta(y)] - theta([x,y]_a)
    = ad_h(lam(x,y)), and the cyclic compatibility of theta with lam.
    Raises ConditionViolated with the witnessing equation and indices.
    """
    na, nh = a.dim, h.dim
    par_a = a.space.parities
    if len(theta) != na:
        raise ValueError("one theta map per a-basis vector required")
    for i, t in enumerate(theta):
        if t.source.basis != h.space.basis or t.target.basis != h.space.basis:
            raise ValueError("theta maps must act on h")
        if t.degree != par_a[i]:
            raise ConditionViolated(Violation("theta-degree", (i,), t.degree))
        if not is_derivation(t, h.bracket):
            raise ConditionViolated(Violation("theta-derivation", (i,)))
    if lam.left.basis != a.space.basis or lam.right.basis != a.space.basis or lam.target.basis != h.space.basis:
        raise ValueError("lambda must be a bilinear map a x a -> h")
    for check, name in ((lam.check_even, "lambda-even"), (lam.check_super_skew, "lambda-skew")):
        v = check(name)
        if v is not None:
            raise ConditionViolated(v)

    # [theta(x),theta(y)] - theta([x,y]_a) must be the inner derivation of lam(x,y)
    for ij in curvature_failures(a, h.bracket, theta, lam):
        raise ConditionViolated(Violation("semidirect-1", ij))

    # Cyclic sum of theta(x)(lam(y,z)) + lam(x, [y,z]_a)
    def piece(x, y, z):
        return linalg.vec_add(theta[x].apply(lam.value(y, z)),
                              lam.right_vector(x, a.bracket.table[y][z]))

    for i in range(na):
        for j in range(na):
            for k in range(na):
                total = cyclic_residual(par_a, i, j, k, piece)
                if not linalg.vec_is_zero(total):
                    raise ConditionViolated(Violation("semidirect-2", (i, j, k), total))

    space = SuperSpace(a.space.basis + h.space.basis)
    n = na + nh

    def embed_a(v):
        return tuple(v) + linalg.zero_vec(nh)

    def embed_h(v):
        return linalg.zero_vec(na) + tuple(v)

    table = [[linalg.zero_vec(n) for _ in range(n)] for _ in range(n)]
    for i in range(na):
        for j in range(na):
            table[i][j] = linalg.vec_add(embed_a(a.bracket.table[i][j]), embed_h(lam.value(i, j)))
    for i in range(na):
        for m in range(nh):
            img = embed_h(theta[i].column(m))
            table[i][na + m] = img
            sign = -1 if par_a[i] * h.space.parity(m) else 1
            table[na + m][i] = linalg.vec_scale(-sign, img)
    for m in range(nh):
        for l in range(nh):
            table[na + m][na + l] = embed_h(h.bracket.table[m][l])

    return LieSuperAlgebra(SuperBracket(space, tuple(tuple(row) for row in table)))
