"""Contexts of generalized double extension and the extension constructor.

A delta-context carries (h, [.,.]_h, B_h, rho, lambda, omega) over an
auxiliary algebra a. ``validate_context`` machine-checks the defining axioms
exhaustively on basis tuples, and ``double_extend`` returns the quadratic Lie
superalgebra of degree delta on a + h + P_delta(a)* that it certifies. The
derived identities for chi and Phi that the axioms imply are consequences,
not conditions, so the library does not check them; the test suite does, on
every valid context it generates.

Each table is assembled in one place, on the context's ``space``: the
bracket [,]_a + lambda + omega, Theta = rho + ad*_delta + chi with its super
skew partners, and [,]_h + Phi by ``extension_bracket``, and the metric by
``extension_metric``. The context axioms hold exactly when that bracket is
a Lie superalgebra bracket with the metric invariant, so
``validate_context``, behind a gate on the pieces, proves each once, as a
block of the basis (a, h, dual) in one Jacobi and one invariance scan of
the assembled tables:

| scan | block | component | axiom |
|---|---|---|---|
| Jacobi | (a, a, h) | h | deh1 |
| Jacobi | (a, a, a) | h | deh2 |
| Jacobi | (a, a, a) | dual | deh3 |
| invariance | (a, a, a) | | super-cyclic |

The other blocks follow. chi, Phi and ad*_delta are derived so that B is
invariant on every triple with a vector outside a; then B(J(x, y, z), w),
J the Jacobi sum, is super alternating, so the dual component of (a, a, h)
is deh2, of (a, h, h) deh1 and of (h, h, h) rho's derivation rule. The a
component of (a, a, a) is a's Jacobi identity, the h components with two
or three h vectors are rho's derivation rule and h's Jacobi identity, the
blocks with a dual vector are ad*_delta's representation rule and the dual
block's centrality, and Phi is super skew exactly when rho is skew for B_h;
the gate checks both rules on rho, and grading and super skew hold by
construction once lambda and omega pass it. When no axiom fails the scanned
tables are the extension, kept as the context's ``extension``, so
``double_extend`` scans nothing again.

The axioms and the derivation of chi and Phi run on the integer views of the
maps (``scaled_pairs``, ``scaled_rows``, ``scaled_columns``): each identity is
multiplied by one positive constant, so it holds exactly when the rational
one does, and a residual or a derived coefficient is divided back once; no
check or derivation here sums ``Fraction``s.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields

from .algebra import (
    LieSuperAlgebra,
    QuadraticLieSuperAlgebra,
    SuperBracket,
    _admit,
    check_invariance,
    check_jacobi,
    cyclic_failures,
    cyclic_violation,
    delta_coadjoint,
    invariance_failures,
    invariance_violation,
    is_derivation,
    is_metric_skew,
)
from .errors import InvalidContext, ValidationError, Violation
from .spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    _check_parity,
    add_scaled,
    common_scale,
    p_delta_dual,
    super_skew_violation,
)


@dataclass(frozen=True)
class DeltaContext:
    """Input data for the degree-delta double extension of h by a.

    rho[i] acts on h for the i-th a-basis vector; lam maps a x a into h and
    omega maps a x a into the dual block P_delta(a)*. The constructor checks
    shapes only; the axioms live in validate_context so that violating data
    can be represented, reported and tested.
    """

    delta: int
    a: LieSuperAlgebra
    h: QuadraticLieSuperAlgebra
    rho: tuple[GradedLinearMap, ...]
    lam: GradedBilinearMap
    omega: GradedBilinearMap

    def __post_init__(self):
        _check_parity(self.delta)
        if len(self.rho) != self.a.dim:
            raise ValueError("one rho map per a-basis vector required")
        for t in self.rho:
            if t.source.basis != self.h.space.basis or t.target.basis != self.h.space.basis:
                raise ValueError("rho maps must act on h")
        if self.lam.left.basis != self.a.space.basis or self.lam.right.basis != self.a.space.basis \
                or self.lam.target.basis != self.h.space.basis:
            raise ValueError("lambda must map a x a into h")
        dual = self.dual_block
        if self.omega.left.basis != self.a.space.basis or self.omega.right.basis != self.a.space.basis \
                or self.omega.target.basis != dual.basis:
            raise ValueError("omega must map a x a into the dual block")
        labels = self.a.space.labels + self.h.space.labels + dual.labels
        if len(set(labels)) != len(labels):
            raise ValueError("a, h and dual-block labels must be pairwise distinct")

    # The derived pieces below are cached in the instance's __dict__: they take
    # no part in equality or hashing, which compare the fields, nor in pickling
    # and copying (``__getstate__``), and are rebuilt on first use.
    @functools.cached_property
    def dual_block(self) -> SuperSpace:
        return p_delta_dual(self.a.space, self.delta)

    @functools.cached_property
    def space(self) -> SuperSpace:
        """a + h + P_delta(a)*, the extension's space, basis blocks in that order."""
        return SuperSpace(self.a.space.basis + self.h.space.basis + self.dual_block.basis)

    @functools.cached_property
    def chi(self) -> GradedBilinearMap:
        """``derive_chi`` of this context, derived once."""
        return derive_chi(self)

    @functools.cached_property
    def phi(self) -> GradedBilinearMap:
        """``derive_phi`` of this context, derived once; raises as it does."""
        return derive_phi(self)

    @functools.cached_property
    def ad_star(self) -> tuple[GradedLinearMap, ...]:
        """``delta_coadjoint`` of a: ad*_delta(x_i) on the dual block, one per x_i, derived once."""
        return delta_coadjoint(self.a, self.delta)

    @functools.cached_property
    def extension(self) -> QuadraticLieSuperAlgebra:
        """``double_extend`` of this context, built and certified once; raises as
        it does. ``validate_context`` sets it when the context passes, and
        ``decompose`` to the re-extension that its isometry onto g certifies."""
        return double_extend(self)

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def trivial(cls, delta: int, a: LieSuperAlgebra, h: QuadraticLieSuperAlgebra) -> "DeltaContext":
        dual = p_delta_dual(a.space, delta)
        zero_rho = tuple(
            GradedLinearMap.zero(h.space, h.space, a.space.parity(i)) for i in range(a.dim)
        )
        return cls(delta, a, h, zero_rho,
                   GradedBilinearMap.zero(a.space, a.space, h.space),
                   GradedBilinearMap.zero(a.space, a.space, dual))


def derive_chi(ctx: DeltaContext) -> GradedBilinearMap:
    """chi(x,u)(P_d(y)) = -(-1)^{|u||y|} B_h(lambda(x,y), u), valued in the dual block.

    Summed on the integer states of lambda and B_h, so each sum is d_l d_b
    times its coefficient; the sums are chi's integer entries over d_l d_b."""
    a_sp, h_sp, dual = ctx.a.space, ctx.h.space, ctx.dual_block
    pa, ph = a_sp.parities, h_sp.parities
    d_l, lam_pairs = ctx.lam.scaled_pairs
    d_b, bh_rows = ctx.h.metric.scaled_rows
    acc: dict = {}
    for (i, k), v in lam_pairs.items():
        for r, c in v.items():
            for m, b in bh_rows[r].items():
                key = (i, m, k)
                acc[key] = acc.get(key, 0) + (c * b if ph[m] * pa[k] else -c * b)
    return GradedBilinearMap.from_ints(a_sp, h_sp, dual, d_l * d_b, acc)


def derive_phi(ctx: DeltaContext) -> GradedBilinearMap:
    """Phi(u,v)(P_d(x)) = (-1)^{|x|(|u|+|v|)} B_h(rho(x)(u), v); checked super skew.

    Summed on the integer states of B_h and of the rho maps, which share one
    scale d_t, so each sum is d_t d_b times its coefficient. The super skew
    check runs on the sums, which are then Phi's integer entries."""
    a_sp, h_sp, dual = ctx.a.space, ctx.h.space, ctx.dual_block
    pa, ph = a_sp.parities, h_sp.parities
    d_b, bh_rows = ctx.h.metric.scaled_rows
    d_t, rho_cols = common_scale(t.scaled_columns for t in ctx.rho)
    scale = d_t * d_b
    pairs: dict = {}  # (m, l) -> {k: Phi(u_m, u_l)(P_d(x_k)) times scale}
    for k, cols in enumerate(rho_cols):
        for m, col in enumerate(cols):
            acc: dict = {}  # l -> B_h(rho(x_k)(u_m), u_l), times scale
            for r, c in col.items():
                add_scaled(acc, c, bh_rows[r])
            for l, c in acc.items():
                if c:
                    pairs.setdefault((m, l), {})[k] = -c if (pa[k] * (ph[m] + ph[l])) % 2 else c
    v = super_skew_violation("phi-skew", ph, pairs, scale, dual.dim)
    if v is not None:
        # rho not metric-skew would surface here; report as a context defect
        raise InvalidContext(v)
    return GradedBilinearMap.from_ints(h_sp, h_sp, dual, scale, {
        (m, l, k): c for (m, l), w in pairs.items() for k, c in w.items()})


def validate_context(ctx: DeltaContext) -> list[Violation]:
    """All context axioms, exhaustively on basis tuples; empty list means ok.

    The gate, whose failures are returned as they are: the metric degree,
    each rho map's degree, ``is_derivation`` and ``is_metric_skew``, lambda
    and omega even and super skew. Behind it the axioms are read off one
    ``cyclic_failures`` scan of the ``extension_bracket`` and one
    ``invariance_failures`` scan of the ``extension_metric``, each built
    once, with indices in the context's numbering, each list in row-major
    order:

    | scan, block: component | axiom | residual |
    |---|---|---|
    | Jacobi, (a, a, h): h | deh1 at (i, j) and (j, i) | none |
    | Jacobi, (a, a, a): h | deh2 at every ordering | the h slice |
    | Jacobi, (a, a, a): dual | deh3 at every ordering | the dual slice |
    | invariance, (a, a, a) | super-cyclic | the scan's |

    The other blocks follow (see the module docstring); a failure there
    while no axiom fails raises ``ValidationError`` with the first jacobi,
    else invariance, witness. An empty list leaves the certified tables as
    ``ctx.extension``, recorded ``("context", ctx)``, unless that is set
    already."""
    out: list[Violation] = []
    na, par = ctx.a.dim, ctx.a.space.parities

    if ctx.h.delta != ctx.delta:
        out.append(Violation("metric-degree", (), ctx.h.delta,
                             f"h metric degree must equal delta={ctx.delta}"))

    for i, t in enumerate(ctx.rho):
        if t.degree != par[i]:
            out.append(Violation("rho-degree", (i,), t.degree))
        if not is_derivation(t, ctx.h.bracket):
            out.append(Violation("rho-derivation", (i,)))
        if not is_metric_skew(t, ctx.h.metric):
            out.append(Violation("rho-skew", (i,)))

    out += [v for v in (ctx.lam.check_even("lambda-even"), ctx.lam.check_super_skew("lambda-skew"),
                        ctx.omega.check_even("omega-even"), ctx.omega.check_super_skew("omega-skew"))
            if v is not None]
    if out:
        return out  # the extension's tables assume well-formed pieces

    bracket, metric = extension_bracket(ctx), extension_metric(ctx)
    d, pairs = bracket.scaled_pairs
    nc, ext_par = na + ctx.h.dim, ctx.space.parities  # nc: the dual block's first index
    jacobi = cyclic_failures(ext_par, pairs)
    residual = functools.cache(lambda ijk: cyclic_violation(ext_par, pairs, ijk, d * d).residual)

    out += [Violation("deh1", ij) for ij in sorted(
        {p for i, j, k in jacobi if j < na <= k < nc and any(residual((i, j, k))[na:nc]) for p in ((i, j), (j, i))})]
    cubes = sorted({p for t in jacobi if t[2] < na for p in itertools.permutations(t)})
    for name, lo, hi in (("deh2", na, nc), ("deh3", nc, None)):
        out += [Violation(name, ijk, residual(ijk)[lo:hi]) for ijk in cubes if any(residual(ijk)[lo:hi])]
    invariance = invariance_failures(metric, bracket)
    for (i, j), first in sorted(invariance.items()):
        if i < na and j < na:
            out += [v for k in range(first, na)
                    if (v := invariance_violation("super-cyclic", metric, bracket, (i, j, k))).residual]

    if out:
        return out
    if jacobi or invariance:  # in a block no axiom names: the extension's own first witness
        raise ValidationError(check_jacobi(bracket) or check_invariance(metric, bracket))
    vars(ctx).setdefault("extension", _admit(("context", ctx), bracket, metric))
    return out


def central_extension(ctx: DeltaContext) -> LieSuperAlgebra:
    """h + dual block with [u + a, v + b]' = [u,v]_h + Phi(u,v), dual block central."""
    h_sp, dual = ctx.h.space, ctx.dual_block
    space = SuperSpace(h_sp.basis + dual.basis)
    return LieSuperAlgebra(SuperBracket.from_entries(
        space, ctx.h.bracket.entries() + ctx.phi.entries(0, 0, h_sp.dim)))


def extension_derivations(ctx: DeltaContext, ce_space: SuperSpace) -> tuple[GradedLinearMap, ...]:
    """Theta(x) = rho(x) + ad*_d(x) + chi(x, .) acting on h + dual block."""
    nh = ctx.h.dim
    entries = [t.entries() + s.entries(nh, nh) for t, s in zip(ctx.rho, ctx.ad_star)]
    for i, m, k, c in ctx.chi.entries():
        entries[i].append((nh + k, m, c))
    return tuple(GradedLinearMap.from_entries(ce_space, ce_space, ctx.a.space.parity(i), e)
                 for i, e in enumerate(entries))


def extension_metric(ctx: DeltaContext) -> GradedBilinearForm:
    """Degree-delta metric on ``ctx.space``: B_h on h, dual pairing elsewhere.

    B(P_d(a_i)*, a_j) = delta_ij and the (a, dual) entries are the
    super-symmetric partners (-1)^{|a_i|(1+delta)} delta_ij; this is the
    unique super-symmetric completion of the natural evaluation pairing.
    Built on B_h's integer state, at its scale d_b. It reads no chi or Phi,
    so ``decompose`` compares it with g's pairings before deriving them.
    """
    na, nh = ctx.a.dim, ctx.h.dim
    d_b, rows = ctx.h.metric.scaled_rows
    table = {(na + i, na + j): c for i, row in enumerate(rows) for j, c in row.items()}
    for i in range(na):
        sign = -1 if (ctx.a.space.parity(i) * (1 + ctx.delta)) % 2 else 1
        table[na + nh + i, i] = d_b
        table[i, na + nh + i] = sign * d_b
    return GradedBilinearForm.from_ints(ctx.space, ctx.delta, d_b, table)


def extension_bracket(ctx: DeltaContext) -> SuperBracket:
    """The bracket of a + h + P_delta(a)* on ``ctx.space``, assembled, not scanned.

    [,]_a + lambda + omega on a x a, Theta(x)(u) = rho(x)(u) + ad*_delta(x)(u)
    + chi(x, u) on a x (h + dual) with its super skew partners
    [u, x] = -(-1)^{|x||u|} Theta(x)(u), and [,]_h + Phi on h x h, summed
    from the pieces' integer states brought to one scale (``common_scale``).
    The caller certifies it, with ``extension_metric``: by their own scans
    (``validate_context``) or by an exact isometry onto an algebra already
    certified (``decompose``)."""
    na, nc, par = ctx.a.dim, ctx.a.dim + ctx.h.dim, ctx.space.parities  # nc: the dual block's first index
    d, (a_pairs, lam, omega, chi, h_pairs, phi, *cols) = common_scale(
        [ctx.a.bracket.scaled_pairs, ctx.lam.scaled_pairs, ctx.omega.scaled_pairs, ctx.chi.scaled_pairs,
         ctx.h.bracket.scaled_pairs, ctx.phi.scaled_pairs] + [t.scaled_columns for t in ctx.rho + ctx.ad_star])
    table: dict = {}
    for pairs, di, dj, dk in ((a_pairs, 0, 0, 0), (lam, 0, 0, na), (omega, 0, 0, nc),
                              (h_pairs, na, na, na), (phi, na, na, nc)):
        for (i, j), v in pairs.items():
            for k, c in v.items():
                table[i + di, j + dj, k + dk] = c
    theta = [(i, m + off, r + off, c) for off, maps in ((na, cols[:na]), (nc, cols[na:]))
             for i, t in enumerate(maps) for m, col in enumerate(t) for r, c in col.items()]
    theta += [(i, na + m, nc + k, c) for (i, m), v in chi.items() for k, c in v.items()]
    for i, j, k, c in theta:
        table[i, j, k] = c
        table[j, i, k] = c if par[i] * par[j] else -c
    return SuperBracket.from_ints(ctx.space, d, table)


def double_extend(ctx: DeltaContext) -> QuadraticLieSuperAlgebra:
    """Quadratic Lie superalgebra of degree delta on a + h + P_delta(a)*:
    ``ctx.extension``, once ``validate_context`` has certified it; raises
    InvalidContext with all violations when the context axioms fail. Basis
    blocks (a, h, dual) in that order, with dual functional parities equal
    to a-parities plus delta; this ordering is part of the file-format
    contract."""
    violations = validate_context(ctx)
    if violations:
        raise InvalidContext(violations)
    return vars(ctx)["extension"]  # set by validate_context, or before it


def contexts_equal(c1: DeltaContext, c2: DeltaContext) -> bool:
    """Structural equality of the mathematical content, ignoring basis labels."""
    return (
        c1.delta == c2.delta
        and c1.a.space.parities == c2.a.space.parities
        and c1.h.space.parities == c2.h.space.parities
        and c1.a.bracket.scaled_pairs == c2.a.bracket.scaled_pairs
        and c1.h.bracket.scaled_pairs == c2.h.bracket.scaled_pairs
        and c1.h.metric.scaled_rows == c2.h.metric.scaled_rows
        and tuple(t.scaled_columns for t in c1.rho) == tuple(t.scaled_columns for t in c2.rho)
        and c1.lam.scaled_pairs == c2.lam.scaled_pairs
        and c1.omega.scaled_pairs == c2.omega.scaled_pairs
    )
