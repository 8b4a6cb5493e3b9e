from fractions import Fraction

import pytest

from generators import context_corpus, lemma_residuals
from superquad.algebra import (
    LieSuperAlgebra,
    QuadraticLieSuperAlgebra,
    check_invariance,
    check_jacobi,
    delta_coadjoint,
    is_derivation,
)
from superquad.catalog import (
    OddExtensionParams,
    default_heisenberg_params,
    default_odd_dim1_params,
    heisenberg_context,
    odd_extension_context,
)
from superquad.errors import InvalidContext
from superquad.extension import (
    DeltaContext,
    central_extension,
    derive_chi,
    derive_phi,
    double_extend,
    extension_derivations,
    validate_context,
)
from superquad.linalg import ONE, ZERO
from superquad.spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    check_form_degree,
)

F = Fraction


def hyperbolic_pair():
    sp = SuperSpace((("e", 0), ("f", 1)))
    return QuadraticLieSuperAlgebra(
        LieSuperAlgebra.abelian(sp),
        GradedBilinearForm(sp, 1, ((0, 1), (1, 0))))


def odd_dim1_ctx(beta=F(0), w_coeff=F(1), eta=F(1)):
    """Odd-generator context over the hyperbolic pair: D(f) = beta e, w = w_coeff e."""
    h = hyperbolic_pair()
    d = GradedLinearMap(h.space, h.space, 1, ((0, beta), (0, 0)))
    return odd_extension_context(OddExtensionParams(h, d, (w_coeff, ZERO), eta))


def test_trivial_context_validates():
    a = LieSuperAlgebra.abelian(SuperSpace((("x", 0),)))
    hsp = SuperSpace(())
    h = QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(hsp), GradedBilinearForm(hsp, 1, ()))
    ctx = DeltaContext.trivial(1, a, h)
    assert validate_context(ctx) == []
    assert lemma_residuals(ctx) == []


def test_derive_chi_zero_when_lambda_zero():
    ctx = heisenberg_context(default_heisenberg_params())
    assert not derive_chi(ctx).scaled_pairs[1]


def test_derive_chi_odd_dim1_value():
    # chi(x,u) = -(-1)^{|u|} B_h(u, w) P(x)*, here w = e so only u = f pairs
    ctx = odd_dim1_ctx()
    chi = derive_chi(ctx)
    assert chi.value(0, 0) == (ZERO,)          # u = e
    assert chi.value(0, 1) == (ONE,)           # u = f: -(-1)^1 B(f,e) = +1
    assert chi.check_even("chi") is None


def test_derive_phi_zero_when_rho_zero():
    a = LieSuperAlgebra.abelian(SuperSpace((("x", 0),)))
    h = hyperbolic_pair()
    ctx = DeltaContext.trivial(1, a, h)
    assert not derive_phi(ctx).scaled_pairs[1]


def test_derive_phi_heisenberg_value():
    # Phi(u,v)(P(x)) = B_h(D(u), v) for the even generator
    ctx = heisenberg_context(default_heisenberg_params())
    phi = derive_phi(ctx)
    assert phi.value(0, 1) == (ONE,)    # B(D e, f) = B(e,f) = 1
    assert phi.value(1, 0) == (-ONE,)   # B(D f, e) = -B(f,e)
    assert phi.value(0, 0) == (ZERO,)
    assert phi.check_super_skew() is None


def test_derive_phi_odd_dim1_value():
    # Phi(u,v) = (-1)^{|u|+|v|} B_h(D(u), v) P(x)* with D(f) = e
    ctx = odd_dim1_ctx(beta=ONE, w_coeff=ZERO, eta=ZERO)
    phi = derive_phi(ctx)
    assert phi.value(1, 1) == (ONE,)    # (-1)^{1+1} B(e, f)
    assert phi.value(0, 0) == (ZERO,)
    assert phi.value(0, 1) == (ZERO,)


def test_validate_flags_exactly_deh1_when_w_not_matching():
    # D = 0 but lambda(y,y) = x with ad_h(x) != 0 in the 4-dim Heisenberg-type h
    from superquad.catalog import heisenberg_extension
    h4 = heisenberg_extension(default_heisenberg_params())
    a = LieSuperAlgebra.abelian(SuperSpace((("y", 1),)))
    rho = (GradedLinearMap.zero(h4.space, h4.space, 1),)
    lam = GradedBilinearMap(a.space, a.space, h4.space, (((ONE, ZERO, ZERO, ZERO),),))
    dual = SuperSpace((("P(y)*", 0),))
    omega = GradedBilinearMap(a.space, a.space, dual, (((ONE,),),))
    ctx = DeltaContext(1, a, h4, rho, lam, omega)
    violations = validate_context(ctx)
    assert [v.equation for v in violations] == ["deh1"]
    assert tuple(violations[0].indices) == (0, 0)
    with pytest.raises(InvalidContext):
        double_extend(ctx)


def test_validate_heisenberg_context_ok():
    ctx = heisenberg_context(default_heisenberg_params())
    assert validate_context(ctx) == []
    assert lemma_residuals(ctx) == []


def test_lemma_identities_on_odd_dim1_context():
    ctx = odd_dim1_ctx(beta=F(2), w_coeff=F(3), eta=F(1, 2))
    assert validate_context(ctx) == []
    assert lemma_residuals(ctx) == []


def test_double_extend_trivial_context():
    a = LieSuperAlgebra.abelian(SuperSpace((("x", 0),)))
    hsp = SuperSpace(())
    h = QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(hsp), GradedBilinearForm(hsp, 1, ()))
    g = double_extend(DeltaContext.trivial(1, a, h))
    assert g.space.basis == (("x", 0), ("P(x)*", 1))
    assert all(not any(g.bracket.value(i, j)) for i in range(2) for j in range(2))
    assert g.metric.matrix == ((ZERO, ONE), (ONE, ZERO))
    assert g.delta == 1


def test_double_extend_odd_generator_square():
    # a odd, h = 0, eta = 1: [x,x] = P(x)* and [x, P(x)*] = 0
    g = double_extend(odd_extension_context(default_odd_dim1_params()))
    assert g.space.basis == (("x", 1), ("P(x)*", 0))
    assert g.bracket.value(0, 0) == (ZERO, ONE)
    assert not any(g.bracket.value(0, 1))
    assert g.metric.matrix == ((ZERO, ONE), (ONE, ZERO))
    assert check_jacobi(g.bracket) is None


def test_double_extend_heisenberg_shape():
    g = double_extend(heisenberg_context(default_heisenberg_params()))
    x, e, f, d = range(4)
    assert g.space.basis == (("x", 0), ("e", 0), ("f", 1), ("P(x)*", 1))
    assert g.bracket.value(x, e) == (ZERO, ONE, ZERO, ZERO)
    assert g.bracket.value(x, f) == (ZERO, ZERO, -ONE, ZERO)
    assert g.bracket.value(e, f) == (ZERO, ZERO, ZERO, ONE)
    assert not any(g.bracket.value(x, d))
    assert not any(g.bracket.value(e, d))
    assert check_form_degree(g.metric) == 1
    assert check_invariance(g.metric, g.bracket) is None


def test_metric_restricts_to_h_and_dual_block_is_central_ideal():
    ctx = odd_dim1_ctx(beta=F(1), w_coeff=F(2), eta=F(3))
    g = double_extend(ctx)
    nh = ctx.h.dim
    for m in range(nh):
        for l in range(nh):
            assert g.metric.matrix[1 + m][1 + l] == ctx.h.metric.matrix[m][l]
    n = g.dim
    # the dual block is central inside h + dual
    for p in range(1, n):
        assert not any(g.bracket.value(n - 1, p))
    # h + dual is an ideal: every bracket against it stays inside it
    for p in range(n):
        for q in range(1, n):
            assert g.bracket.value(p, q)[0] == 0
    # h x h bracket equals [.,.]_h plus the Phi component
    phi = derive_phi(ctx)
    for m in range(nh):
        for l in range(nh):
            vec = g.bracket.value(1 + m, 1 + l)
            assert vec[1:1 + nh] == ctx.h.bracket.table[m][l]
            assert vec[1 + nh:] == phi.value(m, l)


def test_theta_is_derivation_of_central_extension():
    for ctx in (heisenberg_context(default_heisenberg_params()),
                odd_dim1_ctx(beta=F(1), w_coeff=F(1), eta=F(1))):
        ce = central_extension(ctx)
        for theta in extension_derivations(ctx, ce.space):
            assert is_derivation(theta, ce.bracket)


def two_odd_generators_ctx(omega_entries):
    """a spanned by two odd generators, abelian; h = 0; omega as given."""
    a = LieSuperAlgebra.abelian(SuperSpace((("y0", 1), ("y1", 1))))
    hsp = SuperSpace(())
    h = QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(hsp), GradedBilinearForm(hsp, 1, ()))
    rho = (GradedLinearMap.zero(hsp, hsp, 1), GradedLinearMap.zero(hsp, hsp, 1))
    lam = GradedBilinearMap.zero(a.space, a.space, hsp)
    dual = SuperSpace((("P(y0)*", 0), ("P(y1)*", 0)))
    omega = GradedBilinearMap.from_entries(a.space, a.space, dual, omega_entries)
    return DeltaContext(1, a, h, rho, lam, omega)


def test_symmetric_cubic_omega_validates():
    # two odd generators: the cyclic condition says omega is a symmetric 3-tensor
    ctx = two_odd_generators_ctx([
        (0, 0, 1, ONE), (0, 1, 0, ONE), (1, 0, 0, ONE), (1, 1, 1, F(2))])
    assert validate_context(ctx) == []
    g = double_extend(ctx)
    assert check_jacobi(g.bracket) is None


def test_cyclic_violation_flagged_and_extension_refused():
    # omega(y0,y1) = omega(y1,y0) keeps skewness but breaks the cyclic tie
    # to omega(y0,y0)
    ctx = two_odd_generators_ctx([(0, 1, 0, ONE), (1, 0, 0, ONE)])
    violations = validate_context(ctx)
    assert {v.equation for v in violations} == {"super-cyclic"}
    with pytest.raises(InvalidContext) as exc:
        double_extend(ctx)
    assert any(v.equation == "super-cyclic" for v in exc.value.violations)


def test_lemma_residuals_reported_for_invalid_context():
    # a context breaking its axioms also breaks a derived identity; the
    # residuals come back as values rather than raising
    from superquad.catalog import heisenberg_extension, default_heisenberg_params
    h4 = heisenberg_extension(default_heisenberg_params())
    a = LieSuperAlgebra.abelian(SuperSpace((("y", 1),)))
    rho = (GradedLinearMap.zero(h4.space, h4.space, 1),)
    lam = GradedBilinearMap(a.space, a.space, h4.space, (((ONE, ZERO, ZERO, ZERO),),))
    dual = SuperSpace((("P(y)*", 0),))
    omega = GradedBilinearMap.zero(a.space, a.space, dual)
    ctx = DeltaContext(1, a, h4, rho, lam, omega)
    assert validate_context(ctx)  # fails deh1
    residuals = lemma_residuals(ctx)
    assert any(v.equation == "lemma-1" for v in residuals)


@pytest.mark.parametrize("bad", [True, False, 2])
def test_context_delta_is_the_int_0_or_1(bad):
    """delta is a parity: a bool is refused, as by a space, not written out as ``True``."""
    ctx = heisenberg_context(default_heisenberg_params())
    with pytest.raises(ValueError, match="parity must be 0 or 1, got"):
        DeltaContext(bad, ctx.a, ctx.h, ctx.rho, ctx.lam, ctx.omega)
    assert DeltaContext(1, ctx.a, ctx.h, ctx.rho, ctx.lam, ctx.omega) == ctx


def test_cached_chi_and_phi_stay_out_of_equality_hashing_and_pickling():
    import copy
    import pickle

    ctx = heisenberg_context(default_heisenberg_params())
    fresh = copy.copy(ctx)  # the fields alone: the catalog returns ctx validated, chi and ad*_delta derived
    assert ctx.chi is ctx.chi and ctx.phi is ctx.phi and ctx.dual_block is ctx.dual_block
    assert ctx.ad_star is ctx.ad_star and ctx.extension is ctx.extension
    assert ctx.chi == derive_chi(fresh) and ctx.phi == derive_phi(fresh)
    assert ctx.ad_star == delta_coadjoint(fresh.a, fresh.delta)
    assert ctx.extension == double_extend(heisenberg_context(default_heisenberg_params()))
    assert ctx == fresh and hash(ctx) == hash(fresh)
    derived = {"chi", "phi", "ad_star", "extension", "dual_block"}
    assert derived <= vars(ctx).keys() and not vars(fresh).keys() & {"chi", "phi", "ad_star", "extension"}
    for again in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx), copy.copy(ctx)):
        assert again == ctx and hash(again) == hash(ctx)
        assert not vars(again).keys() & derived
        assert again.chi == ctx.chi and again.phi == ctx.phi and again.ad_star == ctx.ad_star
        assert again.extension == ctx.extension
    assert pickle.dumps(ctx) == pickle.dumps(fresh)


def test_ad_star_acts_on_the_dual_block():
    """ad*_delta(x_i) is a map of the context's dual block P_delta(a)* to
    itself, labels included: at delta = 1 the block reads P(x)*, not x*."""
    contexts = [*context_corpus(0, 40, seed=5), *context_corpus(1, 40, seed=5),
                *(heisenberg_context(default_heisenberg_params(pairs)) for pairs in (1, 2, 3)),
                *(odd_extension_context(default_odd_dim1_params(eta)) for eta in (F(1), F(-3, 2)))]
    assert sum(ctx.a.dim for ctx in contexts if ctx.delta == 1) >= 20
    for ctx in contexts:
        assert len(ctx.ad_star) == ctx.a.dim
        for t in ctx.ad_star:
            assert t.source == t.target == ctx.dual_block
