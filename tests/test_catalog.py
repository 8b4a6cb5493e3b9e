import random
from fractions import Fraction

import pytest

from generators import (
    ad_map,
    build_bracket,
    heisenberg_target,
    identity_map,
    odd_extension_dim1,
    psi_preconditions_hold,
    random_heisenberg_params,
    random_odd_dim1_params,
)
from superquad import linalg
from superquad.algebra import LieSuperAlgebra, QuadraticLieSuperAlgebra, SuperBracket, certify_isometry, check_jacobi
from superquad.catalog import (
    HeisenbergExtensionParams,
    OddExtensionParams,
    default_heisenberg_params,
    default_odd_dim1_params,
    heisenberg_context,
    heisenberg_extension,
    odd_extension_context,
)
from superquad.errors import InvalidContext
from superquad.extension import DeltaContext, double_extend
from superquad.linalg import ONE, ZERO
from superquad.spaces import GradedBilinearForm, GradedLinearMap, SuperSpace

F = Fraction


def hyperbolic_pair():
    sp = SuperSpace((("e", 0), ("f", 1)))
    return QuadraticLieSuperAlgebra(
        LieSuperAlgebra.abelian(sp),
        GradedBilinearForm(sp, 1, ((0, 1), (1, 0))))


def test_odd_dim1_trivial_h():
    g = odd_extension_dim1(default_odd_dim1_params(eta=ONE))
    assert g.space.basis == (("x", 1), ("P(x)*", 0))
    assert g.bracket.value(0, 0) == (ZERO, ONE)
    assert g.metric.matrix == ((ZERO, ONE), (ONE, ZERO))


def test_odd_dim1_eta_zero_is_abelian():
    g = odd_extension_dim1(default_odd_dim1_params(eta=ZERO))
    assert all(not any(g.bracket.value(i, j)) for i in range(2) for j in range(2))


def test_odd_dim1_bracket_rows_nontrivial_h():
    h = hyperbolic_pair()
    d = GradedLinearMap(h.space, h.space, 1, ((0, 2), (0, 0)))  # D(f) = 2e
    w = (F(3), ZERO)
    p = OddExtensionParams(h, d, w, F(5))
    g = odd_extension_dim1(p)
    # [x,x] = w + eta P(x)*
    assert g.bracket.value(0, 0) == (ZERO, F(3), ZERO, F(5))
    # [x,f] = D(f) - (-1)^{|f|} B(f,w) P(x)* = 2e + 3 P(x)*
    assert g.bracket.value(0, 2) == (ZERO, F(2), ZERO, F(3))
    # [x,e] = -(-1)^{|e|} B(e,w) P(x)* = 0 since B(e,e) = 0
    assert g.bracket.value(0, 1) == (ZERO, ZERO, ZERO, ZERO)
    # [f,f] = B(D(f), f) P(x)* = 2 P(x)*
    assert g.bracket.value(2, 2) == (ZERO, ZERO, ZERO, F(2))
    assert check_jacobi(g.bracket) is None


def test_odd_dim1_invalid_params():
    from superquad.catalog import default_heisenberg_params
    h4 = heisenberg_extension(default_heisenberg_params())
    zero = GradedLinearMap.zero(h4.space, h4.space, 1)
    # D^2 = 0 but ad(w) != 0: the curvature condition fails
    with pytest.raises(InvalidContext) as exc:
        odd_extension_dim1(OddExtensionParams(h4, zero, (ONE, ZERO, ZERO, ZERO), ONE))
    assert exc.value.violations[0].equation == "deh1"

    # D(w) != 0 on a (2|2) hyperbolic space with an antisymmetric alpha-block
    sp = SuperSpace((("e1", 0), ("e2", 0), ("f1", 1), ("f2", 1)))
    rows = [[ZERO] * 4 for _ in range(4)]
    for i in range(2):
        rows[i][2 + i] = ONE
        rows[2 + i][i] = ONE
    h = QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(sp),
                                 GradedBilinearForm(sp, 1, tuple(tuple(r) for r in rows)))
    dmat = [[ZERO] * 4 for _ in range(4)]
    dmat[3][0] = ONE    # D(e1) = f2
    dmat[2][1] = -ONE   # D(e2) = -f1
    d = GradedLinearMap(sp, sp, 1, tuple(tuple(r) for r in dmat))
    with pytest.raises(InvalidContext) as exc:
        odd_extension_dim1(OddExtensionParams(h, d, (ONE, ZERO, ZERO, ZERO), ZERO))
    assert exc.value.violations[0].equation == "deh2"

    # skewness failure: D(e) = f pairs wrongly with the metric
    h2 = hyperbolic_pair()
    dbad = GradedLinearMap(h2.space, h2.space, 1, ((0, 0), (1, 0)))
    with pytest.raises(InvalidContext) as exc:
        odd_extension_dim1(OddExtensionParams(h2, dbad, (ZERO, ZERO), ZERO))
    assert exc.value.violations[0].equation == "rho-skew"

    # wrong parity of D
    deven = GradedLinearMap.zero(h2.space, h2.space, 0)
    with pytest.raises(InvalidContext) as exc:
        odd_extension_dim1(OddExtensionParams(h2, deven, (ZERO, ZERO), ZERO))
    assert exc.value.violations[0].equation == "rho-degree"


def test_odd_dim1_deh1_with_nonzero_d_squared():
    """2 D^2 = ad_h(w) with both sides nonzero: D = ad_h(v) for the odd v of
    s = (t, e | v), [t,v] = v, [t,e] = 2e, [v,v] = e, and w = [v,v]."""
    s = LieSuperAlgebra(build_bracket(SuperSpace((("t", 0), ("e", 0), ("v", 1))),
                                      [(0, 2, 2, ONE), (0, 1, 1, F(2)), (2, 2, 1, ONE)]))
    empty = SuperSpace(())
    h0 = QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(empty), GradedBilinearForm.from_entries(empty, 1, ()))
    h = double_extend(DeltaContext.trivial(1, s, h0))
    d = ad_map(h.bracket, 2)
    w = h.bracket.value(2, 2)
    assert linalg.mat_mul(d.matrix, d.matrix) != linalg.zero_mat(h.dim, h.dim)
    p = OddExtensionParams(h, d, w, F(3))
    g1 = odd_extension_dim1(p)
    g2 = double_extend(odd_extension_context(p))
    assert g1.space.basis == g2.space.basis
    assert g1.bracket.scaled_pairs == g2.bracket.scaled_pairs
    assert g1.metric.scaled_rows == g2.metric.scaled_rows
    with pytest.raises(InvalidContext) as exc:
        odd_extension_dim1(OddExtensionParams(h, d, tuple(c / 2 for c in w), F(3)))
    assert exc.value.violations[0].equation == "deh1"


def test_heisenberg_explicit_shape():
    g = heisenberg_extension(default_heisenberg_params())
    assert g.space.basis == (("x", 0), ("e", 0), ("f", 1), ("P(x)*", 1))
    assert g.bracket.value(0, 1) == (ZERO, ONE, ZERO, ZERO)
    assert g.bracket.value(0, 2) == (ZERO, ZERO, -ONE, ZERO)
    assert g.bracket.value(1, 2) == (ZERO, ZERO, ZERO, ONE)
    assert g.metric.matrix[0][3] == ONE and g.metric.matrix[1][2] == ONE


def test_heisenberg_zero_derivation_still_valid():
    h = hyperbolic_pair()
    d = GradedLinearMap.zero(h.space, h.space, 0)
    g = heisenberg_extension(HeisenbergExtensionParams(h, d))
    assert all(not any(g.bracket.value(i, j)) for i in range(4) for j in range(4))


def test_heisenberg_invalid_params():
    from generators import _sl2_killing
    # identity map is not a derivation of a non-abelian h
    h4 = heisenberg_extension(default_heisenberg_params())
    with pytest.raises(InvalidContext) as exc:
        heisenberg_extension(HeisenbergExtensionParams(h4, identity_map(h4.space)))
    assert exc.value.violations[0].equation == "rho-derivation"
    # even metric h is rejected outright
    s = _sl2_killing()
    with pytest.raises(InvalidContext) as exc:
        heisenberg_extension(HeisenbergExtensionParams(s, GradedLinearMap.zero(s.space, s.space, 0)))
    assert exc.value.violations[0].equation == "metric-degree"


def test_catalog_equals_generic_double_extension():
    rng = random.Random(41)
    for _ in range(5):
        p = random_heisenberg_params(rng)
        g1 = heisenberg_extension(p)
        g2 = double_extend(heisenberg_context(p))
        assert g1.bracket.table == g2.bracket.table
        assert g1.metric.matrix == g2.metric.matrix
        q = random_odd_dim1_params(rng)
        o1 = odd_extension_dim1(q)
        o2 = double_extend(odd_extension_context(q))
        assert o1.bracket.table == o2.bracket.table
        assert o1.metric.matrix == o2.metric.matrix


def isometry(g, target):
    """``certify_isometry`` of the identity of the basis, g onto target."""
    return certify_isometry(g.bracket.scaled_pairs, g.metric.scaled_rows,
                            target.bracket.scaled_pairs, target.metric.scaled_rows)


def test_psi_isometry_default_instance():
    """eta x + u + zeta P(x)* -> eta D + u + zeta hbar is an isometry onto h(D)."""
    p = default_heisenberg_params()
    assert psi_preconditions_hold(p)
    g, target = heisenberg_extension(p), heisenberg_target(p)
    assert isometry(g, target) is None
    assert g.space.labels == ("x", "e", "f", "P(x)*")
    assert target.space.labels == ("D", "e", "f", "hbar")
    # hbar is central and pairs with D
    assert all(not any(target.bracket.value(3, j)) for j in range(4))
    assert target.metric.matrix[0][3] == ONE


def test_psi_isometry_reports_a_planted_coefficient():
    """One structure constant, and apart from it one metric entry, planted
    in a copy of h(D) is the witness of the isometry from the Heisenberg
    extension: its pair with the residual extension minus copy, -c at the
    planted coordinate, whether or not h(D) has a nonzero there."""
    rng = random.Random(26)
    params = [default_heisenberg_params(k) for k in (1, 2, 3)]
    params += [p for p in (random_heisenberg_params(rng) for _ in range(30)) if psi_preconditions_hold(p)]
    assert len(params) >= 8
    zero_in_target = 0
    for p in params:
        g, target = heisenberg_extension(p), heisenberg_target(p)
        n = g.dim
        i, j, k = (rng.randrange(n) for _ in range(3))
        c = F(rng.choice((-5, -1, 2, 7)), rng.choice((1, 3)))
        zero_in_target += target.bracket.value(i, j)[k] == ZERO
        planted = SuperBracket.from_entries(target.space, target.bracket.entries() + [(i, j, k, c)])
        v = certify_isometry(g.bracket.scaled_pairs, g.metric.scaled_rows,
                             planted.scaled_pairs, target.metric.scaled_rows)
        assert (v.equation, v.indices) == ("isometry-bracket", (i, j))
        assert v.residual == tuple(-c if r == k else ZERO for r in range(n))
        i, j = rng.randrange(n), rng.randrange(n)
        planted = GradedBilinearForm.from_entries(target.space, target.delta, target.metric.entries() + [(i, j, c)])
        v = certify_isometry(g.bracket.scaled_pairs, g.metric.scaled_rows,
                             target.bracket.scaled_pairs, planted.scaled_rows)
        assert (v.equation, v.indices, v.residual) == ("isometry-metric", (i, j), -c)
    assert zero_in_target >= 3


def test_psi_preconditions_rejected():
    """With D = 0, h(D) is abelian, not a Heisenberg superalgebra, although
    the catalog extension and h(D) still share their tables."""
    h = hyperbolic_pair()
    p = HeisenbergExtensionParams(h, GradedLinearMap.zero(h.space, h.space, 0))
    assert not psi_preconditions_hold(p)
    assert isometry(heisenberg_extension(p), heisenberg_target(p)) is None


def test_psi_skipped_for_nonabelian_h():
    """Over a non-abelian h, h(D) drops h's own bracket, so the
    correspondence fails at the first pair of h with a nonzero bracket, and
    the residual is that bracket."""
    h4 = heisenberg_extension(default_heisenberg_params())
    d = ad_map(h4.bracket, 0)
    p = HeisenbergExtensionParams(h4, d)
    assert not psi_preconditions_hold(p)
    v = isometry(heisenberg_extension(p), heisenberg_target(p))
    i, j = min(h4.bracket.scaled_pairs[1])
    assert (v.equation, v.indices) == ("isometry-bracket", (1 + i, 1 + j))
    assert v.residual == (ZERO, *h4.bracket.value(i, j), ZERO)


def test_nested_extension_labels_stay_unique():
    # use a previous extension (labels x, e, f, P(x)*) as the next h
    h4 = heisenberg_extension(default_heisenberg_params())
    d = ad_map(h4.bracket, 0)
    g = heisenberg_extension(HeisenbergExtensionParams(h4, d))
    assert g.dim == 6
    assert g.space.labels[0] == "x1" and g.space.labels[-1] == "P(x1)*"


def test_odd_dim1_refuses_inexact_eta():
    from superquad.catalog import default_odd_dim1_params
    for bad in (0.1, True):
        with pytest.raises(TypeError):
            default_odd_dim1_params(bad)
    assert default_odd_dim1_params("2/3").eta == F(2, 3)
