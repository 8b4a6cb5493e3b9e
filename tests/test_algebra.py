import random
from fractions import Fraction

import pytest

from generators import (ad_map, b_flat, bracket_law_violation, build_bracket, change_basis_form, column,
                        fractions, identity_map, intertwining_violation, mat_sub, rand_scalar,
                        random_parity_preserving_basis, random_quadratic, random_superalgebra_scrambled,
                        space_of, value_vectors)
from superquad import linalg
from superquad.algebra import (
    LieSuperAlgebra,
    QuadraticLieSuperAlgebra,
    SuperBracket,
    certify_isometry,
    check_invariance,
    check_jacobi,
    delta_coadjoint,
    is_derivation,
    is_metric_skew,
    semidirect_product,
)
from superquad.catalog import default_heisenberg_params, heisenberg_extension
from superquad.errors import ValidationError
from superquad.linalg import ONE, ZERO, unit_vec
from superquad.spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    dual_space,
)

F = Fraction


def brute_jacobi_residual(bracket, i, j, k, pairs=None):
    """Independent oracle: the cyclic sum through the bilinear extension, on
    the bracket's Fraction ``pairs`` (built here if not given)."""
    n = bracket.space.dim
    par = bracket.space.parities
    if pairs is None:
        pairs = fractions(bracket.scaled_pairs)

    def value(u, v):
        return value_vectors(pairs, u, v, n)

    ei, ej, ek = (unit_vec(n, t) for t in (i, j, k))
    t1 = value(ei, value(ej, ek))
    t2 = value(ej, value(ek, ei))
    t3 = value(ek, value(ei, ej))
    total = [ZERO] * n
    for sgn, t in (((-1) ** (par[i] * par[k]), t1),
                   ((-1) ** (par[j] * par[i]), t2),
                   ((-1) ** (par[k] * par[j]), t3)):
        total = [x + sgn * y for x, y in zip(total, t)]
    return tuple(total)


def brute_jacobi(bracket):
    """Every ordered triple where the oracle's cyclic sum is nonzero."""
    n = bracket.space.dim
    pairs = fractions(bracket.scaled_pairs)
    return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
            if any(brute_jacobi_residual(bracket, i, j, k, pairs))]


def heisenberg_bracket():
    return heisenberg_extension(default_heisenberg_params()).bracket


def test_jacobi_abelian():
    sp = space_of([0, 1, 1])
    assert check_jacobi(SuperBracket.zero(sp)) is None


def test_jacobi_heisenberg_instance_matches_oracle():
    b = heisenberg_bracket()
    assert brute_jacobi(b) == []
    assert check_jacobi(b) is None


def test_jacobi_perturbed_detected_with_witness():
    b = heisenberg_bracket()
    table = [list(map(list, row)) for row in b.table]
    table[1][2][2] += 1  # [e,f] picks up an extra f-component
    table[2][1][2] -= 1  # keep super skew-symmetry intact
    bad = SuperBracket(b.space, tuple(tuple(tuple(v) for v in row) for row in table))
    assert bad.check_super_skew("super-skew") is None
    v = check_jacobi(bad)
    assert v is not None and v.equation == "jacobi"
    assert tuple(v.indices) in {t for t in brute_jacobi(bad)}


def _corrupt_keeping_skew(rng, bracket, changes=2):
    """Random extra structure constants that keep grading and super skew-symmetry."""
    n, par = bracket.space.dim, bracket.space.parities
    table = [[list(v) for v in row] for row in bracket.table]
    for _ in range(changes):
        i, j = rng.randrange(n), rng.randrange(n)
        sign = -1 if par[i] * par[j] else 1
        if i == j and sign == 1:
            continue  # an even square is forced to vanish
        k = rng.choice([k for k in range(n) if par[k] == (par[i] + par[j]) % 2] or [None])
        if k is None:
            continue
        c = rand_scalar(rng, nonzero=True)
        table[i][j][k] += c
        if i != j:
            table[j][i][k] -= sign * c
    return SuperBracket(bracket.space, tuple(tuple(tuple(v) for v in row) for row in table))


def test_jacobi_first_witness_and_residual_match_oracle():
    rng = random.Random(4242)
    mixed = detected = 0
    for _ in range(40):
        bad = _corrupt_keeping_skew(rng, random_superalgebra_scrambled(rng).bracket)
        assert bad.check_even("grading", "bracket") is None
        assert bad.check_super_skew("super-skew") is None
        mixed += len(set(bad.space.parities)) == 2
        oracle = brute_jacobi(bad)
        v = check_jacobi(bad)
        if not oracle:
            assert v is None
            continue
        detected += 1
        assert v.equation == "jacobi"
        assert v.indices == min(t for t in oracle if t[0] <= t[1] <= t[2])
        assert v.residual == brute_jacobi_residual(bad, *v.indices)
    assert mixed >= 10 and detected >= 10


def test_constructor_rejects_grading_skew_jacobi():
    sp = space_of([0, 0])
    with pytest.raises(ValidationError):
        LieSuperAlgebra(SuperBracket.from_entries(sp, [(0, 1, 1, 1), (1, 0, 1, 1)]))  # skew
    sp2 = space_of([0, 1])
    with pytest.raises(ValidationError):
        LieSuperAlgebra(SuperBracket.from_entries(sp2, [(0, 0, 1, 1)]))  # grading
    sp3 = space_of([0, 0, 0])
    entries = [(0, 1, 2, 1), (1, 2, 0, 1), (0, 2, 0, 1)]
    bad = build_bracket(sp3, [(i, j, k, F(c)) for i, j, k, c in entries])
    if check_jacobi(bad) is not None:
        with pytest.raises(ValidationError):
            LieSuperAlgebra(bad)


def test_is_derivation_examples():
    g = heisenberg_extension(default_heisenberg_params()).algebra
    zero = GradedLinearMap.zero(g.space, g.space, 0)
    assert is_derivation(zero, g.bracket)
    # inner derivations, for every basis vector
    for i in range(g.dim):
        assert is_derivation(ad_map(g.bracket, i), g.bracket)
    assert not is_derivation(identity_map(g.space), g.bracket)


def test_is_metric_skew_examples():
    sp = space_of([0, 1])
    b = GradedBilinearForm(sp, 1, ((0, 1), (1, 0)))
    zero = GradedLinearMap.zero(sp, sp, 0)
    assert is_metric_skew(zero, b)
    d = GradedLinearMap(sp, sp, 0, ((1, 0), (0, -1)))
    # direct evaluation of both sides on all pairs
    for i in range(2):
        for j in range(2):
            lhs = b.value(column(d, i), unit_vec(2, j))
            sign = -1 if sp.parity(i) * d.degree else 1
            rhs = -sign * b.value(unit_vec(2, i), column(d, j))
            assert lhs == rhs
    assert is_metric_skew(d, b)
    assert not is_metric_skew(identity_map(sp), b)


def test_check_invariance_examples():
    sp = space_of([0, 1])
    abelian = SuperBracket.zero(sp)
    anyform = GradedBilinearForm(sp, 1, ((0, 3), (3, 0)))
    assert check_invariance(anyform, abelian) is None

    g = heisenberg_extension(default_heisenberg_params())
    assert check_invariance(g.metric, g.bracket) is None
    rows = [list(r) for r in g.metric.matrix]
    rows[0][3] = ZERO  # kill B(x, P(x)*)
    rows[3][0] = ZERO
    broken = GradedBilinearForm(g.space, 1, tuple(tuple(r) for r in rows))
    assert check_invariance(broken, g.bracket) is not None
    assert not broken.is_non_degenerate()


def test_b_flat_examples():
    sp = space_of([0, 0])
    b = GradedBilinearForm(sp, 0, ((1, 0), (0, 1)))
    flat = b_flat(b)
    assert flat.degree == 0 and flat.matrix == linalg.identity_mat(2)
    assert flat.target == dual_space(sp)

    sp2 = space_of([0, 1])
    odd = GradedBilinearForm(sp2, 1, ((0, 1), (1, 0)))
    flat2 = b_flat(odd)
    assert flat2.degree == 1
    assert column(flat2, 0) == (ZERO, ONE)   # e -> f*
    assert column(flat2, 1) == (ONE, ZERO)   # f -> e*
    assert linalg.rank(flat2.scaled_columns[1], 2) == 2

    degen = GradedBilinearForm(sp, 0, ((1, 0), (0, 0)))
    assert linalg.rank(b_flat(degen).scaled_columns[1], 2) < 2


def two_dim_solvable():
    sp = space_of([0, 0])
    return LieSuperAlgebra(build_bracket(sp, [(0, 1, 1, ONE)]))


def test_coadjoint_examples():
    sp = space_of([0, 1])
    ab = LieSuperAlgebra.abelian(sp)
    assert not any(c for m in delta_coadjoint(ab, 0) for c in m.scaled_columns[1])

    g = two_dim_solvable()
    ad_star = delta_coadjoint(g, 0)
    # ad*(a)(b*) = -b*, ad*(a)(a*) = 0, from the defining formula
    assert column(ad_star[0], 1) == (ZERO, -ONE)
    assert column(ad_star[0], 0) == (ZERO, ZERO)
    assert bracket_law_violation(g, ad_star) is None


def test_coadjoint_law_random():
    rng = random.Random(11)
    for _ in range(20):
        g = random_superalgebra_scrambled(rng, 4)
        assert bracket_law_violation(g, delta_coadjoint(g, 0)) is None


def test_certify_isometry_refuses_algebras_of_different_dims():
    """The metrics' rows are the algebras' dims: a dim-1 and a dim-2
    algebra are refused before any entry is compared, whether the brackets
    agree (both zero) or not (a residual would index past dim 1)."""
    one, two = (1, ({0: 1},)), (1, ({0: 1}, {1: 1}))
    assert certify_isometry((1, {}), one, (1, {}), one) is None
    for bracket2 in ((1, {}), (1, {(0, 0): {1: 1}})):
        with pytest.raises(ValueError, match=r"^the algebras have dims 1 and 2$"):
            certify_isometry((1, {}), one, bracket2, two)
    with pytest.raises(ValueError, match=r"^the algebras have dims 2 and 1$"):
        certify_isometry((1, {}), two, (1, {}), one)


def test_delta_coadjoint_abelian_zero():
    sp = space_of([0, 1, 1])
    ad_star = delta_coadjoint(LieSuperAlgebra.abelian(sp), 1)
    assert not any(c for m in ad_star for c in m.scaled_columns[1])
    assert [m.degree for m in ad_star] == [0, 1, 1]  # one map per basis vector, of its parity
    assert all(m.source == m.target and m.source.parities == (1, 0, 0) for m in ad_star)


def test_delta_coadjoint_formula_and_law():
    g = two_dim_solvable()
    ad_star = delta_coadjoint(g, 1)
    n, par = g.dim, g.space.parities
    # direct evaluation of the defining formula on all (i, j, k)
    for i in range(n):
        for j in range(n):
            expect = [ZERO] * n
            for k in range(n):
                sign = -1 if ((par[j] + 1) * par[i]) % 2 else 1
                expect[k] = -sign * g.bracket.table[i][k][j]
            assert column(ad_star[i], j) == tuple(expect)
    assert bracket_law_violation(g, ad_star) is None


def test_delta_coadjoint_intertwines_with_shift():
    rng = random.Random(12)
    for _ in range(15):
        g = random_superalgebra_scrambled(rng, 4)
        for delta in (0, 1):
            assert intertwining_violation(g, delta) is None


def test_b_flat_intertwines_ad_and_coadjoint():
    rng = random.Random(13)
    for _ in range(10):
        g = random_quadratic(rng, rng.randint(0, 1), 4, allow_zero=False)
        flat = b_flat(g.metric)
        ad_star = delta_coadjoint(g.algebra, 0)
        for i in range(g.dim):
            sign = -1 if (g.space.parity(i) * g.metric.degree) % 2 else 1
            lhs = linalg.mat_mul(flat.matrix, ad_map(g.bracket, i).matrix)
            assert lhs == linalg.mat_scale(sign, linalg.mat_mul(ad_star[i].matrix, flat.matrix))


def test_inner_derivations_are_metric_skew():
    rng = random.Random(14)
    for _ in range(10):
        g = random_quadratic(rng, rng.randint(0, 1), 4, allow_zero=False)
        for i in range(g.dim):
            assert is_metric_skew(ad_map(g.bracket, i), g.metric)


def test_semidirect_trivial_is_direct_sum():
    a = two_dim_solvable()
    h = LieSuperAlgebra.abelian(space_of([0, 1], prefix="h"))
    theta = tuple(GradedLinearMap.zero(h.space, h.space, 0) for _ in range(2))
    lam = GradedBilinearMap.zero(a.space, a.space, h.space)
    g = semidirect_product(a, h, theta, lam)
    assert g.dim == 4
    assert g.bracket.value(0, 1) == (ZERO, ONE, ZERO, ZERO)
    assert not any(g.bracket.value(0, 2))
    assert not any(g.bracket.value(2, 3))


def test_semidirect_classical_action():
    a = two_dim_solvable()
    h = LieSuperAlgebra.abelian(space_of([0, 0], prefix="h"))
    # a representation of the solvable algebra: theta(x) acts as diag(0,1) scaled,
    # theta(y) nilpotent, [theta(x), theta(y)] = theta(y)
    tx = GradedLinearMap(h.space, h.space, 0, ((0, 0), (0, 1)))
    ty = GradedLinearMap(h.space, h.space, 0, ((0, 0), (1, 0)))
    assert mat_sub(linalg.mat_mul(tx.matrix, ty.matrix), linalg.mat_mul(ty.matrix, tx.matrix)) == ty.matrix
    lam = GradedBilinearMap.zero(a.space, a.space, h.space)
    g = semidirect_product(a, h, (tx, ty), lam)
    assert check_jacobi(g.bracket) is None
    assert brute_jacobi(g.bracket) == []


def test_semidirect_condition_violation_witness():
    a = LieSuperAlgebra.abelian(space_of([0, 0]))
    h = LieSuperAlgebra.abelian(space_of([0, 0], prefix="h"))
    tx = GradedLinearMap(h.space, h.space, 0, ((0, 1), (0, 0)))
    ty = GradedLinearMap(h.space, h.space, 0, ((0, 0), (1, 0)))
    lam = GradedBilinearMap.zero(a.space, a.space, h.space)
    # [tx, ty] != 0 but a is abelian and lam = 0: the curvature condition
    # fails, and the Jacobi scan of the product finds [x0, [x1, h0]] = h0
    with pytest.raises(ValidationError) as exc:
        semidirect_product(a, h, (tx, ty), lam)
    v = exc.value.violations[0]
    assert v.equation == "jacobi" and tuple(v.indices) == (0, 1, 2)
    assert v.residual == (ZERO, ZERO, ONE, ZERO)


def test_semidirect_odd_lambda_and_wrong_theta_degree():
    a = LieSuperAlgebra.abelian(space_of([0, 0]))
    h = LieSuperAlgebra.abelian(space_of([0, 1], prefix="h"))
    theta = tuple(GradedLinearMap.zero(h.space, h.space, 0) for _ in range(2))
    # lam(x0, x1) = h1 is odd on an even pair: the product is not graded
    lam = GradedBilinearMap.from_entries(a.space, a.space, h.space, [(0, 1, 1, ONE), (1, 0, 1, -ONE)])
    with pytest.raises(ValidationError) as exc:
        semidirect_product(a, h, theta, lam)
    v = exc.value.violations[0]
    assert v.equation == "grading" and tuple(v.indices) == (0, 1, 3)
    # an odd theta(x1) for an even x1 is refused before the bracket is built
    odd = (theta[0], GradedLinearMap.zero(h.space, h.space, 1))
    with pytest.raises(ValidationError) as exc:
        semidirect_product(a, h, odd, GradedBilinearMap.zero(a.space, a.space, h.space))
    assert type(exc.value) is ValidationError
    assert exc.value.violations[0].equation == "theta-degree" and exc.value.violations[0].indices == (1,)


def test_semidirect_lambda_not_super_skew():
    a = LieSuperAlgebra.abelian(space_of([0, 0]))
    h = LieSuperAlgebra.abelian(space_of([0], prefix="h"))
    theta = tuple(GradedLinearMap.zero(h.space, h.space, 0) for _ in range(2))
    lam = GradedBilinearMap.from_entries(a.space, a.space, h.space, [(0, 1, 0, ONE)])  # no (1, 0) partner
    with pytest.raises(ValidationError) as exc:
        semidirect_product(a, h, theta, lam)
    v = exc.value.violations[0]
    assert v.equation == "super-skew" and tuple(v.indices) == (0, 1)
    assert v.residual == (ZERO, ZERO, ONE)


def test_semidirect_cyclic_condition_failure():
    # a = span(x0, x1, x2), [x0, x1] = x1, x2 central; theta = 0 and h abelian,
    # so theta is a derivation and the curvature condition holds, but the
    # cyclic sum of lam(x, [y, z]_a) on (x0, x1, x2) is lam(x2, x1) = -h0
    a = LieSuperAlgebra(build_bracket(space_of([0, 0, 0]), [(0, 1, 1, ONE)]))
    h = LieSuperAlgebra.abelian(space_of([0], prefix="h"))
    theta = tuple(GradedLinearMap.zero(h.space, h.space, 0) for _ in range(3))
    lam = GradedBilinearMap.from_entries(a.space, a.space, h.space, [(1, 2, 0, ONE), (2, 1, 0, -ONE)])
    with pytest.raises(ValidationError) as exc:
        semidirect_product(a, h, theta, lam)
    v = exc.value.violations[0]
    assert v.equation == "jacobi" and tuple(v.indices) == (0, 1, 2)
    assert v.residual == (ZERO, ZERO, ZERO, -ONE)


def test_degenerate_metric_witness_is_a_radical_vector():
    """A metric of rank below dim is refused with the first canonical vector
    of its radical as the exact residual: nonzero, and paired to zero with
    every basis vector on either side; the rank stays in the detail. The
    forms are random, homogeneous and super-symmetric, with one basis vector
    left out of every pairing, then moved by a parity-preserving basis."""
    rng = random.Random(23)
    ranks = set()
    for _ in range(80):
        n = rng.randint(1, 5)
        space = space_of([rng.randint(0, 1) for _ in range(n)])
        par, delta, dropped = space.parities, rng.randint(0, 1), rng.randrange(n)
        entries = []
        for i in range(n):
            for j in range(i, n):
                sign = -1 if par[i] * par[j] else 1
                if dropped in (i, j) or (par[i] + par[j]) % 2 != delta or (i == j and sign < 0) or rng.random() < 0.3:
                    continue
                c = rand_scalar(rng, nonzero=True)
                entries += [(i, j, c)] + ([(j, i, sign * c)] if i != j else [])
        form = GradedBilinearForm.from_entries(space, delta, entries)
        form = change_basis_form(form, random_parity_preserving_basis(rng, space))
        with pytest.raises(ValidationError) as exc:
            QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(form.space), form)
        (v,) = exc.value.violations
        rank = form.rank()
        assert v.equation == "non-degenerate" and v.detail == f"metric rank {rank} below dim {n}"
        w = v.residual
        assert any(w) and w == linalg.nullspace(form.matrix, n)[0]
        for i in range(n):
            assert form.value(unit_vec(n, i), w) == 0 and form.value(w, unit_vec(n, i)) == 0
        ranks.add(rank)
    assert len(ranks) >= 4
