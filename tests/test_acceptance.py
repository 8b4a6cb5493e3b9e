"""Acceptance suite: one test per criterion, exact (tolerance-zero) throughout.

Each test prints a single PASS line on success; any exact mismatch fails the
assertion carrying it. Criteria 1, 2 and 5 share one seeded corpus of fifty
validated random contexts per metric degree (dim a <= 2, dim h <= 4, sampled
rational inputs with numerators and denominators bounded by 5).
"""

import random
import time
from fractions import Fraction

import pytest

from generators import (
    ad_map,
    bracket_law_violation,
    context_corpus,
    form_value,
    heisenberg_target,
    identity_map,
    intertwining_violation,
    lemma_residuals,
    odd_extension_dim1,
    psi_preconditions_hold,
    random_heisenberg_params,
    random_odd_dim1_params,
    random_superalgebra_scrambled,
    random_witt_instance,
    vector_parity,
)
from superquad import linalg
from superquad.algebra import (
    LieSuperAlgebra,
    QuadraticLieSuperAlgebra,
    SuperBracket,
    certify_isometry,
    check_invariance,
    check_jacobi,
    delta_coadjoint,
)
from superquad.catalog import (
    default_heisenberg_params,
    default_odd_dim1_params,
    heisenberg_context,
    heisenberg_extension,
    odd_extension_context,
)
from superquad.decompose import _view, decompose, witt_complement
from superquad.errors import NotHomogeneous
from superquad.extension import (
    DeltaContext,
    contexts_equal,
    double_extend,
    validate_context,
)
from superquad.linalg import ONE, ZERO, unit_vec
from superquad.spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    check_form_degree,
)

F = Fraction
CORPUS_SIZE = 50


def test_criterion_1_valid_contexts_extend_to_quadratic_algebras():
    start = time.monotonic()
    failures = 0
    total = 0
    for delta in (0, 1):
        for ctx in context_corpus(delta, CORPUS_SIZE):
            assert ctx.a.dim <= 2 and ctx.h.dim <= 4
            total += 1
            g = double_extend(ctx)
            ok = (check_jacobi(g.bracket) is None
                  and check_invariance(g.metric, g.bracket) is None
                  and check_form_degree(g.metric) == delta
                  and g.metric.rank() == g.dim)
            failures += 0 if ok else 1
    elapsed = time.monotonic() - start
    assert total == 2 * CORPUS_SIZE and failures == 0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 context-validity => quadratic output "
          f"({total} contexts, {elapsed:.2f}s): PASS")


def test_criterion_2_lemma_identities_hold_on_corpus():
    for delta in (0, 1):
        for ctx in context_corpus(delta, CORPUS_SIZE):
            assert lemma_residuals(ctx) == []
    print(f"\nACCEPTANCE 2 derived-identity lemma on {2 * CORPUS_SIZE} contexts: PASS")


def test_criterion_3_delta_coadjoint_laws():
    rng = random.Random(303)
    count = 0
    while count < CORPUS_SIZE:
        g = random_superalgebra_scrambled(rng, 5)
        count += 1
        for delta in (0, 1):
            assert intertwining_violation(g, delta) is None  # intertwining, entrywise
            assert bracket_law_violation(g, delta_coadjoint(g, delta)) is None  # bracket compatibility
    print(f"\nACCEPTANCE 3 delta-coadjoint laws on {count} algebras: PASS")


def test_criterion_4_witt_complement_conclusions():
    rng = random.Random(404)
    for delta in (1, 0):
        for _ in range(CORPUS_SIZE):
            space, form, ideal = random_witt_instance(rng, delta)
            d, ints = witt_complement(form, _view(ideal))
            a = [linalg._dense(d, v, space.dim) for v in ints]
            r = len(ideal)
            assert len(a) == r                                    # (ii)
            for i in range(r):
                assert vector_parity(space, a[i]) is not None
                for j in range(r):
                    assert form_value(form, a[i], a[j]) == 0            # (i)
                    want = ONE if i == j else ZERO
                    assert form_value(form, ideal[i], a[j]) == want     # identity pairing
                    if delta == 1:
                        assert form_value(form, a[j], ideal[i]) == want
            stack = list(ideal) + a
            assert linalg.rank(stack, space.dim) == 2 * r         # (iii)
            gram = [[form_value(form, u, v) for v in stack] for u in stack]
            assert linalg.rank(gram, 2 * r) == 2 * r              # (iv)
    print(f"\nACCEPTANCE 4 isotropic complements, {CORPUS_SIZE} odd + "
          f"{CORPUS_SIZE} even instances: PASS")


def test_criterion_5_roundtrip_through_decomposition():
    mismatched = 0
    for delta in (0, 1):
        for ctx in context_corpus(delta, CORPUS_SIZE):
            g = double_extend(ctx)
            na = ctx.a.dim
            ideal = [unit_vec(g.dim, g.dim - na + k) for k in range(na)]
            res = decompose(g, ideal)  # certifies the isometry internally
            again = double_extend(res.context)
            if again.bracket.table != g.bracket.table or again.metric.matrix != g.metric.matrix:
                mismatched += 1
            if not contexts_equal(ctx, res.context):
                mismatched += 1
    assert mismatched == 0
    print(f"\nACCEPTANCE 5 decomposition round trip on {2 * CORPUS_SIZE} contexts: PASS")


def test_criterion_6_catalog_specialisations():
    rng = random.Random(606)
    psi_checked = 0
    heis_params = [default_heisenberg_params()] + [random_heisenberg_params(rng)
                                                   for _ in range(20)]
    for p in heis_params:
        g1 = heisenberg_extension(p)
        g2 = double_extend(heisenberg_context(p))
        assert g1.bracket.table == g2.bracket.table
        assert g1.metric.matrix == g2.metric.matrix
        if psi_preconditions_hold(p):
            target = heisenberg_target(p)
            assert certify_isometry(g1.bracket.scaled_pairs, g1.metric.scaled_rows,
                                    target.bracket.scaled_pairs, target.metric.scaled_rows) is None
            psi_checked += 1
    odd_params = [default_odd_dim1_params(F(1))] + [random_odd_dim1_params(rng)
                                                    for _ in range(20)]
    for p in odd_params:
        g1 = odd_extension_dim1(p)
        g2 = double_extend(odd_extension_context(p))
        assert g1.bracket.table == g2.bracket.table
        assert g1.metric.matrix == g2.metric.matrix
    assert psi_checked >= 1
    print(f"\nACCEPTANCE 6 catalog = generic extension on {len(heis_params)} + "
          f"{len(odd_params)} parameter sets (psi verified {psi_checked}x): PASS")


# ---------------------------------------------------------------------------
# criterion 7: fixed corruption suite


def _heis():
    return heisenberg_extension(default_heisenberg_params())


def _mutate_bracket(g, changes):
    table = [[list(v) for v in row] for row in g.bracket.table]
    for i, j, k, c in changes:
        table[i][j][k] += c
    return SuperBracket(g.space, tuple(tuple(tuple(v) for v in row) for row in table))


def _mutate_metric(g, changes):
    rows = [list(r) for r in g.metric.matrix]
    for i, j, c in changes:
        rows[i][j] += c
    return GradedBilinearForm(g.space, g.metric.degree, tuple(tuple(r) for r in rows))


def _corruption_cases():
    g = _heis()

    def case_grading():
        b = _mutate_bracket(g, [(0, 1, 3, ONE), (1, 0, 3, -ONE)])
        v = b.check_even("grading", "bracket")
        assert v is not None and v.equation == "grading" and tuple(v.indices) == (0, 1, 3)
        assert b.check_super_skew("super-skew") is None

    def case_super_skew():
        b = _mutate_bracket(g, [(0, 1, 1, ONE)])
        assert b.check_even("grading", "bracket") is None
        v = b.check_super_skew("super-skew")
        assert v is not None and v.equation == "super-skew" and tuple(v.indices) == (0, 1)

    def case_jacobi():
        b = _mutate_bracket(g, [(1, 2, 2, ONE), (2, 1, 2, -ONE)])
        assert b.check_even("grading", "bracket") is None and b.check_super_skew("super-skew") is None
        v = check_jacobi(b)
        assert v is not None and v.equation == "jacobi"
        i, j, k = v.indices
        from test_algebra import brute_jacobi
        assert (i, j, k) in set(brute_jacobi(b))

    def case_invariance():
        m = _mutate_metric(g, [(1, 2, ONE), (2, 1, ONE)])
        assert m.check_supersymmetry() is None
        assert check_form_degree(m) == 1
        v = check_invariance(m, g.bracket)
        assert v is not None and v.equation == "invariance"
        i, j, k = v.indices
        lhs = form_value(m, g.bracket.value(i, j), unit_vec(4, k))
        rhs = form_value(m, unit_vec(4, i), g.bracket.value(j, k))
        assert lhs != rhs

    def case_homogeneity():
        m = _mutate_metric(g, [(1, 1, ONE)])
        with pytest.raises(NotHomogeneous):
            check_form_degree(m)

    def case_super_symmetry():
        m = _mutate_metric(g, [(2, 1, F(-2))])
        assert check_form_degree(m) == 1
        v = m.check_supersymmetry()
        assert v is not None and v.equation == "super-symmetry" and tuple(v.indices) in {(1, 2), (2, 1)}

    def case_non_degeneracy():
        sp = SuperSpace((("u", 0), ("v", 0)))
        m = GradedBilinearForm(sp, 0, ((1, 0), (0, 0)))
        assert m.check_supersymmetry() is None
        assert check_form_degree(m) == 0
        assert check_invariance(m, SuperBracket.zero(sp)) is None
        assert m.rank() == 1 < 2

    def _h4_odd_context(lam_vec, eta=ONE):
        a = LieSuperAlgebra.abelian(SuperSpace((("y", 1),)))
        rho = (GradedLinearMap.zero(g.space, g.space, 1),)
        lam = GradedBilinearMap(a.space, a.space, g.space, ((tuple(lam_vec),),))
        dual = SuperSpace((("P(y)*", 0),))
        omega = GradedBilinearMap(a.space, a.space, dual, (((eta,),),))
        return DeltaContext(1, a, g, rho, lam, omega)

    def case_deh1():
        # valid with lambda(y,y) = 0; corrupting it to x makes ad(w) != 2 D^2
        assert validate_context(_h4_odd_context((ZERO,) * 4)) == []
        bad = _h4_odd_context((ONE, ZERO, ZERO, ZERO))
        violations = validate_context(bad)
        assert [(v.equation, tuple(v.indices)) for v in violations] == [("deh1", (0, 0))]

    def _d22_context(w_vec):
        sp = SuperSpace((("e1", 0), ("e2", 0), ("f1", 1), ("f2", 1)))
        rows = [[ZERO] * 4 for _ in range(4)]
        for i in range(2):
            rows[i][2 + i] = ONE
            rows[2 + i][i] = ONE
        h = QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(sp),
                                     GradedBilinearForm(sp, 1, tuple(tuple(r) for r in rows)))
        dmat = [[ZERO] * 4 for _ in range(4)]
        dmat[3][0] = ONE
        dmat[2][1] = -ONE
        d = GradedLinearMap(sp, sp, 1, tuple(tuple(r) for r in dmat))
        a = LieSuperAlgebra.abelian(SuperSpace((("y", 1),)))
        lam = GradedBilinearMap(a.space, a.space, sp, ((tuple(w_vec),),))
        dual = SuperSpace((("P(y)*", 0),))
        omega = GradedBilinearMap.zero(a.space, a.space, dual)
        return DeltaContext(1, a, h, (d,), lam, omega)

    def case_deh2():
        # D(e1) = f2 kills no even vector: w = e1 breaks only the cocycle sum
        assert validate_context(_d22_context((ZERO,) * 4)) == []
        violations = validate_context(_d22_context((ONE, ZERO, ZERO, ZERO)))
        assert {v.equation for v in violations} == {"deh2"}
        assert all(tuple(v.indices) == (0, 0, 0) for v in violations)

    def _solvable_odd_context(t):
        a_sp = SuperSpace((("x0", 0), ("x1", 1)))
        bracket = SuperBracket.from_entries(a_sp, [(0, 1, 1, ONE), (1, 0, 1, -ONE)])
        a = LieSuperAlgebra(bracket)
        hsp = SuperSpace(())
        h = QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(hsp),
                                     GradedBilinearForm(hsp, 1, ()))
        rho = (GradedLinearMap.zero(hsp, hsp, 0), GradedLinearMap.zero(hsp, hsp, 1))
        lam = GradedBilinearMap.zero(a_sp, a_sp, hsp)
        dual = SuperSpace((("P(x0)*", 1), ("P(x1)*", 0)))
        omega = GradedBilinearMap.from_entries(a_sp, a_sp, dual,
                                               [(1, 1, 1, t)] if t else [])
        return DeltaContext(1, a, h, rho, lam, omega)

    def case_deh3():
        assert validate_context(_solvable_odd_context(ZERO)) == []
        violations = validate_context(_solvable_odd_context(ONE))
        assert {v.equation for v in violations} == {"deh3"}
        assert violations[0].indices  # witness triple reported

    def case_super_cyclic():
        from test_extension import two_odd_generators_ctx
        good = two_odd_generators_ctx([(0, 0, 1, ONE), (0, 1, 0, ONE),
                                       (1, 0, 0, ONE), (1, 1, 1, F(2))])
        assert validate_context(good) == []
        bad = two_odd_generators_ctx([(0, 1, 0, ONE), (1, 0, 0, ONE)])
        violations = validate_context(bad)
        assert {v.equation for v in violations} == {"super-cyclic"}
        v = violations[0]
        i, j, k = v.indices
        sign = -1 if ((bad.a.space.parity(j) + bad.a.space.parity(k))
                      * bad.a.space.parity(i)) % 2 else 1
        assert bad.omega.value(i, j)[k] != sign * bad.omega.value(j, k)[i]

    def case_rho_not_derivation():
        ctx = heisenberg_context(default_heisenberg_params())
        h4 = _heis()
        a = LieSuperAlgebra.abelian(SuperSpace((("z", 0),)))
        good = DeltaContext(1, a, h4,
                            (ad_map(h4.bracket, 0),),
                            GradedBilinearMap.zero(a.space, a.space, h4.space),
                            GradedBilinearMap.zero(a.space, a.space, SuperSpace((("P(z)*", 1),))))
        assert validate_context(good) == []
        bad = DeltaContext(1, a, h4, (identity_map(h4.space),),
                           good.lam, good.omega)
        violations = validate_context(bad)
        equations = {v.equation for v in violations}
        assert "rho-derivation" in equations
        assert equations <= {"rho-derivation", "rho-skew"}
        assert any(tuple(v.indices) == (0,) for v in violations)

    return [
        ("grading", case_grading),
        ("super-skew", case_super_skew),
        ("jacobi", case_jacobi),
        ("invariance", case_invariance),
        ("homogeneity", case_homogeneity),
        ("super-symmetry", case_super_symmetry),
        ("non-degeneracy", case_non_degeneracy),
        ("deh1", case_deh1),
        ("deh2", case_deh2),
        ("deh3", case_deh3),
        ("super-cyclic", case_super_cyclic),
        ("rho-derivation", case_rho_not_derivation),
    ]


def test_criterion_7_corruption_suite_detects_every_axiom():
    cases = _corruption_cases()
    assert len(cases) == 12
    for _name, run in cases:
        run()
    print("\nACCEPTANCE 7 negative-path fidelity, 12/12 corruptions detected: PASS")


def test_criterion_8_cli_round_trip_and_determinism(tmp_path, capsys):
    from pathlib import Path
    from superquad.cli import main

    samples = Path(__file__).resolve().parent.parent / "samples"

    def run(*argv):
        code = main(list(argv))
        capsys.readouterr()
        return code

    for name, emit, sample in (
        ("heisenberg", "algebra", "heisenberg.algebra"),
        ("heisenberg", "context", "heisenberg.context"),
        ("odd-dim1", "algebra", "odd-dim1.algebra"),
        ("odd-dim1", "context", "odd-dim1.context"),
    ):
        first = tmp_path / ("a_" + sample)
        second = tmp_path / ("b_" + sample)
        assert run("catalog", name, "--emit", emit, "--out", str(first)) == 0
        assert run("catalog", name, "--emit", emit, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes() == (samples / sample).read_bytes()

    for sample in ("heisenberg.algebra", "odd-dim1.algebra"):
        assert run("verify", str(samples / sample)) == 0

    ext1, ext2 = tmp_path / "e1.alg", tmp_path / "e2.alg"
    assert run("extend", "--context", str(samples / "heisenberg.context"),
               "--out", str(ext1)) == 0
    assert run("extend", "--context", str(samples / "heisenberg.context"),
               "--out", str(ext2)) == 0
    assert ext1.read_bytes() == ext2.read_bytes()

    dec1, dec2 = tmp_path / "d1.ctx", tmp_path / "d2.ctx"
    assert run("decompose", str(samples / "heisenberg.algebra"), "--ideal", "auto",
               "--out", str(dec1)) == 0
    assert run("decompose", str(samples / "heisenberg.algebra"),
               "--ideal", str(samples / "heisenberg.ideal"), "--out", str(dec2)) == 0
    assert dec1.read_bytes() == dec2.read_bytes()

    for sample in ("heisenberg.context", "odd-dim1.context"):
        assert run("roundtrip", str(samples / sample)) == 0

    print("\nACCEPTANCE 8 CLI round trip on shipped samples, byte-identical reruns: PASS")
