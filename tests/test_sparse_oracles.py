"""Differential tests of the sparse kernels against dense references.

Each reference below is written from the defining identity and walks every
basis tuple of the dense ``table`` view and dense matrices, in the order the
library documents. On valid algebras both sides must pass; on planted
single-entry corruptions they must report the same first witness and the same
dense residual (or the same verdict, for the bool predicates).
"""

import copy
import functools
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from generators import (
    ad_map,
    change_basis,
    context_corpus,
    form_value,
    mat_sub,
    rand_scalar,
    random_context,
    random_parity_preserving_basis,
    random_superalgebra_scrambled,
    random_witt_instance,
    fractions,
    scaled_to_ints,
    space_of,
    sparse_vec,
    vector_parity,
)
import superquad.decompose as dec
from superquad import linalg
from superquad.algebra import (
    LieSuperAlgebra,
    QuadraticLieSuperAlgebra,
    SuperBracket,
    check_invariance,
    check_jacobi,
    cyclic_failures,
    delta_coadjoint,
    invariance_failures,
    is_derivation,
    is_metric_skew,
    lowest_slot,
    pack,
    slot_width,
    unpack,
)
from superquad.catalog import default_heisenberg_params, heisenberg_extension
from superquad.catalog import default_odd_dim1_params, heisenberg_context, odd_extension_context
from superquad.errors import ClaimViolated, DegenerateInput, InvalidContext
from superquad.extension import (
    DeltaContext,
    derive_chi,
    derive_phi,
    double_extend,
    extension_derivations,
    validate_context,
)
from test_algebra import brute_jacobi, brute_jacobi_residual
from superquad.linalg import ZERO, unit_vec
from superquad.spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    p_delta_dual,
    sparse_transpose,
)


def ref_invariance(form, bracket):
    """First (i, j, k) with B([e_i,e_j], e_k) != B(e_i, [e_j,e_k]), with lhs - rhs."""
    n, b, t = form.space.dim, form.matrix, bracket.table
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum((t[i][j][m] * b[m][k] for m in range(n)), ZERO)
                rhs = sum((b[i][m] * t[j][k][m] for m in range(n)), ZERO)
                if lhs != rhs:
                    return (i, j, k), lhs - rhs
    return None


def ref_check_even(bmap):
    """First (i, j, k) with a nonzero coefficient outside the (p_i + p_j) block."""
    pl, pr, pt = bmap.left.parities, bmap.right.parities, bmap.target.parities
    for i, row in enumerate(bmap.table):
        for j, v in enumerate(row):
            for k, c in enumerate(v):
                if c and pt[k] != (pl[i] + pr[j]) % 2:
                    return (i, j, k), c
    return None


def ref_super_skew(bmap):
    """First (i, j) with value(e_j, e_i) != -(-1)^{p_i p_j} value(e_i, e_j)."""
    par, t = bmap.left.parities, bmap.table
    for i in range(len(t)):
        for j in range(len(t)):
            sign = -1 if par[i] * par[j] else 1
            res = tuple(x + sign * y for x, y in zip(t[j][i], t[i][j]))
            if any(res):
                return (i, j), res
    return None


def ref_supersymmetry(form):
    """First (i, j) with B(e_i, e_j) != (-1)^{p_i p_j} B(e_j, e_i), with the difference."""
    par, b = form.space.parities, form.matrix
    for i in range(len(b)):
        for j in range(len(b)):
            res = b[i][j] - (-1 if par[i] * par[j] else 1) * b[j][i]
            if res:
                return (i, j), res
    return None


def ref_is_derivation(d, bracket):
    """D[e_i,e_j] = [D e_i, e_j] + (-1)^{|D||e_i|} [e_i, D e_j] on every pair."""
    n, dm, t = bracket.space.dim, d.matrix, bracket.table
    par = bracket.space.parities
    for i in range(n):
        for j in range(n):
            sign = -1 if (d.degree * par[i]) % 2 else 1
            for k in range(n):
                lhs = sum((dm[k][m] * t[i][j][m] for m in range(n)), ZERO)
                rhs = sum((dm[r][i] * t[r][j][k] + sign * dm[r][j] * t[i][r][k] for r in range(n)), ZERO)
                if lhs != rhs:
                    return False
    return True


def ref_is_metric_skew(d, form):
    """B(D e_i, e_j) = -(-1)^{|e_i||D|} B(e_i, D e_j) on every pair."""
    n, dm, b = form.space.dim, d.matrix, form.matrix
    par = form.space.parities
    for i in range(n):
        for j in range(n):
            sign = -1 if (par[i] * d.degree) % 2 else 1
            lhs = sum((dm[r][i] * b[r][j] for r in range(n)), ZERO)
            rhs = -sign * sum((b[i][r] * dm[r][j] for r in range(n)), ZERO)
            if lhs != rhs:
                return False
    return True


# The samples below are built on first use, not at import, so that a kernel
# defect fails the tests that use them instead of the module's collection.
@functools.cache
def extensions() -> tuple:
    """Double extensions of seeded random contexts with dim a 2 to 4, delta 0 and 1."""
    out = []
    for delta in (0, 1):
        rng = random.Random(900 + delta)
        while sum(1 for ctx, _ in out if ctx.delta == delta) < 8:
            ctx = random_context(rng, delta, max_a=4)
            if ctx.a.dim >= 2:
                out.append((ctx, double_extend(ctx)))
    return tuple(out)


def planted(rng, bmap, cls=GradedBilinearMap, draw=rand_scalar):
    """The map with one extra coefficient, from draw, at a random (i, j, k)."""
    i, j, k = (rng.randrange(s.dim) for s in (bmap.left, bmap.right, bmap.target))
    entries = bmap.entries() + [(i, j, k, draw(rng, nonzero=True))]
    if cls is SuperBracket:
        return SuperBracket.from_entries(bmap.target, entries)
    return GradedBilinearMap.from_entries(bmap.left, bmap.right, bmap.target, entries)


def same_witness(violation, reference):
    if reference is None:
        return violation is None
    indices, residual = reference
    return violation is not None and violation.indices == indices and violation.residual == residual


def test_sample_covers_both_parities_and_dims():
    dims = {ctx.a.dim for ctx, _ in extensions()}
    assert {ctx.delta for ctx, _ in extensions()} == {0, 1}
    assert min(dims) >= 2 and max(dims) >= 3
    assert sum(1 for _, g in extensions() if len(set(g.space.parities)) == 2) >= 8


def test_valid_algebras_pass_both():
    for ctx, g in extensions():
        assert check_invariance(g.metric, g.bracket) is None
        assert ref_invariance(g.metric, g.bracket) is None
        for bmap in (g.bracket, ctx.lam, ctx.omega, ctx.h.bracket, ctx.a.bracket):
            assert bmap.check_even() is None and ref_check_even(bmap) is None
        for bmap in (g.bracket, ctx.lam, ctx.omega):
            assert bmap.check_super_skew() is None and ref_super_skew(bmap) is None
        for t in ctx.rho:
            assert is_derivation(t, ctx.h.bracket) and ref_is_derivation(t, ctx.h.bracket)
            assert is_metric_skew(t, ctx.h.metric) and ref_is_metric_skew(t, ctx.h.metric)


def test_planted_bracket_entry_same_first_witness():
    rng = random.Random(31)
    found = {"even": 0, "skew": 0, "invariance": 0}
    for _ in range(4):
        for _, g in extensions():
            bad = planted(rng, g.bracket, SuperBracket)
            even, skew = bad.check_even("grading", "bracket"), bad.check_super_skew("super-skew")
            assert same_witness(even, ref_check_even(bad))
            assert same_witness(skew, ref_super_skew(bad))
            inv = check_invariance(g.metric, bad)
            assert same_witness(inv, ref_invariance(g.metric, bad))
            found["even"] += even is not None
            found["skew"] += skew is not None
            found["invariance"] += inv is not None
    assert min(found.values()) >= 10


def test_planted_metric_entry_same_invariance_witness():
    rng = random.Random(32)
    found = 0
    for _ in range(4):
        for _, g in extensions():
            n = g.dim
            rows = [list(r) for r in g.metric.matrix]
            rows[rng.randrange(n)][rng.randrange(n)] += rand_scalar(rng, nonzero=True)
            form = GradedBilinearForm(g.space, g.delta, rows)
            v = check_invariance(form, g.bracket)
            assert same_witness(v, ref_invariance(form, g.bracket))
            found += v is not None
    assert found >= 10


def test_planted_lambda_omega_entry_same_first_witness():
    rng = random.Random(33)
    found = 0
    for _ in range(4):
        for ctx, _ in extensions():
            for bmap in (ctx.lam, ctx.omega):
                if not bmap.target.dim:
                    continue
                bad = planted(rng, bmap)
                even, skew = bad.check_even(), bad.check_super_skew()
                assert same_witness(even, ref_check_even(bad))
                assert same_witness(skew, ref_super_skew(bad))
                found += skew is not None
    assert found >= 10


def planted_map(rng, d):
    """d with one extra homogeneous matrix entry, or None when d has no room for one."""
    n = d.source.dim
    room = [(r, c) for r in range(n) for c in range(n)
            if d.target.parity(r) == (d.source.parity(c) + d.degree) % 2]
    if not room:
        return None
    r, c = rng.choice(room)
    rows = [list(row) for row in d.matrix]
    rows[r][c] += rand_scalar(rng, nonzero=True)
    return GradedLinearMap(d.source, d.target, d.degree, rows)


def test_planted_map_entry_same_verdict():
    rng = random.Random(34)
    failed = {"derivation": 0, "skew": 0}
    for _ in range(3):
        for ctx, g in extensions():
            cases = [(t, ctx.h) for t in ctx.rho if ctx.h.dim]
            for i in rng.sample(range(g.dim), 3):
                ad = ad_map(g.bracket, i)
                assert is_derivation(ad, g.bracket) and is_metric_skew(ad, g.metric)
                cases.append((ad, g))
            for t, alg in cases:
                bad = planted_map(rng, t)
                if bad is None:
                    continue
                der = is_derivation(bad, alg.bracket)
                assert der == ref_is_derivation(bad, alg.bracket)
                skew = is_metric_skew(bad, alg.metric)
                assert skew == ref_is_metric_skew(bad, alg.metric)
                failed["derivation"] += not der
                failed["skew"] += not skew
    assert min(failed.values()) >= 10


def test_few_entry_structures_same_witness():
    """Brackets and forms with a few random entries, graded, skew or not, have
    several violations at once, so the scan order and every rule that picks
    the tuples to visit decide the first witness."""
    rng = random.Random(35)
    seen = {"even": 0, "skew": 0, "jacobi": 0, "invariance": 0, "supersymmetry": 0,
            "derivation": 0, "metric-skew": 0}
    for _ in range(400):
        n = rng.randint(1, 5)
        sp = space_of([rng.randint(0, 1) for _ in range(n)])
        bracket = SuperBracket.from_entries(sp, [
            (rng.randrange(n), rng.randrange(n), rng.randrange(n), rand_scalar(rng, nonzero=True))
            for _ in range(rng.randint(0, 4))])
        rows = [[ZERO] * n for _ in range(n)]
        for _ in range(rng.randint(0, 3)):
            rows[rng.randrange(n)][rng.randrange(n)] = rand_scalar(rng, nonzero=True)
        form = GradedBilinearForm(sp, rng.randint(0, 1), rows)
        d = planted_map(rng, GradedLinearMap.zero(sp, sp, rng.randint(0, 1)))

        even, skew = bracket.check_even(), bracket.check_super_skew()
        assert same_witness(even, ref_check_even(bracket))
        assert same_witness(skew, ref_super_skew(bracket))
        jac, oracle = check_jacobi(bracket), brute_jacobi(bracket)
        first = min((t for t in oracle if t[0] <= t[1] <= t[2]), default=None)
        assert same_witness(jac, first and (first, brute_jacobi_residual(bracket, *first)))
        inv = check_invariance(form, bracket)
        assert same_witness(inv, ref_invariance(form, bracket))
        sym = form.check_supersymmetry()
        assert same_witness(sym, ref_supersymmetry(form))
        seen["supersymmetry"] += sym is not None
        seen["even"] += even is not None
        seen["skew"] += skew is not None
        seen["jacobi"] += jac is not None
        seen["invariance"] += inv is not None
        if d is not None:
            der, mskew = is_derivation(d, bracket), is_metric_skew(d, form)
            assert der == ref_is_derivation(d, bracket)
            assert mskew == ref_is_metric_skew(d, form)
            seen["derivation"] += not der
            seen["metric-skew"] += not mskew
    assert min(seen.values()) >= 40


def ref_split_violation(g, ideal, a_vectors, h_vectors):
    """First block-rule failure of the bracket along g = a + h + I, from the
    dense table and a dense change of basis, scanning (p, q) row-major."""
    cols = list(a_vectors) + list(h_vectors) + list(ideal)
    na, nh, n = len(a_vectors), len(h_vectors), g.dim
    m_inv = linalg.inverse(linalg.transpose(cols))
    t = g.bracket.table
    block = ["a"] * na + ["h"] * nh + ["i"] * len(ideal)
    for p in range(n):
        for q in range(n):
            w = [sum((cols[p][i] * cols[q][j] * t[i][j][k] for i in range(n) for j in range(n)), ZERO)
                 for k in range(n)]
            z = linalg.mat_vec(m_inv, w)
            ca, ch, ci = z[:na], z[na:na + nh], z[na + nh:]
            kinds = {block[p], block[q]}
            if kinds == {"a"}:
                continue
            if kinds == {"a", "h"}:
                if any(ca):
                    return "split-a-h", (p, q), ca
            elif kinds == {"h"}:
                if any(ca):
                    return "split-h-h", (p, q), ca
            elif kinds == {"a", "i"}:
                if any(ca) or any(ch):
                    return "split-a-ideal", (p, q), (ca, ch)
            elif any(z):
                return "split-centraliser", (p, q), (ca, ch, ci)
    return None


# the claims under which decompose refuses a split that only the isometry sees
ISOMETRY_CLAIMS = ("isometry-bracket", "isometry-metric")


def decompose_along(g, ideal, a, h):
    """decompose's certificate, ``certify_split``, of the split (a, h, I)
    given as rational vectors; the ClaimViolated, or None."""
    try:
        dec.certify_split(g, *map(dec._view, (ideal, a, h)))
    except ClaimViolated as exc:
        return exc
    return None


def test_decompose_refuses_every_split_the_block_rules_refuse():
    """Random homogeneous bases cut into a / h / I blocks are rarely an ideal
    split. extract_structure_maps checks no block rule; each split the
    dense reference finds a broken rule in is refused by decompose's
    isometry, with a ClaimViolated, and never passes. A random a and h
    pair wrongly with each other and with I, and the pairings are compared
    first, so every refusal here names an entry of the metric
    (``isometry-metric``)."""
    rng = random.Random(36)
    found = refused = 0
    for _ in range(2):
        for _, g in extensions():
            cols = random_parity_preserving_basis(rng, g.space)
            nd = rng.randint(1, g.dim // 2)
            a, h, ideal = cols[:nd], cols[nd:g.dim - nd], cols[g.dim - nd:]
            exc = decompose_along(g, ideal, a, h)
            assert exc is None or exc.claim == "isometry-metric", exc
            refused += exc is not None
            if ref_split_violation(g, ideal, a, h) is not None:
                assert exc is not None
                found += 1
    assert found >= 10 and refused == found


def test_decompose_refuses_a_planted_witt_complement():
    """A Witt complement with one vector shifted by an h vector of its
    parity, or scaled by 2, breaks the pairing the isometry's metric
    compares; decompose refuses it with a ClaimViolated."""
    shifted = scaled = 0
    for g, res in splits():
        ideal, a, h = res.ideal_basis, list(res.a_basis), res.h_basis
        plants = [[*a[:-1], tuple(2 * c for c in a[-1])]]
        for i, x in enumerate(a):
            w = next((w for w in h if vector_parity(g.space, w) == vector_parity(g.space, x)), None)
            if w is not None:
                plants.append([*a[:i], tuple(c + e for c, e in zip(x, w)), *a[i + 1:]])
                break
        for planted_a in plants:
            exc = decompose_along(g, ideal, planted_a, h)
            assert exc is not None and exc.claim in ISOMETRY_CLAIMS, exc
        scaled += 1
        shifted += len(plants) - 1
    assert scaled >= 10 and shifted >= 10
    for g, res in splits():  # the same harness, fed the real split, passes
        assert decompose_along(g, res.ideal_basis, res.a_basis, res.h_basis) is None


def planted_tables(monkeypatch, plant):
    """The samples, built by the real tables and rebuilt by the checking
    constructor, so that no record names the context to reuse; then the two
    table builders are patched so that ``plant(bracket, metric)`` rewrites
    their tables, and decompose's algebra builds, ``_admit`` and the
    scanning constructors, to record each planted table they are handed.
    decompose reads the metric first, so the metric builder plants in the
    bracket built ahead of it, which the bracket builder then returns."""
    import superquad.extension as extension_module

    samples = [(ctx, QuadraticLieSuperAlgebra(LieSuperAlgebra(g.bracket), g.metric)) for ctx, g in extensions()]
    real_metric, real_bracket = extension_module.extension_metric, extension_module.extension_bracket
    planted, built = [], []  # planted: the planted bracket, then its metric

    def planting_metric(context):
        bracket, metric = plant(real_bracket(context), real_metric(context))
        planted.extend((bracket, metric))
        return metric

    def planting_bracket(context):
        return planted[-2]

    def recording(build):
        def record(*tables):
            built.extend(t for t in tables if any(t is p for p in planted))
            return build(*tables)
        return record

    monkeypatch.setattr(extension_module, "extension_metric", planting_metric)
    monkeypatch.setattr(extension_module, "extension_bracket", planting_bracket)
    for name in ("_admit", "LieSuperAlgebra", "QuadraticLieSuperAlgebra"):
        monkeypatch.setattr(dec, name, recording(getattr(dec, name)))
    return samples, built


def test_isometry_witness_on_a_planted_extension(monkeypatch):
    """decompose compares g in the split basis with the re-extension; a
    coefficient planted in the re-extension is reported at its pair, with the
    dense residual, whether or not g has a nonzero bracket there, and the
    planted tables are never built into an algebra. The re-extension's
    tables are those the extension module's extension_metric and
    extension_bracket assemble."""
    rng = random.Random(37)
    planted_at = []

    def plant(bracket, metric):
        i, j, k = (rng.randrange(bracket.space.dim) for _ in range(3))
        c = rand_scalar(rng, nonzero=True)
        planted_at.append((i, j, k, c))
        return SuperBracket.from_entries(bracket.space, bracket.entries() + [(i, j, k, c)]), metric

    samples, built = planted_tables(monkeypatch, plant)
    zero_in_g = 0
    for ctx, g in samples:
        na = ctx.a.dim
        with pytest.raises(ClaimViolated) as exc:
            dec.decompose(g, [unit_vec(g.dim, g.dim - na + k) for k in range(na)])
        i, j, k, c = planted_at[-1]
        v = exc.value.violations[0]
        assert v.equation == "isometry-bracket" and v.indices == (i, j)
        assert v.residual == tuple(-c if r == k else ZERO for r in range(g.dim))
        zero_in_g += g.bracket.value(i, j) == linalg.zero_vec(g.dim)
    assert zero_in_g >= 3 and built == []


def test_isometry_metric_witness_on_a_planted_extension(monkeypatch):
    """An entry planted in the re-extension's metric, after its bracket has
    passed, is reported by isometry-metric at its (row, column), the first
    that differs, with the residual g's entry minus the re-extension's, and
    the planted tables are never built into an algebra."""
    rng = random.Random(38)
    planted_at = []

    def plant(bracket, metric):
        i, j = (rng.randrange(metric.space.dim) for _ in range(2))
        c = rand_scalar(rng, nonzero=True)
        planted_at.append(((i, j), c))
        return bracket, GradedBilinearForm.from_entries(metric.space, metric.degree, metric.entries() + [(i, j, c)])

    samples, built = planted_tables(monkeypatch, plant)
    for ctx, g in samples:
        na = ctx.a.dim
        with pytest.raises(ClaimViolated) as exc:
            dec.decompose(g, [unit_vec(g.dim, g.dim - na + k) for k in range(na)])
        (v,) = exc.value.violations
        (i, j), c = planted_at[-1]
        assert (exc.value.claim, v.equation, v.indices, v.residual) == ("isometry-metric", "isometry-metric",
                                                                         (i, j), -c)
    assert built == []


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89)


def scaled_basis(rng, space):
    """A parity-preserving basis whose column j is scaled by p_j / q_j, all
    primes distinct."""
    primes = rng.sample(PRIMES, 2 * space.dim)
    return [linalg.vec_scale(Fraction(p, q), col) for col, p, q in
            zip(random_parity_preserving_basis(rng, space), primes[::2], primes[1::2])]


def moved_extension(rng, g):
    """g in a ``scaled_basis``: constants and metric get large coprime denominators."""
    return change_basis(g, scaled_basis(rng, g.space))


def ref_jacobi(bracket):
    """First i <= j <= k, in lexicographic order, where the oracle's cyclic sum is nonzero."""
    n = bracket.space.dim
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                res = brute_jacobi_residual(bracket, i, j, k)
                if any(res):
                    return (i, j, k), res
    return None


def assert_integer_kernels_match(form, bracket):
    """check_jacobi and check_invariance against the Fraction references:
    same first witness, residual coordinates equal and of type Fraction."""
    jac, inv = check_jacobi(bracket), check_invariance(form, bracket)
    assert same_witness(jac, ref_jacobi(bracket))
    assert same_witness(inv, ref_invariance(form, bracket))
    if jac is not None:
        assert all(type(c) is Fraction for c in jac.residual)
    if inv is not None:
        assert type(inv.residual) is Fraction
    return jac is not None, inv is not None


def test_integer_kernels_match_references_on_coprime_denominators():
    rng = random.Random(38)
    found = {"jacobi": 0, "invariance": 0}
    for _, g in extensions()[::2]:
        moved = moved_extension(rng, g)
        assert moved.bracket.scaled_pairs[0] > 10 ** 6 and moved.metric.scaled_rows[0] > 10 ** 3
        assert assert_integer_kernels_match(moved.metric, moved.bracket) == (False, False)
        for _ in range(3):
            bad = planted(rng, moved.bracket, SuperBracket)
            jac, inv = assert_integer_kernels_match(moved.metric, bad)
            found["jacobi"] += jac
            found["invariance"] += inv
            rows = [list(r) for r in moved.metric.matrix]
            rows[rng.randrange(g.dim)][rng.randrange(g.dim)] += rand_scalar(rng, nonzero=True)
            _, inv = assert_integer_kernels_match(GradedBilinearForm(moved.space, g.delta, rows), moved.bracket)
            found["invariance"] += inv
    assert min(found.values()) >= 10


def test_integer_kernels_on_integer_and_zero_brackets():
    """d = 1 (every constant an integer, plantings too) and the zero bracket."""
    rng = random.Random(39)
    integral = [g for _, g in extensions()] + [heisenberg_extension(default_heisenberg_params(3))]
    integral = [g for g in integral if g.bracket.scaled_pairs[0] == g.metric.scaled_rows[0] == 1]
    assert len(integral) >= 3
    space = space_of([0, 1, 1, 0])
    zero = QuadraticLieSuperAlgebra(LieSuperAlgebra.abelian(space), GradedBilinearForm(space, 0, (
        (0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (1, 0, 0, 0))))
    assert zero.bracket.scaled_pairs == (1, {})
    found = 0
    for g in integral + [zero]:
        assert assert_integer_kernels_match(g.metric, g.bracket) == (False, False)
        for _ in range(4):
            bad = planted(rng, g.bracket, SuperBracket, draw=lambda rng, nonzero: rng.choice((-2, -1, 1, 2)))
            assert bad.scaled_pairs[0] == 1
            jac, inv = assert_integer_kernels_match(g.metric, bad)
            found += jac + inv
    assert found >= 10


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_sums_inside_the_bound_are_exact(data):
    """A sum of at most ``terms`` products c * pack(v), every factor at most
    ``top`` in absolute value, packed with ``slot_width(terms, top**2)``: it
    is the packed coordinate-wise sum, 0 only for the zero vector, and its
    lowest set bit is in the slot of the first nonzero coordinate."""
    top = data.draw(st.sampled_from([1, 2, 3, 7, 2 ** 64, 2 ** 200 + 1]))
    n, terms = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    coeff = st.one_of(st.sampled_from([-top, top]), st.integers(-top, top))
    products = data.draw(st.lists(st.tuples(coeff, st.dictionaries(st.integers(0, n - 1), coeff)),
                                  max_size=terms))
    w = slot_width(terms, top * top)
    total, exact = 0, {}
    for c, v in products:
        total += c * pack(v, w)
        for k, x in v.items():
            exact[k] = exact.get(k, 0) + c * x
    assert total == sum(x << (w * k) for k, x in exact.items())
    nonzero = [k for k, x in exact.items() if x]
    assert (total == 0) == (not nonzero)
    if nonzero:
        assert lowest_slot(total, w) == min(nonzero)


def test_slot_width_is_the_narrowest_exact_width():
    for terms, bound in ((1, 1), (3, 4), (30, 2 ** 400), (20, 3 ** 250)):
        w = slot_width(terms, bound)
        assert 2 ** (w - 1) <= terms * bound < 2 ** w
        # one bit fewer, a slot holding 2**(w-1) carries into the next one
        assert pack({0: 2 ** (w - 1), 1: -1}, w - 1) == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unpack_reads_back_every_signed_slot(data):
    """unpack gives back the nonzeros of a vector, in index order, packed
    at a width one bit wider than its largest coordinate, the coordinates
    at that bound included; a sum of packed vectors unpacks to the sum."""
    w = data.draw(st.sampled_from([2, 3, 8, 64, 201]))
    edge = 2 ** (w - 1) - 1
    coeff = st.one_of(st.sampled_from([-edge, edge, 0]), st.integers(-edge, edge))
    v = data.draw(st.dictionaries(st.integers(0, 12), coeff))
    nonzero = {k: c for k, c in sorted(v.items()) if c}
    assert unpack(pack(v, w), w) == nonzero and list(unpack(pack(v, w), w)) == list(nonzero)
    u = {k: -c // 2 for k, c in v.items()}  # each coordinate of the sum stays inside the bound
    total = {k: c + u[k] for k, c in v.items() if c + u[k]}
    assert unpack(pack(v, w) + pack(u, w), w) == dict(sorted(total.items()))


def test_change_of_basis_at_the_slot_bound():
    """A one-dimensional odd algebra [e, e] = c e in the basis a e: the new
    constant a c, times the scale a^2 c / a, is A^2 V I exactly, the bound
    the slots are sized for, on either sign and at powers of two."""
    space = space_of([1])
    for c in (1, -1, 2 ** 64, -(2 ** 64), 2 ** 200 + 1):
        bracket = SuperBracket.from_entries(space, [(0, 0, 0, c)])
        for a in (1, 2, 2 ** 63, 3 ** 40):
            scale, ints = dec._bracket_in_basis(bracket, (1, ({0: a},)), (a, ({0: 1},)))
            assert (scale, ints) == (a, {(0, 0): {0: a * a * c}})


def scaled_up(g, k_bracket, k_metric):
    """The bracket and metric of g times k_bracket and k_metric. Jacobi is
    quadratic and invariance bilinear in them, so both hold or fail as on g."""
    bracket = SuperBracket.from_entries(g.space, [(i, j, k, k_bracket * c) for i, j, k, c in g.bracket.entries()])
    form = GradedBilinearForm.from_entries(g.space, g.delta, [(i, j, k_metric * c) for i, j, c in g.metric.entries()])
    return bracket, form


def huge(rng, nonzero=True):
    return Fraction(rng.choice((-1, 1)) * rng.randrange(2 ** 199, 2 ** 200), rng.choice(PRIMES))


def test_packed_kernels_on_coefficients_near_2_to_the_200():
    """Moved extensions scaled by about 2^200, valid and with huge plantings:
    in the bracket, and in the metric at (p, 0), (p, n-1) or both with
    opposite signs, so that a residual sits only in slot 0, only in the top
    slot, or in both."""
    rng = random.Random(48)
    found = {"jacobi": 0, "invariance": 0}
    for _, g in extensions()[1::2]:
        bracket, form = scaled_up(moved_extension(rng, g), 2 ** 200 + 1, 3 ** 120)
        assert max(abs(c) for v in bracket.scaled_pairs[1].values() for c in v.values()) > 2 ** 200
        assert assert_integer_kernels_match(form, bracket) == (False, False)
        bad = planted(rng, bracket, SuperBracket, draw=huge)
        jac, inv = assert_integer_kernels_match(form, bad)
        found["jacobi"] += jac
        found["invariance"] += inv
        n, p, b = g.dim, rng.randrange(g.dim), huge(rng)
        for slots in ({0: b}, {n - 1: b}, {0: b, n - 1: -b}):
            rows = [list(r) for r in form.matrix]
            for q, x in slots.items():
                rows[p][q] += x
            bad_form = GradedBilinearForm(form.space, form.degree, rows)
            v = check_invariance(bad_form, bracket)
            assert same_witness(v, ref_invariance(bad_form, bracket))
            found["invariance"] += v is not None
    assert found["jacobi"] >= 5 and found["invariance"] >= 15


def jacobi_plant(parities, a, vectors):
    """A bracket whose only nonzero sorted cyclic sum is at (0, 1, 2): [e_1, e_2]
    = sum of a[t] e_{3+t} and [e_0, e_{3+t}] = vectors[t], each supported on
    0, 1 and dim-1 (the top slot), so the residual is
    (-1)^{|e_0||e_2|} sum of a[t] vectors[t]."""
    n = len(parities)
    entries = [(1, 2, 3 + t, c) for t, c in enumerate(a)]
    entries += [(0, 3 + t, k, c) for t, v in enumerate(vectors) for k, c in v.items()]
    bracket = SuperBracket.from_entries(space_of(parities), entries)
    sign = -1 if parities[0] * parities[2] else 1
    residual = [ZERO] * n
    for c, v in zip(a, vectors):
        for k, x in v.items():
            residual[k] += sign * c * x
    return bracket, tuple(residual)


def invariance_plant(parities, a, rows):
    """A bracket and form with B(e_i, [e_j, e_k]) = 0 everywhere and
    B([e_0, e_1], e_k) the only nonzero left side: [e_0, e_1] = sum of
    a[t] e_{2+t} and B(e_{2+t}, .) = rows[t], supported on 0, 1 and dim-1."""
    sp = space_of(parities)
    bracket = SuperBracket.from_entries(sp, [(0, 1, 2 + t, c) for t, c in enumerate(a)])
    form = GradedBilinearForm.from_entries(sp, 0, [(2 + t, k, c) for t, v in enumerate(rows) for k, c in v.items()])
    return bracket, form


def test_packed_kernels_on_residuals_at_the_slot_edges():
    """Residuals placed in slot 0 only, in the top slot only, in both with
    opposite signs, and r M^2 in one slot against -1 in the next, with M a
    power of two: a slot narrower than the bound lets the r M^2 carry into
    the next slot, where it cancels the -1 or moves the lowest set bit."""
    rng = random.Random(49)
    for e in list(range(9)) + [200]:
        big = 2 ** e
        for r in (1, 2, 4, 8):
            n = r + 6
            parities = [rng.randint(0, 1) for _ in range(n)]
            cases = [[(big, {0: big})], [(big, {n - 1: -big})], [(big, {0: big, n - 1: -big})],
                     [(big, {0: big})] * r + [(1, {1: -1})], [(big, {1: big})] * r]
            for case in cases:
                a, vectors = [c for c, _ in case], [v for _, v in case]
                bracket, residual = jacobi_plant(parities, a, vectors)
                assert residual == brute_jacobi_residual(bracket, 0, 1, 2)
                assert same_witness(check_jacobi(bracket), ((0, 1, 2), residual))
                bracket, form = invariance_plant(parities, a, vectors)
                k = min(k for k in range(n) if sum(c * v.get(k, 0) for c, v in case))
                v = check_invariance(form, bracket)
                assert v is not None and v.indices == (0, 1, k)
                assert v.residual == sum(c * w.get(k, 0) for c, w in case)
    # the same shapes on a few small dims against the dense references
    for r in (1, 2):
        parities = [rng.randint(0, 1) for _ in range(r + 6)]
        case = [(8, {0: 8})] * r + [(1, {1: -1})]
        bracket, _ = jacobi_plant(parities, [c for c, _ in case], [v for _, v in case])
        assert same_witness(check_jacobi(bracket), ref_jacobi(bracket))
        bracket, form = invariance_plant(parities, [c for c, _ in case], [v for _, v in case])
        assert same_witness(check_invariance(form, bracket), ref_invariance(form, bracket))


def test_packed_kernels_on_dims_0_and_1_and_zero_tables():
    empty = space_of([])
    assert check_jacobi(SuperBracket.zero(empty)) is None
    assert check_invariance(GradedBilinearForm.from_entries(empty, 0, ()), SuperBracket.zero(empty)) is None
    for parity in (0, 1):
        sp = space_of([parity])
        for c in (Fraction(0), Fraction(-3, 7), Fraction(2 ** 200 + 1, 3)):
            bracket = SuperBracket.from_entries(sp, [(0, 0, 0, c)])
            # [e, [e, e]] three times over: the three shifts of (0, 0, 0) coincide
            assert same_witness(check_jacobi(bracket), ref_jacobi(bracket))
            for b in (Fraction(0), Fraction(5, 3)):
                form = GradedBilinearForm.from_entries(sp, parity, [(0, 0, b)])
                assert same_witness(check_invariance(form, bracket), ref_invariance(form, bracket))
    for _, g in extensions()[:4]:
        zero_form = GradedBilinearForm.from_entries(g.space, g.delta, ())
        assert check_invariance(zero_form, g.bracket) is None
        assert check_invariance(g.metric, SuperBracket.zero(g.space)) is None
        assert check_jacobi(SuperBracket.zero(g.space)) is None


COEFFS = (-1, 1, -2, 2, -2 ** 64, 2 ** 64, 2 ** 200 + 1)


@functools.cache
def valid_algebras() -> tuple:
    """Seeded small Lie superalgebras, dims 1 to 7, over scrambled bases."""
    rng = random.Random(51)
    return tuple(random_superalgebra_scrambled(rng, max_dim=7) for _ in range(40))


@st.composite
def integer_tables(draw, skew=True):
    """(parities, entries): a table of integer structure constants, dim 0-7,
    both parities, coefficients drawn from COEFFS. With ``skew`` it is super
    skew: random, or a valid algebra's integer table times a coefficient
    with one planted single-entry defect (or none). Otherwise any entries."""
    if skew and draw(st.booleans()):
        g = draw(st.sampled_from(valid_algebras()))
        par, scale = g.space.parities, draw(st.sampled_from(COEFFS))
        entries = [(i, j, k, scale * c) for (i, j), v in g.bracket.scaled_pairs[1].items() for k, c in v.items()]
        n = len(par)
        plants = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3, st.sampled_from(COEFFS)), max_size=1))
    else:
        n = draw(st.integers(0, 7))
        par = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        entries = []
        plants = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3, st.sampled_from(COEFFS)),
                               max_size=24)) if n else []
    for i, j, k, c in plants:
        if skew and i == j and not par[i]:
            continue  # super skew forces [e_i, e_i] = 0 for even e_i
        entries.append((i, j, k, c))
        if skew and i != j:  # the partner [e_j, e_i] = -(-1)^{|i||j|} [e_i, e_j]
            entries.append((j, i, k, c if par[i] * par[j] else -c))
    return par, entries


def ref_cyclic_failures(bracket):
    """Every sorted triple i <= j <= k whose dense cyclic residual, over all
    three shifts, is nonzero; written on the dense Fraction table."""
    n, par, t = bracket.space.dim, bracket.space.parities, bracket.table
    out = set()
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                res = [ZERO] * n
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    sign = -1 if par[x] * par[z] else 1
                    for m in range(n):
                        if t[y][z][m]:
                            for r in range(n):
                                res[r] += sign * t[y][z][m] * t[x][m][r]
                if any(res):
                    out.add((i, j, k))
    return out


@settings(max_examples=300, deadline=None)
@given(integer_tables())
def test_cyclic_failures_is_the_full_set_on_super_skew_tables(table):
    """Every failing sorted triple, not only the first: validate_context reads
    each of them by its block (deh1, deh2, deh3)."""
    par, entries = table
    bracket = SuperBracket.from_entries(space_of(par), entries)
    assert bracket.check_super_skew("super-skew") is None
    assert cyclic_failures(par, bracket.scaled_pairs[1]) == ref_cyclic_failures(bracket)


@settings(max_examples=150, deadline=None)
@given(integer_tables(skew=False))
def test_cyclic_failures_is_the_full_set_on_any_table(table):
    """No super skew precondition for the set of sorted triples: a sorted
    triple is reported exactly when its own cyclic residual is nonzero."""
    par, entries = table
    bracket = SuperBracket.from_entries(space_of(par), entries)
    assert cyclic_failures(par, bracket.scaled_pairs[1]) == ref_cyclic_failures(bracket)


def ref_invariance_failures(form, bracket):
    """{(i, j): least k with B([e_i, e_j], e_k) != B(e_i, [e_j, e_k])} on the dense tables."""
    n, b, t = form.space.dim, form.matrix, bracket.table
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum((t[i][j][m] * b[m][k] for m in range(n)), ZERO)
                rhs = sum((b[i][m] * t[j][k][m] for m in range(n)), ZERO)
                if lhs != rhs:
                    out[i, j] = k
                    break
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_invariance_failures_is_the_full_dict(data):
    """Every failing pair with its least k, on super skew and arbitrary
    brackets against random metric rows (a planted metric entry among them)."""
    par, entries = data.draw(integer_tables(skew=data.draw(st.booleans())))
    n = len(par)
    rows = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(COEFFS)),
                              max_size=2 * n)) if n else []
    space = space_of(par)
    bracket = SuperBracket.from_entries(space, entries)
    form = GradedBilinearForm.from_entries(space, data.draw(st.integers(0, 1)), rows)
    assert invariance_failures(form, bracket) == ref_invariance_failures(form, bracket)


def ref_bracket_in_basis(bracket, cols):
    """{(p, q): nonzero coordinates of M^-1 [c_p, c_q]}, M the matrix with
    columns ``cols``, in Fractions over the dense table."""
    n, t = len(cols), bracket.table
    m_inv = linalg.inverse(linalg.transpose(cols))
    out = {}
    for p in range(n):
        for q in range(n):
            w = linalg.zero_vec(n)
            for i in range(n):
                for j in range(n):
                    if cols[p][i] and cols[q][j]:
                        w = linalg.vec_add(w, linalg.vec_scale(cols[p][i] * cols[q][j], t[i][j]))
            z = sparse_vec(linalg.mat_vec(m_inv, w))
            if z:
                out[(p, q)] = z
    return out


def test_integer_change_of_basis_matches_the_dense_reference():
    """The integer change of basis of decompose against the Fraction
    reference, on moved extensions and catalog Heisenberg, into bases whose
    columns are scaled by p/q: the columns and the inverse then carry
    different lcms, both above 10^3, and the bracket's own scale differs
    from both on the moved extensions; three extensions with constants
    near 2^200 give packed slots far wider than a machine word."""
    rng = random.Random(44)
    brackets = [moved_extension(rng, g).bracket for _, g in extensions()[::2]]
    brackets.append(heisenberg_extension(default_heisenberg_params(3)).bracket)
    brackets += [scaled_up(g, 2 ** 200 + 1, 1)[0] for _, g in extensions()[1:8:3]]  # constants near 2^200
    for bracket in brackets:
        cols = scaled_basis(rng, bracket.space)
        sparse_cols = [sparse_vec(c) for c in cols]
        m_inv = linalg.inverse(linalg.transpose(cols))
        d_c, d_i = scaled_to_ints(sparse_cols)[0], scaled_to_ints(map(sparse_vec, m_inv))[0]
        assert d_c != d_i and min(d_c, d_i) > 10 ** 3
        inv_cols = sparse_transpose(map(sparse_vec, m_inv), len(cols))
        scale, ints = dec._bracket_in_basis(bracket, scaled_to_ints(sparse_cols), scaled_to_ints(inv_cols))
        assert all(type(c) is int and c for z in ints.values() for c in z.values())
        got = {pq: {k: Fraction(c, scale) for k, c in z.items()} for pq, z in ints.items()}
        assert got and got == ref_bracket_in_basis(bracket, cols)
        assert list(got) == sorted(got)


# ---------------------------------------------------------------------------
# Linear maps and forms, stored by their nonzeros, against dense references


def ref_mat_vec(m, v):
    return tuple(sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in m)


def ref_value(form, u, v):
    n, b = form.space.dim, form.matrix
    return sum((u[i] * b[i][j] * v[j] for i in range(n) for j in range(n)), ZERO)


def ref_orthogonal_complement(vectors, form):
    """Nullspace of the rows c -> B(s, e_c), each from the dense transpose of B."""
    bt = linalg.transpose(form.matrix)
    return linalg.nullspace([ref_mat_vec(bt, s) for s in vectors], form.space.dim)


def ref_dual_vectors(form, ideal, avoid):
    """B(e_m, d_i) = delta_mi with d_i in the right parity block, orthogonal to
    avoid; first-pivot solve on dense rows. None where no dual exists."""
    space, n = form.space, form.space.dim
    bt = linalg.transpose(form.matrix)
    rows = [ref_mat_vec(bt, e) for e in ideal] + [ref_mat_vec(bt, w) for w in avoid]
    duals = []
    for i, e in enumerate(ideal):
        want = (vector_parity(space, e) + form.degree) % 2
        cols = [c for c in range(n) if space.parity(c) == want]
        rhs = [Fraction(m == i) for m in range(len(ideal))] + [ZERO] * len(avoid)
        sol = linalg.solve([[r[c] for c in cols] for r in rows], rhs, len(cols))
        if sol is None:
            return None
        full = dict(zip(cols, sol))
        duals.append(tuple(full.get(c, ZERO) for c in range(n)))
    return duals


def ref_delta_coadjoint(g, delta):
    """Matrix of ad*_d(e_i): entry (k, j) is -(-1)^{(p_j + d) p_i} [e_i, e_k]_j."""
    n, par, t = g.dim, g.space.parities, g.bracket.table
    return [tuple(tuple(-(-1) ** (((par[j] + delta) * par[i]) % 2) * t[i][k][j] for j in range(n))
                  for k in range(n)) for i in range(n)]


def ref_extension_metric(ctx):
    """B_h on h, B(P_d(a_i)*, a_i) = 1 and B(a_i, P_d(a_i)*) = (-1)^{|a_i|(1 + d)}."""
    na, nh = ctx.a.dim, ctx.h.dim
    b_h = ctx.h.metric.matrix

    def entry(p, q):
        if na <= p < na + nh and na <= q < na + nh:
            return b_h[p - na][q - na]
        if p >= na + nh and q == p - na - nh:
            return Fraction(1)
        if p < na and q == p + na + nh:
            return Fraction((-1) ** ((ctx.a.space.parity(p) * (1 + ctx.delta)) % 2))
        return ZERO
    return tuple(tuple(entry(p, q) for q in range(2 * na + nh)) for p in range(2 * na + nh))


def ref_extension_derivations(ctx, chi):
    """Theta(x_i) on h + dual: rho(x_i) on h, ad*_d(x_i) on the dual block, and
    column m of the (dual, h) block the value chi(x_i, u_m)."""
    na, nh = ctx.a.dim, ctx.h.dim
    rep, chi_t = ref_delta_coadjoint(ctx.a, ctx.delta), chi.table
    out = []
    for i in range(na):
        rho = ctx.rho[i].matrix

        def entry(r, c):
            if r < nh and c < nh:
                return rho[r][c]
            if r >= nh and c >= nh:
                return rep[i][r - nh][c - nh]
            if r >= nh:
                return chi_t[i][c][r - nh]
            return ZERO
        out.append(tuple(tuple(entry(r, c) for c in range(nh + na)) for r in range(nh + na)))
    return out


def ref_extracted_maps(g, ideal, a_vectors, h_vectors):
    """rho, tau and sigma from a dense change of basis: column c of rho(x_p)
    and tau(x_p) are the h- and I-parts of [x_p, u_c], column c of sigma(x_p)
    the I-part of [x_p, alpha_c]."""
    cols = list(a_vectors) + list(h_vectors) + list(ideal)
    na, nh, nd, n = len(a_vectors), len(h_vectors), len(ideal), g.dim
    m_inv, t = linalg.inverse(linalg.transpose(cols)), g.bracket.table

    def coords(u, v):
        terms = [(u[i] * v[j], t[i][j]) for i in range(n) if u[i] for j in range(n) if v[j]]
        return ref_mat_vec(m_inv, [sum((c * w[k] for c, w in terms), ZERO) for k in range(n)])
    rho, tau, sigma = [], [], []
    for p in range(na):
        zh = [coords(cols[p], cols[na + c]) for c in range(nh)]
        zi = [coords(cols[p], cols[na + nh + c]) for c in range(nd)]
        rho.append(tuple(tuple(z[na + r] for z in zh) for r in range(nh)))
        tau.append(tuple(tuple(z[na + nh + r] for z in zh) for r in range(nd)))
        sigma.append(tuple(tuple(z[na + nh + r] for z in zi) for r in range(nd)))
    return rho, tau, sigma


def moved_with_ideal(rng, ctx, g):
    """g in a random parity-preserving basis, with its dual block in the new coordinates."""
    cols = random_parity_preserving_basis(rng, g.space)
    m_inv = linalg.inverse(linalg.transpose(cols))
    na = ctx.a.dim
    ideal = [tuple(row[k] for row in m_inv) for k in range(g.dim - na, g.dim)]
    return change_basis(g, cols), ideal


@functools.cache
def splits() -> tuple:
    """(g, decomposition) for every sample extension along its dual block, and
    for every other one moved to a random basis, along the moved block."""
    rng = random.Random(40)
    out = []
    for ctx, g in extensions():
        na = ctx.a.dim
        out.append((g, dec.decompose(g, [unit_vec(g.dim, g.dim - na + k) for k in range(na)])))
    for ctx, g in extensions()[::2]:
        moved, ideal = moved_with_ideal(rng, ctx, g)
        out.append((moved, dec.decompose(moved, ideal)))
    return tuple(out)


def random_vector(rng, space, parity=None):
    return tuple(rand_scalar(rng) if parity is None or p == parity else ZERO for p in space.parities)


def test_form_value_matches_the_dense_product():
    rng = random.Random(41)
    for g, res in splits():
        for form in (g.metric, res.context.h.metric, res.context.extension.metric):
            for _ in range(3):
                u, v = random_vector(rng, form.space), random_vector(rng, form.space)
                value = form_value(form, u, v)
                assert value == ref_value(form, u, v) and type(value) is Fraction


def dual_vectors(form, ideal, avoid):
    """decompose's duals of rational vectors, from their integer view, as dense vectors."""
    d, duals = dec._dual_vectors(form, dec._view(ideal), dec._view(avoid))
    return [tuple(Fraction(v.get(k, 0), d) for k in range(form.space.dim)) for v in duals]


def orthogonal_complement(vectors, form):
    """decompose's I-perp basis of rational vectors, from its integer view: (dense basis, its ints)."""
    d, perp = dec.orthogonal_complement(dec._view(vectors), form)
    return [linalg._dense(d, v, form.space.dim) for v in perp], perp


def test_orthogonal_complement_and_dual_vectors_match_dense_references():
    rng = random.Random(42)
    cases = []
    for g, res in splits():
        cases.append((g.metric, list(res.ideal_basis), list(res.h_basis)))
    for delta in (0, 1):
        for _ in range(15):
            _, form, ideal = random_witt_instance(rng, delta)
            cases.append((form, ideal, []))
    for form, ideal, avoid in cases:
        perp, ints = orthogonal_complement(ideal, form)
        assert perp == ref_orthogonal_complement(ideal, form)
        assert all(ints) and all(c for v in ints for c in v.values())
        assert dual_vectors(form, ideal, avoid) == ref_dual_vectors(form, ideal, avoid)
        one = [ideal[rng.randrange(len(ideal))]]
        assert orthogonal_complement(one, form)[0] == ref_orthogonal_complement(one, form)


def test_dual_vectors_report_a_missing_dual_like_the_reference():
    """An ideal vector among the avoid vectors leaves its dual unsolvable."""
    found = 0
    for g, res in splits():
        ideal = list(res.ideal_basis)
        avoid = list(res.h_basis) + ideal[-1:]
        ref = ref_dual_vectors(g.metric, ideal, avoid)
        try:
            assert dual_vectors(g.metric, ideal, avoid) == ref
        except DegenerateInput:
            assert ref is None
            found += 1
    assert found >= 10


def test_dual_vectors_solve_each_parity_class_once_and_name_the_first_missing_dual(monkeypatch):
    """One elimination per parity class of the duals, holding every
    right-hand side of the class; with ideal vector k among the avoid
    vectors, only its dual is missing, and the error names k wherever it
    sits in its class."""
    calls = []
    solve_many = linalg.solve_many_ints
    monkeypatch.setattr(linalg, "solve_many_ints", lambda rows, rhs, n: calls.append(len(rhs)) or solve_many(rows, rhs, n))
    mixed = 0
    for g, res in splits():
        ideal, h = list(res.ideal_basis), list(res.h_basis)
        classes = Counter((vector_parity(g.space, e) + g.delta) % 2 for e in ideal)
        ref = ref_dual_vectors(g.metric, ideal, h)
        calls.clear()
        assert dual_vectors(g.metric, ideal, h) == ref
        assert sorted(calls) == sorted(classes.values())
        mixed += len(classes) == 2
        for k in range(len(ideal)):
            with pytest.raises(DegenerateInput, match=f"^no dual vector for ideal vector {k}$"):
                dual_vectors(g.metric, ideal, h + ideal[k:k + 1])
    assert mixed >= 3


def test_delta_coadjoint_matches_the_dense_formula():
    for g, res in splits():
        for alg in (g.algebra, res.context.a):
            for delta in (0, 1):
                assert [t.matrix for t in delta_coadjoint(alg, delta)] == ref_delta_coadjoint(alg, delta)


def test_extension_metric_and_derivations_match_dense_blocks():
    for g, res in splits():
        ctx = res.context
        assert ctx.extension.metric.matrix == ref_extension_metric(ctx)
        chi = derive_chi(ctx)
        ce_space = SuperSpace(ctx.h.space.basis + ctx.dual_block.basis)
        theta = extension_derivations(ctx, ce_space)
        assert [t.matrix for t in theta] == ref_extension_derivations(ctx, chi)


def test_extracted_rho_tau_sigma_match_a_dense_change_of_basis():
    """rho is the split's own; tau and sigma, the [a,h]->I and [a,I]
    components that the isometry certifies, are the context's chi and
    ad*_delta: tau[i][k][m] = chi(x_i, u_m)_k, xi_delta being the identity."""
    nonzero = 0
    for g, res in splits():
        ctx = res.context
        na, nh = ctx.a.dim, ctx.h.dim
        rho, tau, sigma = ref_extracted_maps(g, res.ideal_basis, res.a_basis, res.h_basis)
        assert [t.matrix for t in ctx.rho] == rho
        assert [tuple(tuple(ctx.chi.value(i, m)[k] for m in range(nh)) for k in range(na))
                for i in range(na)] == tau
        assert [t.matrix for t in ctx.ad_star] == sigma
        nonzero += sum(any(t.scaled_columns[1]) for t in ctx.rho + ctx.ad_star)
        nonzero += sum(any(map(any, t)) for t in tau)
    assert nonzero >= 20


# ---------------------------------------------------------------------------
# The context layer on integer views, against Fraction references


def ref_chi(ctx):
    """chi[i][m][k] = -(-1)^{|u_m||y_k|} sum_r lambda(x_i, x_k)_r B_h(u_r, u_m)."""
    na, nh, b, lam = ctx.a.dim, ctx.h.dim, ctx.h.metric.matrix, ctx.lam.table
    pa, ph = ctx.a.space.parities, ctx.h.space.parities
    return tuple(tuple(tuple(
        -(-1) ** (ph[m] * pa[k]) * sum((lam[i][k][r] * b[r][m] for r in range(nh)), ZERO)
        for k in range(na)) for m in range(nh)) for i in range(na))


def ref_phi(ctx):
    """phi[m][l][k] = (-1)^{|x_k|(|u_m|+|u_l|)} sum_r rho(x_k)[r][m] B_h(u_r, u_l)."""
    na, nh, b = ctx.a.dim, ctx.h.dim, ctx.h.metric.matrix
    pa, ph = ctx.a.space.parities, ctx.h.space.parities
    rho = [t.matrix for t in ctx.rho]
    return tuple(tuple(tuple(
        (-1) ** ((pa[k] * (ph[m] + ph[l])) % 2) * sum((rho[k][r][m] * b[r][l] for r in range(nh)), ZERO)
        for k in range(na)) for l in range(nh)) for m in range(nh))


def ref_curvature(ctx):
    """(i, j), row-major, where the matrix [rho_i, rho_j] - rho([x_i, x_j]_a)
    - ad_h(lambda(x_i, x_j)) is nonzero, with ad_h(e_r) the matrix whose
    column u is [e_r, e_u]_h."""
    na, nh = ctx.a.dim, ctx.h.dim
    rho, a_t, lam = [t.matrix for t in ctx.rho], ctx.a.bracket.table, ctx.lam.table
    ad = [ad_map(ctx.h.bracket, r).matrix for r in range(nh)]
    out = []
    for i in range(na):
        for j in range(na):
            sign = -1 if ctx.rho[i].degree * ctx.rho[j].degree else 1
            m = mat_sub(linalg.mat_mul(rho[i], rho[j]), linalg.mat_scale(sign, linalg.mat_mul(rho[j], rho[i])))
            for k in range(na):
                m = mat_sub(m, linalg.mat_scale(a_t[i][j][k], rho[k]))
            for r in range(nh):
                m = mat_sub(m, linalg.mat_scale(lam[i][j][r], ad[r]))
            if any(any(row) for row in m):
                out.append((i, j))
    return out


def ref_context_identities(ctx):
    """(equation, indices, residual) of every deh1, deh2, deh3 and
    super-cyclic failure, in the order validate_context reports them, from
    dense tables: deh2 and deh3 as the signed cyclic sums of their pieces."""
    na, nh, delta = ctx.a.dim, ctx.h.dim, ctx.delta
    pa = ctx.a.space.parities
    a_t, lam, om = ctx.a.bracket.table, ctx.lam.table, ctx.omega.table
    rho = [t.matrix for t in ctx.rho]
    rep, chi = ref_delta_coadjoint(ctx.a, delta), ref_chi(ctx)

    def combo(vectors, coeffs, n):
        return tuple(sum((c * v[r] for c, v in zip(coeffs, vectors)), ZERO) for r in range(n))

    def deh2(x, y, z):
        return linalg.vec_add(ref_mat_vec(rho[x], lam[y][z]), combo(lam[x], a_t[y][z], nh))

    def deh3(x, y, z):
        t = linalg.vec_add(ref_mat_vec(rep[x], om[y][z]), combo(om[x], a_t[y][z], na))
        return linalg.vec_add(t, combo(chi[x], lam[y][z], na))

    out = [("deh1", ij, None) for ij in ref_curvature(ctx)]
    for name, piece, n in (("deh2", deh2, nh), ("deh3", deh3, na)):
        for i in range(na):
            for j in range(na):
                for k in range(na):
                    total = linalg.zero_vec(n)
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                        total = linalg.vec_add(total, linalg.vec_scale((-1) ** (pa[x] * pa[z]), piece(x, y, z)))
                    if any(total):
                        out.append((name, (i, j, k), total))
    for i in range(na):
        for j in range(na):
            for k in range(na):
                res = om[i][j][k] - (-1) ** (((pa[j] + pa[k]) * pa[i]) % 2) * om[j][k][i]
                if res:
                    out.append(("super-cyclic", (i, j, k), res))
    return out


def moved_context(rng, ctx):
    """ctx with a and h each moved by a ``scaled_basis``: every map is
    transported, so the context stays valid exactly when ctx is, and its
    constants get large coprime denominators. New a-vectors a'_p = sum_i
    P_ip a_i and h-vectors u'_c = sum_r C_rc u_r; a functional on P_d(a)
    takes the coordinates P^T f."""
    na, nh = ctx.a.dim, ctx.h.dim
    p_cols, c_cols = scaled_basis(rng, ctx.a.space), scaled_basis(rng, ctx.h.space)
    p, c = linalg.transpose(p_cols), linalg.transpose(c_cols)
    p_inv, c_inv = linalg.inverse(p), linalg.inverse(c)
    a_sp = SuperSpace(tuple((f"x{i}", q) for i, q in enumerate(ctx.a.space.parities)))
    h_sp = SuperSpace(tuple((f"u{i}", q) for i, q in enumerate(ctx.h.space.parities)))

    def transported(bmap, cols, coords):
        """coords times the value on (cols[p], cols[q]), for every p and q."""
        t, n = bmap.table, bmap.target.dim
        return [[ref_mat_vec(coords, [sum((u[i] * v[j] * t[i][j][r] for i in range(len(u)) for j in range(len(v))),
                                          ZERO) for r in range(n)]) for v in cols] for u in cols]

    b = linalg.mat_mul(linalg.transpose(c), linalg.mat_mul(ctx.h.metric.matrix, c))
    h = QuadraticLieSuperAlgebra(LieSuperAlgebra(SuperBracket(h_sp, transported(ctx.h.bracket, c_cols, c_inv))),
                                 GradedBilinearForm(h_sp, ctx.h.delta, b))
    rho = []
    for q in range(na):
        t = linalg.zero_mat(nh, nh)
        for i in range(na):
            if p[i][q]:
                t = linalg.mat_add(t, linalg.mat_scale(p[i][q], ctx.rho[i].matrix))
        rho.append(GradedLinearMap(h_sp, h_sp, ctx.rho[q].degree, linalg.mat_mul(c_inv, linalg.mat_mul(t, c))))
    return DeltaContext(
        ctx.delta, LieSuperAlgebra(SuperBracket(a_sp, transported(ctx.a.bracket, p_cols, p_inv))), h, tuple(rho),
        GradedBilinearMap(a_sp, a_sp, h_sp, transported(ctx.lam, p_cols, c_inv)),
        GradedBilinearMap(a_sp, a_sp, p_delta_dual(a_sp, ctx.delta), transported(ctx.omega, p_cols, p_cols)))


def bare(parities, table):
    """What ref_super_skew reads of a bilinear map: left parities and the table."""
    return SimpleNamespace(left=SimpleNamespace(parities=parities), table=table)


def context_scales(ctx):
    """The d of every integer view the context layer reads."""
    return {"a": ctx.a.bracket.scaled_pairs[0], "h": ctx.h.bracket.scaled_pairs[0],
            "b": ctx.h.metric.scaled_rows[0], "lam": ctx.lam.scaled_pairs[0],
            "omega": ctx.omega.scaled_pairs[0],
            "rho": scaled_to_ints(c for t in ctx.rho for c in fractions(t.scaled_columns))[0]}


def assert_context_layer_matches(ctx):
    """Every context-layer kernel against its Fraction reference: the rho
    predicates, the lambda/omega grading and skew witnesses, B_h super symmetry,
    chi, Phi (or its phi-skew witness) and, once the pieces are well formed,
    validate_context's deh1/deh2/deh3/super-cyclic list, whose deh1 oracle is
    ref_curvature. Returns the equations that failed."""
    seen = set()
    h, ph = ctx.h, ctx.h.space.parities
    assert same_witness(h.metric.check_supersymmetry(), ref_supersymmetry(h.metric))
    for t in ctx.rho:
        der, skew = is_derivation(t, h.bracket), is_metric_skew(t, h.metric)
        assert der == ref_is_derivation(t, h.bracket) and skew == ref_is_metric_skew(t, h.metric)
        seen.update(name for name, ok in (("rho-derivation", der), ("rho-skew", skew)) if not ok)
    for bmap, name in ((ctx.lam, "lambda"), (ctx.omega, "omega")):
        even, skew = bmap.check_even(), bmap.check_super_skew()
        assert same_witness(even, ref_check_even(bmap)) and same_witness(skew, ref_super_skew(bmap))
        seen.update(f"{name}-{check}" for check, v in (("even", even), ("skew", skew)) if v is not None)
        if skew is not None:
            assert all(type(c) is Fraction for c in skew.residual)
    chi = derive_chi(ctx)
    assert chi.table == ref_chi(ctx)
    assert all(type(c) is Fraction for _, _, _, c in chi.entries())
    phi_ref = ref_phi(ctx)
    skew_ref = ref_super_skew(bare(ph, phi_ref))
    if skew_ref is None:
        phi = derive_phi(ctx)
        assert phi.table == phi_ref
        assert all(type(c) is Fraction for _, _, _, c in phi.entries())
    else:
        with pytest.raises(InvalidContext) as exc:
            derive_phi(ctx)
        assert same_witness(exc.value.violations[0], skew_ref)
        seen.add("phi-skew")
    got = validate_context(ctx)
    seen.update(v.equation for v in got)
    if not seen & {"rho-derivation", "rho-skew", "lambda-even", "lambda-skew", "omega-even", "omega-skew"}:
        assert [(v.equation, v.indices, v.residual) for v in got] == ref_context_identities(ctx)
        for v in got:
            assert v.residual is None or type(v.residual) is Fraction \
                or all(type(c) is Fraction for c in v.residual)
    return seen


def plant_skew_pair(rng, bmap, draw):
    """bmap plus c e_k at (i, j) and its super skew partner at (j, i), with
    e_k in the parity block of (i, j); None when bmap has no room."""
    pl, pt = bmap.left.parities, bmap.target.parities
    room = [(i, j, k) for i in range(len(pl)) for j in range(i, len(pl)) for k in range(len(pt))
            if pt[k] == (pl[i] + pl[j]) % 2 and (i != j or pl[i])]
    if not room:
        return None
    i, j, k = rng.choice(room)
    c = draw(rng)
    extra = [(i, j, k, c)] + ([(j, i, k, c if pl[i] * pl[j] else -c)] if i != j else [])
    return GradedBilinearMap.from_entries(bmap.left, bmap.right, bmap.target, bmap.entries() + extra)


def coprime(rng):
    p, q = rng.sample(PRIMES, 2)
    return Fraction(p, q) * rng.choice((-1, 1))


def plantings(rng, ctx, draw):
    """ctx with one planted change each: a skew pair in lambda and in omega,
    a single entry in each, and a single homogeneous entry in one rho map."""
    out = []
    for which in ("lam", "omega"):
        bad = plant_skew_pair(rng, getattr(ctx, which), draw)
        if bad is not None:
            out.append(DeltaContext(ctx.delta, ctx.a, ctx.h, ctx.rho,
                                    bad if which == "lam" else ctx.lam, bad if which == "omega" else ctx.omega))
    for which in ("lam", "omega"):
        bmap = getattr(ctx, which)
        if bmap.target.dim:
            i, j, k = (rng.randrange(s.dim) for s in (bmap.left, bmap.right, bmap.target))
            bad = GradedBilinearMap.from_entries(bmap.left, bmap.right, bmap.target,
                                                 bmap.entries() + [(i, j, k, draw(rng))])
            out.append(DeltaContext(ctx.delta, ctx.a, ctx.h, ctx.rho, bad if which == "lam" else ctx.lam,
                                    bad if which == "omega" else ctx.omega))
    x = rng.randrange(ctx.a.dim)
    t = ctx.rho[x]
    room = [(r, c) for r in range(ctx.h.dim) for c in range(ctx.h.dim)
            if t.target.parity(r) == (t.source.parity(c) + t.degree) % 2]
    if room:
        r, c = rng.choice(room)
        rho = list(ctx.rho)
        rho[x] = GradedLinearMap.from_entries(t.source, t.target, t.degree, t.entries() + [(r, c, draw(rng))])
        out.append(DeltaContext(ctx.delta, ctx.a, ctx.h, tuple(rho), ctx.lam, ctx.omega))
    return out


@functools.cache
def moved_contexts() -> tuple:
    """Each sample extension's context, moved by moved_context."""
    return tuple(moved_context(random.Random(45 + n), ctx) for n, (ctx, _) in enumerate(extensions()))


def test_moved_contexts_are_valid_with_large_scales():
    big = {key: 0 for key in ("a", "h", "b", "lam", "omega", "rho")}
    for ctx in moved_contexts():
        assert validate_context(ctx) == []
        for key, d in context_scales(ctx).items():
            big[key] += d > 10 ** 3
    assert min(big.values()) >= 4


def test_kept_extension_passes_every_constructor_check():
    """validate_context keeps the extension it scanned without running the
    algebra constructors: beyond the Jacobi and invariance scans it reads
    the axioms from, grading, super skew, the metric's degree, super
    symmetry and non-degeneracy follow from the context's own checks. Built
    through the constructors, every such extension passes them all."""
    contexts = list(moved_contexts()) + [ctx for delta in (0, 1) for ctx in context_corpus(delta, 20)]
    for ctx in contexts:
        fresh = copy.copy(ctx)  # no cached extension
        assert validate_context(fresh) == []
        ext = vars(fresh)["extension"]
        assert QuadraticLieSuperAlgebra(LieSuperAlgebra(ext.bracket), ext.metric) == ext
        assert double_extend(fresh) is ext
    assert len(contexts) >= 50


def test_context_layer_matches_references_on_moved_contexts():
    rng = random.Random(46)
    seen: dict = {}
    for ctx in moved_contexts():
        assert assert_context_layer_matches(ctx) == set()
        for _ in range(2):
            for bad in plantings(rng, ctx, coprime):
                for name in assert_context_layer_matches(bad):
                    seen[name] = seen.get(name, 0) + 1
            if ctx.h.dim:
                # B_h with one planted entry: its super symmetry, and rho against it
                rows = [list(r) for r in ctx.h.metric.matrix]
                rows[rng.randrange(ctx.h.dim)][rng.randrange(ctx.h.dim)] += coprime(rng)
                form = GradedBilinearForm(ctx.h.space, ctx.delta, rows)
                sym = form.check_supersymmetry()
                assert same_witness(sym, ref_supersymmetry(form))
                assert sym is None or type(sym.residual) is Fraction
                seen["super-symmetry"] = seen.get("super-symmetry", 0) + (sym is not None)
                for t in ctx.rho:
                    assert is_metric_skew(t, form) == ref_is_metric_skew(t, form)
    assert set(seen) >= {"deh1", "deh2", "deh3", "super-cyclic", "rho-skew", "phi-skew",
                         "lambda-skew", "omega-skew"}
    assert min(seen[name] for name in ("deh1", "deh2", "deh3", "super-cyclic", "rho-skew",
                                       "super-symmetry")) >= 10


def test_context_layer_matches_references_on_integer_and_zero_contexts():
    """d = 1 in every view, plantings integral too, and contexts whose maps
    are all zero."""
    rng = random.Random(47)
    integral = [ctx for ctx, _ in extensions()] + [heisenberg_context(default_heisenberg_params(2)),
                                                 odd_extension_context(default_odd_dim1_params())]
    integral = [ctx for ctx in integral if set(context_scales(ctx).values()) == {1}]
    assert len(integral) >= 3
    zero = [DeltaContext.trivial(ctx.delta, ctx.a, ctx.h) for ctx, _ in extensions()[::4]]
    seen: dict = {}
    for ctx, is_integral in [(ctx, True) for ctx in integral] + [(ctx, False) for ctx in zero]:
        assert assert_context_layer_matches(ctx) == set()
        for _ in range(3):
            for bad in plantings(rng, ctx, lambda rng: Fraction(rng.choice((-2, -1, 1, 2)))):
                assert not is_integral or set(context_scales(bad).values()) == {1}
                for name in assert_context_layer_matches(bad):
                    seen[name] = seen.get(name, 0) + 1
    assert min(seen.get(name, 0) for name in ("deh1", "deh2", "deh3", "super-cyclic", "omega-skew")) >= 4
