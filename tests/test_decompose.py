import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from generators import (context_corpus, count_calls, fractions, odd_extension_dim1, random_heisenberg_params,
                        random_odd_dim1_params, random_witt_instance, value_vectors, vector_parity)
from test_decompose_transport import moved
import superquad.decompose as dec
from superquad import linalg
from superquad.algebra import LieSuperAlgebra, QuadraticLieSuperAlgebra, delta_coadjoint
from superquad.catalog import (
    default_heisenberg_params,
    default_odd_dim1_params,
    heisenberg_context,
    heisenberg_extension,
    odd_extension_context,
)
from superquad.decompose import (
    build_xi,
    decompose,
    extract_structure_maps,
    find_central_minimal_ideal,
    orthogonal_complement,
    witt_complement,
)
from superquad.errors import ClaimViolated, DegeneratePairing, InvalidContext
from superquad.extension import DeltaContext, contexts_equal, double_extend
from superquad.fileformat import document_to_algebra, document_to_context, parse_document
from superquad.linalg import ONE, ZERO, unit_vec
from superquad.spaces import GradedBilinearForm, GradedLinearMap, SuperSpace

F = Fraction
view = dec._view


def dense(vectors, n):
    """The rational vectors of an integer view, dense."""
    d, ints = vectors
    return [linalg._dense(d, v, n) for v in ints]


def odd_hyperbolic_2dim():
    sp = SuperSpace((("x", 0), ("y", 1)))
    return QuadraticLieSuperAlgebra(
        LieSuperAlgebra.abelian(sp),
        GradedBilinearForm(sp, 1, ((0, 1), (1, 0))))


def test_orthogonal_complement_extremes():
    g = odd_hyperbolic_2dim()
    full = [unit_vec(2, 0), unit_vec(2, 1)]
    assert orthogonal_complement(view(full), g.metric) == (1, ())
    everything = orthogonal_complement(view([]), g.metric)
    assert len(everything[1]) == 2


def test_orthogonal_complement_isotropic_line():
    g = odd_hyperbolic_2dim()
    perp = orthogonal_complement(view([unit_vec(2, 0)]), g.metric)
    # B(x, cx + dy) = d, so the complement is the span of x itself
    assert perp == (1, ({0: 1},))


def test_find_central_ideal_abelian():
    g = odd_hyperbolic_2dim()
    found = find_central_minimal_ideal(g)
    assert not isinstance(found, str)
    (v,) = dense(found, 2)
    assert g.metric.value(v, v) == 0


def test_find_central_ideal_heisenberg_is_dual_line():
    g = heisenberg_extension(default_heisenberg_params())
    found = find_central_minimal_ideal(g)
    assert found == (1, ({3: 1},))
    assert dense(found, 4) == [(ZERO, ZERO, ZERO, ONE)]


def test_find_central_ideal_none_for_sl2():
    from generators import _sl2_killing
    assert find_central_minimal_ideal(_sl2_killing()) == "perfect: centre is zero"


def test_witt_complement_forced_2dim():
    g = odd_hyperbolic_2dim()
    a = dense(witt_complement(g.metric, view([unit_vec(2, 0)])), 2)
    assert a == [(ZERO, ONE)]
    assert g.metric.value(unit_vec(2, 0), a[0]) == 1


def test_witt_complement_heisenberg_recovers_x():
    g = heisenberg_extension(default_heisenberg_params())
    ideal = [(ZERO, ZERO, ZERO, ONE)]
    d, perp = orthogonal_complement(view(ideal), g.metric)
    chosen = linalg.extend_independent(ideal, perp)
    h_vectors = linalg.lowest_terms(d, [perp[c] for c in chosen])
    a = dense(witt_complement(g.metric, view(ideal), avoid=h_vectors), 4)
    assert a == [(ONE, ZERO, ZERO, ZERO)]
    assert g.metric.value(ideal[0], a[0]) == 1


def test_witt_complement_mixed_parity_random():
    rng = random.Random(31)
    for delta in (0, 1):
        for _ in range(10):
            space, form, ideal = random_witt_instance(rng, delta)
            a = dense(witt_complement(form, view(ideal)), space.dim)
            r = len(ideal)
            assert len(a) == r
            for i in range(r):
                assert vector_parity(space, a[i]) is not None
                for j in range(r):
                    assert form.value(a[i], a[j]) == 0
                    assert form.value(ideal[i], a[j]) == (ONE if i == j else ZERO)
            assert linalg.rank(list(ideal) + a, space.dim) == 2 * r
            gram = [[form.value(u, v) for v in list(ideal) + a] for u in list(ideal) + a]
            assert linalg.rank(gram, 2 * r) == 2 * r


def test_build_xi_identity_on_witt_pairs():
    g = heisenberg_extension(default_heisenberg_params())
    ideal = [(ZERO, ZERO, ZERO, ONE)]
    a = [(ONE, ZERO, ZERO, ZERO)]
    xi_delta, xi = build_xi(g.metric, view(ideal), view(a), 1)
    assert xi_delta.matrix == ((ONE,),)
    assert xi_delta.degree == 0
    assert xi.degree == 1
    assert xi.matrix == xi_delta.matrix  # target-side shift relates them
    assert xi_delta.target.parities == tuple((p + 1) % 2 for p in xi.target.parities)


def test_build_xi_delta0_and_scaling():
    sp = SuperSpace((("u", 0), ("v", 0)))
    form = GradedBilinearForm(sp, 0, ((0, 2), (2, 0)))
    xi_delta, xi = build_xi(form, view([unit_vec(2, 0)]), view([unit_vec(2, 1)]), 0)
    assert xi_delta.matrix == ((F(2),),)
    assert xi.matrix == xi_delta.matrix and xi.degree == 0 == xi_delta.degree


def test_build_xi_degenerate_pairing():
    sp = SuperSpace((("u", 0), ("v", 0), ("w", 0)))
    form = GradedBilinearForm(sp, 0, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    with pytest.raises(DegeneratePairing):
        build_xi(form, view([unit_vec(3, 0)]), view([unit_vec(3, 2)]), 0)


def test_extract_maps_abelian_all_zero():
    g = odd_hyperbolic_2dim()
    maps = extract_structure_maps(g, view([unit_vec(2, 0)]), view([unit_vec(2, 1)]), view([]))
    assert maps.a_table.entries() == []
    assert not maps.lam.scaled_pairs[1] and not maps.omega.scaled_pairs[1]
    assert not any(c for t in maps.rho for c in t.scaled_columns[1])
    ctx = decompose(g, [unit_vec(2, 0)]).context  # gamma, tau and sigma are Phi, chi and ad*_delta
    assert not ctx.phi.scaled_pairs[1] and not ctx.chi.scaled_pairs[1]
    assert not any(c for t in ctx.ad_star for c in t.scaled_columns[1])


def test_extract_maps_heisenberg():
    g = heisenberg_extension(default_heisenberg_params())
    ideal = [unit_vec(4, 3)]
    a = [unit_vec(4, 0)]
    h = [unit_vec(4, 1), unit_vec(4, 2)]
    maps = extract_structure_maps(g, view(ideal), view(a), view(h))
    assert maps.rho[0].matrix == ((ONE, ZERO), (ZERO, -ONE))   # rho(x) = D
    assert not maps.lam.scaled_pairs[1] and not maps.omega.scaled_pairs[1]
    res = decompose(g, ideal)  # on the same split, gamma, tau and sigma are Phi, chi and ad*_delta
    assert (res.a_basis, res.h_basis) == (tuple(a), tuple(h))
    assert res.context.phi.value(0, 1) == (ONE,)               # gamma(e,f) = B(De,f)
    assert not res.context.chi.scaled_pairs[1]
    assert not any(c for t in res.context.ad_star for c in t.scaled_columns[1])


def test_extract_maps_odd_dim1():
    params = default_odd_dim1_params(eta=F(1))
    g = double_extend(odd_extension_context(params))
    maps = extract_structure_maps(g, view([unit_vec(2, 1)]), view([unit_vec(2, 0)]), view([]))
    assert maps.omega.value(0, 0) == (ONE,)   # [x,x] lands in the ideal with weight eta
    assert maps.lam.value(0, 0) == ()         # h is zero-dimensional here


def test_extract_maps_assembles_a_bad_split():
    """extract_structure_maps only assembles: on a split along the x-line,
    which is not even an ideal, it returns the maps, and the split keeps
    the components no ideal split has, for the isometry to refuse."""
    g = heisenberg_extension(default_heisenberg_params())
    # basis (a, h, I) = (P(x)*, e, f, x)
    maps = extract_structure_maps(g, view([unit_vec(4, 0)]), view([unit_vec(4, 3)]),
                                  view([unit_vec(4, 1), unit_vec(4, 2)]))
    d, pairs = maps.split
    assert pairs[1, 2] == {0: d}     # [e,f] = P(x)*: [h,h] has an a-component
    assert pairs[1, 3] == {1: -d}    # [e,x] = -e: [h,I] is nonzero
    assert maps.h_table.entries() == [] and maps.a_table.entries() == []


def test_decompose_heisenberg_recovers_context():
    params = default_heisenberg_params()
    ctx = heisenberg_context(params)
    g = double_extend(ctx)
    res = decompose(g, [unit_vec(4, 3)])
    assert contexts_equal(res.context, ctx)
    assert not res.context.lam.scaled_pairs[1] and not res.context.omega.scaled_pairs[1]
    assert res.context.rho[0].matrix == params.d.matrix
    assert res.isometry.matrix == linalg.identity_mat(4)


def test_decompose_abelian_trivial_context():
    g = odd_hyperbolic_2dim()
    res = decompose(g, [unit_vec(2, 0)])
    assert res.context.h.dim == 0
    assert res.context.a.space.parities == (1,)
    assert not res.context.omega.scaled_pairs[1]
    assert res.context.extension.dim == 2


def test_decompose_verifies_sigma_intertwining():
    params = default_odd_dim1_params(eta=F(2))
    g = odd_extension_dim1(params)
    res = decompose(g, [unit_vec(2, 1)])
    ad_star = delta_coadjoint(res.context.a, 1)
    xi_delta, _ = build_xi(g.metric, res.ideal_view, res.a_view, g.delta, res.context.a.space)
    na = len(res.a_basis)
    pairs = fractions(g.bracket.scaled_pairs)
    for i, x in enumerate(res.a_basis):
        # sigma(x_i): the I-part of [x_i, alpha_c] in the (a, h, I) basis, read through the isometry
        images = [linalg.mat_vec(res.isometry.matrix, value_vectors(pairs, x, alpha, g.dim))
                  for alpha in res.ideal_basis]
        sigma = tuple(tuple(z[g.dim - na + r] for z in images) for r in range(na))
        assert sigma == res.context.ad_star[i].matrix
        assert linalg.mat_mul(xi_delta.matrix, sigma) == linalg.mat_mul(ad_star[i].matrix, xi_delta.matrix)
    assert len(res.ideal_basis) == len(res.a_basis)


def test_decompose_rejects_bad_ideal():
    g = heisenberg_extension(default_heisenberg_params())
    with pytest.raises(ClaimViolated):
        decompose(g, [unit_vec(4, 1)])  # e-line is not an ideal
    with pytest.raises(ClaimViolated):
        decompose(g, [])


def test_decompose_rejects_non_isotropic_ideal():
    from generators import _sl2_killing
    g = _sl2_killing()
    # the whole algebra is an ideal but badly non-isotropic and non-abelian
    with pytest.raises(ClaimViolated) as exc:
        decompose(g, [unit_vec(3, 0)])
    assert exc.value.claim == "ideal-isotropic"
    assert [(v.equation, v.indices) for v in exc.value.violations] == [("ideal-isotropic", (0, 0))]


X, E, FF, PX = (unit_vec(4, k) for k in range(4))  # x, e, f, P(x)* of catalog Heisenberg


@pytest.mark.parametrize("ideal, claim, violations", [
    ([], "ideal-empty", []),
    ([(0, 0, 1)], "ideal-shape", []),
    ([(1, 0, 1, 0)], "ideal-homogeneous", [("ideal-homogeneous", (0,), None)]),
    ([PX, linalg.vec_scale(2, PX)], "ideal-independent", [("ideal-independent", (1,), None)]),
    ([PX, (0, 0, 0, 0), X], "ideal-independent", [("ideal-independent", (1,), None)]),
    ([E, FF], "ideal-isotropic", [("ideal-isotropic", (0, 1), None)]),
    ([X, E], "ideal-abelian", [("ideal-abelian", (0, 1), None)]),
    # [x, e] = e is a nonzero image inside the span, before the witness [f, e] = -P(x)*
    ([E], "ideal-invariant", [("ideal-invariant", (2, 0), (0, 0, 0, -1))]),
], ids=["empty", "shape", "homogeneous", "independent", "zero", "isotropic", "abelian", "invariant"])
def test_decompose_names_each_ideal_hypothesis(ideal, claim, violations):
    g = heisenberg_extension(default_heisenberg_params())
    with pytest.raises(ClaimViolated) as exc:
        decompose(g, ideal)
    assert exc.value.claim == claim
    assert [(v.equation, v.indices, v.residual) for v in exc.value.violations] == violations


def test_extracted_maps_even_and_skew_random_roundtrips():
    from generators import context_corpus
    for delta in (0, 1):
        for ctx in context_corpus(delta, 8, seed=99):
            g = double_extend(ctx)
            na = ctx.a.dim
            ideal = [unit_vec(g.dim, g.dim - na + k) for k in range(na)]
            res = decompose(g, ideal)
            for bl in (res.context.lam, res.context.omega, res.context.phi):
                assert bl.check_even() is None
                assert bl.check_super_skew() is None
            assert contexts_equal(ctx, res.context)


def test_decompose_along_two_dim_mixed_ideal():
    # span(f, P(x)*) is a 2-dim abelian isotropic ideal of the 4-dim algebra;
    # splitting along it realises the same algebra over h = 0 with a solvable a
    g = heisenberg_extension(default_heisenberg_params())
    res = decompose(g, [unit_vec(4, 2), unit_vec(4, 3)])
    assert len(res.a_basis) == 2 and len(res.h_basis) == 0
    assert res.context.a.space.parities == (0, 0)
    entries = res.context.a.bracket.entries()
    assert entries == [(0, 1, 0, -ONE), (1, 0, 0, ONE)]
    assert res.context.extension.dim == 4


def test_decompose_scaled_ideal_vector():
    g = heisenberg_extension(default_heisenberg_params())
    res = decompose(g, [(ZERO, ZERO, ZERO, F(2))])
    assert res.a_basis == ((F(1, 2), ZERO, ZERO, ZERO),)
    assert res.context.rho[0].matrix == ((F(1, 2), ZERO), (ZERO, -F(1, 2)))


def test_decompose_six_dim_two_pairs():
    from superquad.catalog import default_heisenberg_params as dp, heisenberg_context
    p = dp(2)
    g = heisenberg_extension(p)
    res = decompose(g, [unit_vec(6, 5)])
    from superquad.extension import contexts_equal
    assert contexts_equal(res.context, heisenberg_context(p))


def _corpus_extensions():
    for ctx in context_corpus(0, 8, seed=99) + context_corpus(1, 8, seed=99):
        g = double_extend(ctx)
        na = ctx.a.dim
        yield g, [unit_vec(g.dim, g.dim - na + k) for k in range(na)]


def test_xi_is_the_identity_on_the_witt_basis():
    """decompose reads omega off the split's I-components on [a,a], and its
    isometry compares the other I-components with ad*_delta, chi and Phi,
    index for index; that holds because the Witt complement makes
    B(I_i, a_j) = delta_ij, so xi_delta and xi, as build_xi computes them,
    are the identity."""
    golden = Path(__file__).resolve().parent / "golden" / "coprime.algebra"
    coprime = document_to_algebra(parse_document(golden.read_text()))
    cases = [*_corpus_extensions(), (coprime, [unit_vec(coprime.dim, k) for k in (7, 8, 9)])]
    for g, ideal in cases:
        res = decompose(g, ideal)
        identity = (1, tuple({m: 1} for m in range(len(ideal))))
        xi_delta, xi = build_xi(g.metric, res.ideal_view, res.a_view, g.delta, res.context.a.space)
        assert xi_delta.scaled_columns == identity
        assert xi.scaled_columns == identity


def test_decompose_changes_basis_once(monkeypatch):
    """One inversion and one change of basis per decompose whose split is
    not in g's own basis, none when it is: along its dual block a corpus
    extension splits into e_0, ..., e_{n-1} in order, so the inverse is the
    identity and the split g's own tables, and the moved corpus makes one of
    each. One integer Gram per pairing step (the ideal's isotropy, the Witt
    complement's correction of its duals, and the metric in the split
    basis, which the isometry compares first and which certifies a) and one
    rank, the re-extension's non-degeneracy: the ideal's independence is
    checked once, by ``ideal-independent``, and witt_complement takes it as
    its precondition. Each fact is proved once:
    the Witt pairing fixes xi, so build_xi is not called, and the isometry
    certifies the recovered context, so validate_context is not called
    either. Each re-extension table is built once: the metric the pairings
    claim compares is the one the bracket claim compares and the
    re-extension keeps. The corpus extensions are decomposed twice: rebuilt
    by the checking constructor, whose record names no context, and as
    double_extend returns them, whose record names the context the split
    recovers; that context is then reused with its extension, so no
    re-extension table is built or scanned."""
    import superquad.extension as extension
    calls = {**count_calls(monkeypatch, linalg, "inverse_ints", "rank"),
             **count_calls(monkeypatch, dec, "_bracket_in_basis", "_gram", "build_xi"),
             **count_calls(monkeypatch, extension, "validate_context", "extension_metric", "extension_bracket")}
    rng = random.Random(3)
    contexts = context_corpus(0, 8, seed=99) + context_corpus(1, 8, seed=99)
    extensions = list(_corpus_extensions())
    cases = [(QuadraticLieSuperAlgebra(LieSuperAlgebra(g.bracket), g.metric), ideal, 0, 1) for g, ideal in extensions]
    cases += [(*moved(rng, ctx), 1, 1) for ctx in contexts] + [(g, ideal, 0, 0) for g, ideal in extensions]
    for g, ideal, moves, built in cases:
        for seen in calls.values():
            seen.clear()
        res = decompose(g, ideal)
        assert (res.context.extension is g) == (not built)
        assert {name: len(seen) for name, seen in calls.items()} == {
            "inverse_ints": moves, "_bracket_in_basis": moves, "_gram": 3, "build_xi": 0, "validate_context": 0,
            "rank": built, "extension_metric": built, "extension_bracket": built}
    assert len(cases) == 48


def _plant_split(maps, block, rng):
    """maps with one coefficient of the split's tau ([a,h]->I), sigma
    ([a,I]) or gamma ([h,h]->I) block raised by one, at a position its
    grading allows, and that pair (p, q); None when the block has no such
    position."""
    a_space, h_space = maps.a_table.space, maps.h_table.space
    na, nh = a_space.dim, h_space.dim
    par = a_space.parities + h_space.parities + maps.omega.target.parities  # the dual block's are I's
    a, h, i = range(na), range(na, na + nh), range(na + nh, len(par))
    block_pairs = {"tau": product(a, h), "sigma": product(a, i), "gamma": product(h, h)}[block]
    spots = [(p, q, k) for p, q in block_pairs for k in i if par[k] == (par[p] + par[q]) % 2]
    if not spots:
        return None
    p, q, k = rng.choice(spots)
    d, pairs = maps.split
    w = dict(pairs.get((p, q), {}))
    w[k] = w.get(k, 0) + d
    return replace(maps, split=(d, {**pairs, (p, q): {x: c for x, c in w.items() if c}})), (p, q)


def _plant_one(maps, block, rng):
    """maps with one coefficient of ``block`` raised by one, at a position its
    grading allows, and the pair the isometry must name for a plant in the
    split (else None); None when the block has no such position. tau, sigma
    and gamma are blocks of the split, which keeps them."""
    if block in ("tau", "sigma", "gamma"):
        return _plant_split(maps, block, rng)
    value = getattr(maps, block)
    if isinstance(value, tuple):  # rho: one linear map per a-vector
        spots = [(x, r, c) for x, t in enumerate(value) for r in range(t.target.dim)
                 for c in range(t.source.dim)
                 if t.target.parity(r) == (t.source.parity(c) + t.degree) % 2]
        if not spots:
            return None
        x, r, c = rng.choice(spots)
        t = value[x]
        rows = [list(row) for row in t.matrix]
        rows[r][c] += 1
        bad = GradedLinearMap(t.source, t.target, t.degree, tuple(map(tuple, rows)))
        return replace(maps, **{block: value[:x] + (bad,) + value[x + 1:]}), None
    spots = [(i, j, k) for i in range(value.left.dim) for j in range(value.right.dim)
             for k in range(value.target.dim)
             if value.target.parity(k) == (value.left.parity(i) + value.right.parity(j)) % 2]
    if not spots:
        return None
    i, j, k = rng.choice(spots)
    bad = type(value).from_entries(value.left, value.right, value.target,
                                   value.entries() + [(i, j, k, ONE)])
    return replace(maps, **{block: bad}), None


@pytest.mark.parametrize("block, claims", [
    ("rho", {"phi-skew", "isometry-bracket"}),
    ("lam", {"isometry-bracket"}),
    ("omega", {"isometry-bracket"}),
    ("tau", {"isometry-bracket"}),
    ("sigma", {"isometry-bracket"}),
    ("gamma", {"isometry-bracket"}),
])
def test_planted_extraction_corruption_is_caught(monkeypatch, block, claims):
    """One wrong coefficient in an extracted block is caught by the checks
    that remain: for rho, Phi's super skew check (``phi-skew``, an
    InvalidContext; the pairings still agree, and g's invariance no longer
    makes the planted rho skew for B_h) or the isometry; for lambda and
    omega the isometry; and the isometry, at the planted pair, for the
    split's I-components, which nothing else reads."""
    rng = random.Random(block)
    real = dec.extract_structure_maps
    planted = []

    def corrupted(*args):
        maps = real(*args)
        bad = _plant_one(maps, block, rng)
        planted.append(bad)
        return maps if bad is None else bad[0]

    monkeypatch.setattr(dec, "extract_structure_maps", corrupted)
    for g, ideal in _corpus_extensions():
        try:
            decompose(g, ideal)
        except (ClaimViolated, InvalidContext) as exc:
            assert planted[-1], "an uncorrupted split was rejected"
            assert getattr(exc, "claim", exc.violations[0].equation) in claims
            assert exc.violations and exc.violations[0].indices
            if planted[-1][1] is not None:
                assert exc.violations[0].indices == planted[-1][1]
        else:
            assert not planted[-1], "a corrupted split was accepted"
    assert sum(bad is not None for bad in planted) >= 8


@pytest.mark.parametrize("label", ["a0", "P(a0)*"])
def test_fallback_a_label_clashes_with_no_reused_h_label(label):
    """With the ideal spanned by 2 P(x)*, the complement x/2 is no unit vector
    and gets the fallback label a0, while h reuses g's label of e."""
    sample = Path(__file__).resolve().parent.parent / "samples" / "heisenberg.algebra"
    g = document_to_algebra(parse_document(sample.read_text().replace("basis e 0", f"basis {label} 0")))
    ideal = [(ZERO, ZERO, ZERO, F(2))]
    res = decompose(g, ideal)
    ctx = res.context
    labels = ctx.a.space.labels + ctx.h.space.labels + ctx.dual_block.labels
    assert len(set(labels)) == len(labels)
    assert contexts_equal(ctx, decompose(heisenberg_extension(default_heisenberg_params()), ideal).context)
    # the context re-extends to g: the isometry carries g's bracket and metric onto the extension's
    ext = double_extend(ctx)
    cols = res.a_basis + res.h_basis + res.ideal_basis
    pairs = fractions(g.bracket.scaled_pairs)
    for p, u in enumerate(cols):
        for q, v in enumerate(cols):
            assert linalg.mat_vec(res.isometry.matrix, value_vectors(pairs, u, v, g.dim)) == ext.bracket.value(p, q)
            assert g.metric.value(u, v) == ext.metric.matrix[p][q]


def _source_cases():
    """(ctx, g, ideal): every context with dim a > 0 of the corpus for both
    deltas, of the catalog families and of the coprime golden file, its
    extension, and the dual block as the ideal, as roundtrip splits it."""
    rng = random.Random(18)
    golden = Path(__file__).resolve().parent / "golden" / "coprime.context"
    contexts = [*context_corpus(0), *context_corpus(1),
                *(heisenberg_context(default_heisenberg_params(pairs)) for pairs in (1, 3)),
                *(heisenberg_context(random_heisenberg_params(rng)) for _ in range(3)),
                *(odd_extension_context(default_odd_dim1_params(eta)) for eta in (F(1), F(-3, 2))),
                *(odd_extension_context(random_odd_dim1_params(rng)) for _ in range(3)),
                document_to_context(parse_document(golden.read_text()))]
    for ctx in contexts:
        if ctx.a.dim:
            g = ctx.extension
            yield ctx, g, [unit_vec(g.dim, g.dim - ctx.a.dim + k) for k in range(ctx.a.dim)]


def test_roundtrip_split_of_an_extension_is_the_identity():
    """Along the dual block of its own extension, a context splits by the
    identity: I-perp's canonical basis is the unit vectors of h and of the
    dual block, the Witt duals are the unit vectors of a, which B(a, a) = 0
    leaves uncorrected, so a and h are e_0, ..., e_{dim - na - 1} at scale
    1. The recovered context is then the context itself: equal to it
    from decompose, and the context itself from the split roundtrip makes,
    with the dual block as its integer view, on the extension whose record
    names the context. roundtrip rests on this."""
    golden = Path(__file__).resolve().parent / "golden" / "coprime.context"
    samples = Path(__file__).resolve().parent.parent / "samples"
    contexts = [*context_corpus(0, 40, seed=5), *context_corpus(1, 40, seed=5),
                *(heisenberg_context(default_heisenberg_params(pairs)) for pairs in (1, 3)),
                *(odd_extension_context(default_odd_dim1_params(eta)) for eta in (F(0), F(1, 2))),
                *(document_to_context(parse_document(p.read_text()))
                  for p in (samples / "heisenberg.context", samples / "odd-dim1.context", golden))]
    assert len(contexts) == 87 and all(ctx.a.dim for ctx in contexts)
    for n, ctx in enumerate(contexts):
        g, na = ctx.extension, ctx.a.dim
        ideal = [{g.dim - na + k: 1} for k in range(na)]
        assert g.proof == ("context", ctx), n
        res = dec._split(g, (1, tuple(ideal)))
        assert res.context is ctx, n
        assert res.a_view[0] == res.h_view[0] == 1, n
        assert res.a_view[1] + res.h_view[1] == tuple({k: 1} for k in range(g.dim - na)), n
        assert decompose(g, ideal).context == ctx, n


def test_decompose_with_source_matches_decompose_without():
    """A context named by g's record only lends the split the whole context,
    when it equals the recovered one: certify_split on decompose's views,
    with g's tables recorded as a context's extension, gives the result of
    decompose on g scanned, whose record names no context, in every field
    and in its re-extension's integer tables, for the true context, for an
    equal one whose extension was never built, for another valid context
    and for the trivial context on the same a and h (equal only if ctx is
    trivial). On g, whose record names its true context, the recovered
    context is that context itself and the re-extension is g."""
    import copy

    from superquad.algebra import _admit

    cases = list(_source_cases())
    assert len(cases) >= 100
    for n, (ctx, g, ideal) in enumerate(cases):
        expected = decompose(QuadraticLieSuperAlgebra(LieSuperAlgebra(g.bracket), g.metric), ideal)
        views = expected.ideal_view, expected.a_view, expected.h_view
        unbuilt = copy.deepcopy(ctx)
        assert "extension" not in vars(unbuilt)
        sources = [ctx, unbuilt, cases[(n + 1) % len(cases)][0],
                   DeltaContext.trivial(ctx.delta, ctx.a, ctx.h)]
        for source in sources:
            res = dec.certify_split(_admit(("context", source), g.bracket, g.metric), *views)
            for name in expected.__dataclass_fields__:
                assert getattr(res, name) == getattr(expected, name), (n, name)
            assert res.context.extension == expected.context.extension, n
        res = dec.certify_split(g, *views)
        assert res.context is ctx and res.context.extension is g, n
