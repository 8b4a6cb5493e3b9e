"""certify_split: the certificate half of decompose, on a split the caller holds.

decompose is ``_validate_ideal``, then the search for h and a, then
``certify_split`` on the views the search assembled. The tests below give
certify_split the views decompose returned and compare the results, also
with a view not in lowest terms, pin that it reaches no search step, plant a
wrong a view and a split that is no homogeneous basis or of the wrong size,
and certify a moved extension along its own blocks, a complement
decompose's search does not pick. A split in g's own basis, as
roundtrip's, gives the result whatever context g's record names that
certify_split gives when it names none, and reads g's tables with no
change of basis.
"""

import copy
import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from generators import (change_basis, context_corpus, count_calls, form_value, random_parity_preserving_basis,
                        vector_parity)
from test_decompose_transport import cases
import superquad.algebra as algebra
import superquad.decompose as dec
import superquad.extension as extension
from superquad import certify_split, linalg
from superquad.algebra import LieSuperAlgebra, QuadraticLieSuperAlgebra
from superquad.catalog import (
    default_heisenberg_params,
    default_odd_dim1_params,
    heisenberg_context,
    odd_extension_context,
)
from superquad.cli import main
from superquad.errors import ClaimViolated
from superquad.extension import contexts_equal
from superquad.fileformat import context_to_document, document_to_algebra, document_to_context, parse_document

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"


def results():
    """(g, decompose's result) on the corpus, the catalog and the golden algebras."""
    return [(g, dec.decompose(g, ideal)) for g, ideal in cases()]


def views(res):
    return res.ideal_view, res.a_view, res.h_view


def claimed(g, ctx):
    """g's tables under the record ``("context", ctx)``: an algebra that
    certify_split takes for ctx's extension."""
    return algebra._admit(("context", ctx), g.bracket, g.metric)


def assert_same(res, want):
    for name in want.__dataclass_fields__:
        assert getattr(res, name) == getattr(want, name), name
    assert res.context.extension == want.context.extension


def test_certify_split_of_decompose_views_equals_decompose():
    """On the views decompose returned, certify_split returns an equal
    result, on g and on g recorded as the recovered context's extension,
    which it then returns itself."""
    done = 0
    for g, want in results():
        assert_same(certify_split(g, *views(want)), want)
        res = certify_split(claimed(g, want.context), *views(want))
        assert res.context is want.context
        assert_same(res, want)
        done += 1
    assert done >= 120


def test_certify_split_searches_for_nothing(monkeypatch):
    """With the ideal's checks and every search step patched to raise,
    certify_split still certifies each split, and decompose cannot."""
    expected = results()

    def searched(*args, **kwargs):
        raise AssertionError("certify_split searched")

    for name in ("_validate_ideal", "orthogonal_complement", "witt_complement", "find_central_minimal_ideal",
                 "split_step"):
        monkeypatch.setattr(dec, name, searched)
    for g, want in expected:
        assert_same(certify_split(g, *views(want)), want)
    g, want = expected[0]
    with pytest.raises(AssertionError):
        dec.decompose(g, want.ideal_basis)


def heisenberg_sample():
    """The Heisenberg sample and decompose's result along its ideal file."""
    g = document_to_algebra(parse_document((SAMPLES / "heisenberg.algebra").read_text()))
    return g, dec.decompose(g, parse_document((SAMPLES / "heisenberg.ideal").read_text()).vectors)


def test_certify_split_brings_its_views_to_lowest_terms():
    """An ideal view given at twice its scale certifies to a result equal to
    decompose's, ideal view included."""
    g, want = heisenberg_sample()
    assert want.ideal_view == (1, ({3: 1},))
    res = certify_split(g, (2, ({3: 2},)), want.a_view, want.h_view)
    assert res.ideal_view == want.ideal_view
    assert res == want


@pytest.mark.parametrize("how", ["dropped", "repeated"])
def test_a_split_of_the_wrong_size_is_a_split_basis_violation(how):
    """h with its last vector dropped, or its first vector repeated, leaves
    a + h + I one vector short of dim g or one over: split-basis, with the
    two counts."""
    g, res = heisenberg_sample()
    d, h = res.h_view
    h = h[:-1] if how == "dropped" else h + h[:1]
    with pytest.raises(ClaimViolated) as exc:
        certify_split(g, res.ideal_view, res.a_view, (d, h))
    assert exc.value.claim == "split-basis"
    assert str(exc.value) == f"a + h + I has {3 if how == 'dropped' else 5} vectors, dim g is 4"


def dense_gram(g, cols):
    return [[form_value(g.metric, u, v) for v in cols] for u in cols]


def test_a_view_shifted_by_h_is_an_isometry_metric_violation():
    """One a vector plus an h vector of its parity keeps the split a
    homogeneous basis, but breaks a pairing: certify_split ends in
    isometry-metric at the first entry, row-major, where the planted split's
    dense Gram differs from the true one, which equals the extension's metric."""
    planted = 0
    for g, res in results():
        par = lambda v: vector_parity(g.space, v)
        a, h = list(res.a_basis), res.h_basis
        i, w = next(((i, w) for i, x in enumerate(a) for w in h if par(w) == par(x)), (None, None))
        if i is None:
            continue
        a[i] = tuple(c + e for c, e in zip(a[i], w))
        true_cols = res.a_basis + h + res.ideal_basis
        gram, want = dense_gram(g, a + list(h) + list(res.ideal_basis)), dense_gram(g, true_cols)
        p, q = next((p, q) for p, row in enumerate(gram) for q, x in enumerate(row) if x != want[p][q])
        with pytest.raises(ClaimViolated) as exc:
            certify_split(g, res.ideal_view, dec._view(a), res.h_view)
        assert exc.value.claim == "isometry-metric"
        assert exc.value.violations[0].indices == (p, q)
        assert exc.value.violations[0].residual == gram[p][q] - want[p][q]
        planted += 1
    assert planted >= 120


def planted_split(res, plants):
    """The views of res's I, a and h with vector r of a + h + I replaced by
    plants[r], for each r in plants."""
    cols = [*res.a_basis, *res.h_basis, *res.ideal_basis]
    for r, v in plants.items():
        cols[r] = v
    na, nh = len(res.a_view[1]), len(res.h_view[1])
    return dec._view(cols[na + nh:]), dec._view(cols[:na]), dec._view(cols[na:na + nh])


@pytest.mark.parametrize("claim", ["split-homogeneous", "split-basis"])
def test_a_split_that_is_no_homogeneous_basis_names_its_first_bad_vector(claim):
    """A vector of a + h + I given a coordinate of the other parity
    (``split-homogeneous``), or replaced by zero or twice an earlier vector
    (``split-basis``), is refused with its index in a + h + I as the
    witness; a second such vector after it changes nothing."""
    rng = random.Random(claim)
    planted = 0
    for g, res in results()[::3]:
        cols = res.a_basis + res.h_basis + res.ideal_basis
        n = len(cols)

        def bad(r):
            if claim == "split-homogeneous":
                k = next((k for k in range(g.dim) if g.space.parity(k) != vector_parity(g.space, cols[r])), None)
                return None if k is None else tuple(c + (m == k) for m, c in enumerate(cols[r]))
            if r == 0 or rng.random() < 0.3:
                return tuple(0 * c for c in cols[r])
            return tuple(2 * c for c in cols[rng.randrange(r)])

        r = rng.randrange(n)
        plants = {r: bad(r)}
        if r + 1 < n:
            later = rng.randrange(r + 1, n)
            plants[later] = bad(later)
        if None in plants.values():  # no coordinate of the other parity
            continue
        with pytest.raises(ClaimViolated) as exc:
            certify_split(g, *planted_split(res, plants))
        assert exc.value.claim == claim
        assert exc.value.violations[0].indices == (r,)
        planted += 1
    assert planted >= 40


def test_a_moved_extension_certifies_along_its_own_blocks():
    """A corpus extension moved by a random parity-preserving basis, split
    along the images of its own a, h and dual block, certifies, and the
    recovered context is the original's up to labels; along the same ideal,
    decompose's search picks another complement on most of them, and its
    context differs from the original: two complements of one ideal."""
    rng = random.Random(21)
    certified = other = 0
    for delta in (0, 1):
        for ctx in context_corpus(delta, 40, seed=5):
            g = ctx.extension
            cols = random_parity_preserving_basis(rng, g.space)
            m_inv = linalg.inverse(linalg.transpose(cols))
            images = [tuple(row[k] for row in m_inv) for k in range(g.dim)]  # e_k in the moved basis
            na, nh = ctx.a.dim, ctx.h.dim
            g = change_basis(g, cols)
            ideal, a, h = (dec._view(images[lo:hi]) for lo, hi in ((na + nh, g.dim), (0, na), (na, na + nh)))
            res = certify_split(g, ideal, a, h)
            assert contexts_equal(res.context, ctx)
            certified += 1
            other += not contexts_equal(dec.decompose(g, images[na + nh:]).context, ctx)
    assert certified == 80 and other >= 50


def own_views(ctx):
    """The views of I, a and h along which roundtrip splits ctx's extension:
    the dual block, a and h as g's own basis vectors, at scale 1."""
    na, nh = ctx.a.dim, ctx.h.dim
    return tuple((1, tuple({k: 1} for k in range(lo, hi)))
                 for lo, hi in ((na + nh, 2 * na + nh), (0, na), (na, na + nh)))


def relabelled(ctx):
    """ctx with every label of a and h, so of the dual block too, renamed."""
    doc = context_to_document(ctx, "c")
    a_doc, h_doc = (dataclasses.replace(d, basis=tuple((f"{lab}r", p) for lab, p in d.basis))
                    for d in (doc.a_doc, doc.h_doc))
    return document_to_context(dataclasses.replace(doc, a_doc=a_doc, h_doc=h_doc))


def outcome(g, views):
    """certify_split's result, or the claim and witnesses it raised."""
    try:
        return certify_split(g, *views)
    except ClaimViolated as exc:
        return exc.claim, exc.violations


def test_a_source_whose_extension_is_g_gives_the_result_of_none():
    """Split along its own blocks, each extension of the corpus, the catalog
    and the samples certifies to the result certify_split gives when g's
    record names no context, when it names g's own context, extension built
    or not, another corpus context of its shape, whose extension is built
    and whose tables differ, or g's own context relabelled. Only with the
    first is that context returned itself."""
    corpus = context_corpus(0, 40, seed=5) + context_corpus(1, 40, seed=5)
    inputs = [(ctx.extension, ctx) for ctx in corpus]
    catalog = [*(heisenberg_context(default_heisenberg_params(pairs)) for pairs in (1, 2, 3)),
               *(odd_extension_context(default_odd_dim1_params(eta)) for eta in (Fraction(1), Fraction(-3, 2)))]
    inputs += [(ctx.extension, ctx) for ctx in catalog]
    for stem in (SAMPLES / "heisenberg", SAMPLES / "odd-dim1", GOLDEN / "coprime"):
        g = document_to_algebra(parse_document(Path(f"{stem}.algebra").read_text()))
        ctx = document_to_context(parse_document(Path(f"{stem}.context").read_text()))
        assert ctx.extension == g  # built, and equal to g, a distinct object
        inputs.append((g, ctx))
    same_space = 0
    for g, ctx in inputs:
        views = own_views(ctx)
        want = outcome(QuadraticLieSuperAlgebra(LieSuperAlgebra(g.bracket), g.metric), views)
        shape = [o for o in corpus if o is not ctx and o.delta == ctx.delta
                 and (o.a.dim, o.h.dim) == (ctx.a.dim, ctx.h.dim)]
        other = next((o for o in shape if o.space == ctx.space), shape[0] if shape else None)
        sources = [ctx, copy.copy(ctx), relabelled(ctx)] + ([other] if other else [])
        for source in sources[2:]:
            assert source.extension is not None  # built, so it is compared with if it equals the recovered one
        same_space += other is not None and other.space == g.space
        assert "extension" not in vars(sources[1])
        for source in sources:
            got = outcome(claimed(g, source), views)
            if isinstance(want, tuple):
                assert got == want
                continue
            assert_same(got, want)
            if source is ctx:
                assert got.context is ctx
    assert len(inputs) == 88 and same_space >= 50


@pytest.mark.parametrize("path", [SAMPLES / "heisenberg.context", SAMPLES / "odd-dim1.context",
                                  GOLDEN / "coprime.context"], ids=lambda p: p.name)
def test_roundtrip_certifies_on_the_extension_it_holds(path, monkeypatch):
    """roundtrip splits its extension g along g's own basis vectors, so it
    changes no basis and checks no ideal hypothesis: it reads the context
    back from g's own tables once, and makes the two isometry comparisons
    of g with the input's extension, whose metric it builds once, for
    validate_context."""
    calls = {**count_calls(monkeypatch, dec, "extract_structure_maps", "_bracket_in_basis", "_validate_ideal"),
             **count_calls(monkeypatch, linalg, "inverse_ints"),
             **count_calls(monkeypatch, algebra, "certify_isometry"),
             **count_calls(monkeypatch, extension, "extension_metric")}
    assert main(["roundtrip", str(path)]) == 0
    assert {name: len(seen) for name, seen in calls.items()} == {
        "extract_structure_maps": 1, "_bracket_in_basis": 0, "_validate_ideal": 0, "inverse_ints": 0,
        "certify_isometry": 2, "extension_metric": 1}
