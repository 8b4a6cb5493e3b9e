"""decompose on integer views against the Fraction implementations it replaced.

The oracles below are the pipeline steps as they were written over
``Fraction``s: pairings through rational covectors read from the form's
``matrix``, Gram rows and dual rows from those covectors, the ideal's
images through ``GradedBilinearMap.value``, and the centraliser rows read
from the bracket's rational ``entries()``. The steps take and return integer views; an
oracle reads its input views as rational vectors (``rational``) and turns
its result into a view only where it hands it back (``dec._view``).
``oracle_decompose`` runs ``decompose`` with these steps in place of the
integer ones, so every field of the result and every claim, witness and
residual can be compared with the integer run. ``build_xi``, which
``decompose`` no longer calls, is compared on its own.
"""

import contextlib
import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from generators import (
    change_basis,
    combine,
    context_corpus,
    dense_line,
    dense_vec,
    random_heisenberg_params,
    random_odd_dim1_params,
    random_parity_preserving_basis,
    rescanned,
    scaled_to_ints,
    sparse_vec,
)
import superquad.decompose as dec
from superquad import linalg
from superquad.catalog import (
    default_heisenberg_params,
    default_odd_dim1_params,
    heisenberg_context,
    heisenberg_extension,
    odd_extension_context,
)
from superquad.errors import ClaimViolated, DegenerateInput, DegeneratePairing, SuperquadError, Violation
from superquad.fileformat import document_to_algebra, document_to_context, parse_document
from superquad.linalg import ONE, ZERO, unit_vec
from superquad.spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    add_scaled,
    common_scale,
    drop_zeros,
    dual_space,
    p_delta_dual,
    sparse_transpose,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# The Fraction oracles


def _sparse(v) -> dict:
    return {k: linalg.scalar(c) for k, c in v.items() if c} if hasattr(v, "items") else sparse_vec(linalg.vec(v))


def rational(view) -> list[dict]:
    """The sparse rational vectors of an integer view."""
    d, vectors = view
    return [{k: Fraction(c, d) for k, c in v.items()} for v in vectors]


def covector(form, u) -> dict:
    """B(u, e_j) over j for a sparse u, from the rows of the form's rational ``matrix``."""
    rows = form.matrix
    return combine({i: sparse_vec(rows[i]) for i in u}, u)


def bracket_right(bracket, i, v) -> dict:
    """[e_i, v] for a sparse v, from the bracket's rational ``value``s."""
    return combine({j: sparse_vec(bracket.value(i, j)) for j in v}, v)


def pair(form, u, v):
    """B(u, v) for sparse vectors, through the rational covector of u."""
    return sum((c * v[j] for j, c in covector(form, u).items() if j in v), ZERO)


def gram(form, vectors):
    """Rows {q: B(vectors[p], vectors[q])}, columns in order, no zeros."""
    by_coord = sparse_transpose(vectors, form.space.dim)
    rows = []
    for u in vectors:
        row: dict = {}
        for j, b in covector(form, u).items():
            add_scaled(row, b, by_coord[j])
        rows.append({q: row[q] for q in sorted(row) if row[q]})
    return rows


def metric_in_basis(form, cols):
    """The rational Gram of the columns, handed over as ``_metric_in_basis``
    does, as one integer view (d, rows)."""
    return scaled_to_ints(gram(form, rational(cols)))


def validate_ideal(g, ideal):
    n = g.dim
    ideal = list(ideal)
    vectors = [_sparse(v) for v in ideal]
    if not ideal:
        raise ClaimViolated("ideal-empty", message="the ideal must be nonzero")
    for r, (v, s) in enumerate(zip(ideal, vectors)):
        if hasattr(v, "items"):
            if any(k not in range(n) for k in v):
                raise ClaimViolated("ideal-shape", message=f"vector {r} has an index outside range({n})")
        elif len(v) != n:
            raise ClaimViolated("ideal-shape", message=f"vector {r} has wrong length")
        if len({g.space.parity(k) for k in s}) > 1:
            raise ClaimViolated("ideal-homogeneous", [Violation("ideal-homogeneous", (r,))])
    grows = linalg.extend_independent([], vectors)
    if len(grows) != len(vectors):
        r = next((r for r, k in enumerate(grows) if k != r), len(grows))
        raise ClaimViolated("ideal-independent", [Violation("ideal-independent", (r,))])
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors[i:], i):
            if pair(g.metric, u, v) != 0:
                raise ClaimViolated("ideal-isotropic", [Violation("ideal-isotropic", (i, j))])
            uv: dict = {}
            for k, a in u.items():
                add_scaled(uv, a, bracket_right(g.bracket, k, v))
            if any(uv.values()):
                raise ClaimViolated("ideal-abelian", [Violation("ideal-abelian", (i, j))])
    images = [bracket_right(g.bracket, p, v) for p in range(n) for v in vectors]
    k = next(iter(linalg.extend_independent(vectors, images)), None)
    if k is not None:
        raise ClaimViolated("ideal-invariant", [Violation(
            "ideal-invariant", divmod(k, len(vectors)), dense_vec(images[k], n))])
    return dec._view(vectors)


def orthogonal_complement(vectors, form):
    rows = [covector(form, s) for s in rational(vectors)]
    basis = [sparse_vec(v) for v in linalg.nullspace(rows, form.space.dim)]
    for v in basis:
        if len({form.space.parity(i) for i in v}) != 1:
            raise SuperquadError("orthogonal complement produced a non-homogeneous vector")
    return dec._view(basis)


def find_central_minimal_ideal(g):
    rows: dict = {}
    for i, j, k, c in g.bracket.entries():
        rows.setdefault((j, k), {})[i] = c
    for v in linalg.nullspace([rows[key] for key in sorted(rows)], g.dim):
        if g.metric.value(v, v) == 0:
            return [v]
    return None


def dual_vectors(form, ideal, avoid):
    """Duals from rational covector rows, one ``linalg.solve`` each."""
    space = form.space
    ideal = [_sparse(e) for e in ideal]
    rows = [covector(form, e) for e in ideal] + [covector(form, _sparse(w)) for w in avoid]
    duals = []
    for i, e in enumerate(ideal):
        want = (dec._parity(space, e) + form.degree) % 2
        cols = [c for c in range(space.dim) if space.parity(c) == want]
        pos = {c: t for t, c in enumerate(cols)}
        sys_rows = [{pos[c]: x for c, x in r.items() if c in pos} for r in rows]
        sol = linalg.solve(sys_rows, [ONE if m == i else ZERO for m in range(len(rows))], len(cols))
        if sol is None:
            raise DegenerateInput(f"no dual vector for ideal vector {i}")
        duals.append({c: x for c, x in zip(cols, sol) if x})
    return duals


def witt_complement(form, ideal, avoid=(1, ())):
    space = form.space
    ideal, avoid = rational(ideal), rational(avoid)
    if not ideal:
        return dec._view([])
    for i, u in enumerate(ideal):
        for v in ideal[i:]:
            if pair(form, u, v) != 0:
                raise ValueError("input subspace is not isotropic")
    if linalg.rank(ideal, space.dim) != len(ideal):
        raise ValueError("ideal vectors are linearly dependent")
    duals = dual_vectors(form, ideal, avoid)
    parities = [dec._parity(space, e) for e in ideal]
    out = []
    for i, d in enumerate(duals):
        corr = dict(d)
        for m, e in enumerate(ideal):
            if form.degree == 1 and (parities[i], parities[m]) != (0, 1):
                continue
            c = pair(form, d, duals[m])
            if c:
                add_scaled(corr, -c if form.degree == 1 else -HALF * c, e)
        out.append(drop_zeros(corr))
    for i in range(len(out)):
        for j in range(len(out)):
            if pair(form, out[i], out[j]) != 0:
                raise DegenerateInput("correction failed to produce an isotropic complement")
            if pair(form, ideal[i], out[j]) != (ONE if i == j else ZERO):
                raise DegenerateInput("dual pairing broke under correction")
    if linalg.rank(ideal + out, space.dim) != 2 * len(ideal):
        raise DegenerateInput("complement is not transverse to the ideal")
    return dec._view(out)


def build_xi(form, ideal, a_vectors, delta, a_space=None, ideal_space=None):
    if a_space is None:
        a_space = dec._block_space(form.space, a_vectors, "a", reuse=False)
    if ideal_space is None:
        ideal_space = dec._block_space(form.space, ideal, "i", reuse=False)
    ideal, a_vectors = rational(ideal), rational(a_vectors)
    pairing = [[pair(form, alpha, x) for alpha in ideal] for x in a_vectors]
    if linalg.rank(pairing, len(ideal)) != len(ideal):
        raise DegeneratePairing("pairing between the ideal and its complement is singular")
    entries = [(j, m, c) for j, row in enumerate(pairing) for m, c in enumerate(row)]
    return (GradedLinearMap.from_entries(ideal_space, p_delta_dual(a_space, delta), 0, entries),
            GradedLinearMap.from_entries(ideal_space, dual_space(a_space), delta, entries))


ORACLES = {"_validate_ideal": validate_ideal, "orthogonal_complement": orthogonal_complement,
           "witt_complement": witt_complement, "_metric_in_basis": metric_in_basis}


def outcome(run, *args):
    """("ok", result) or ("claim", claim, message, violations) of one run."""
    try:
        return ("ok", run(*args))
    except ClaimViolated as exc:
        return ("claim", exc.claim, str(exc), exc.violations)


def oracle_decompose(g, ideal):
    with pytest.MonkeyPatch.context() as mp:
        for name, oracle in ORACLES.items():
            mp.setattr(dec, name, oracle)
        return outcome(dec.decompose, g, ideal)


def assert_same(g, ideal):
    """The integer run and the oracle run agree on every field or on the claim
    and its witnesses; returns the integer run's outcome."""
    got, want = outcome(dec.decompose, g, ideal), oracle_decompose(g, ideal)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        for name in want[1].__dataclass_fields__:
            assert getattr(got[1], name) == getattr(want[1], name), name
    else:
        assert got == want
    return got


# ---------------------------------------------------------------------------
# Cases

BIG_PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093, 10099, 10103,
              10111, 10133, 10139, 10141, 10151, 10159, 10163, 10169, 10177, 10181, 10193, 10211)


def big_scaled_basis(rng, space):
    """A parity-preserving basis whose column j is scaled by p_j / q_j, five-digit primes."""
    primes = rng.sample(BIG_PRIMES, 2 * space.dim)
    return [linalg.vec_scale(Fraction(p, q), col) for col, p, q in
            zip(random_parity_preserving_basis(rng, space), primes[::2], primes[1::2])]


def moved(rng, ctx):
    """The extension of ctx moved to a ``big_scaled_basis``, and its dual block in the new coordinates."""
    g = ctx.extension
    cols = big_scaled_basis(rng, g.space)
    m_inv = linalg.inverse(linalg.transpose(cols))
    ideal = [tuple(row[k] for row in m_inv) for k in range(g.dim - ctx.a.dim, g.dim)]
    return change_basis(g, cols), ideal


@functools.cache
def moved_cases() -> tuple:
    rng = random.Random(19)
    out = []
    for delta in (0, 1):
        contexts = [ctx for ctx in context_corpus(delta) if ctx.a.dim and ctx.extension.dim <= 12]
        out += [moved(rng, ctx) for ctx in contexts[::6]]
    return tuple(out)


def corpus_cases():
    """Corpus extensions along their dual block, each rebuilt so that decompose scans its re-extension."""
    for ctx in context_corpus(0) + context_corpus(1):
        if ctx.a.dim:
            g = rescanned(ctx.extension)
            yield g, [unit_vec(g.dim, g.dim - ctx.a.dim + k) for k in range(ctx.a.dim)]


def catalog_cases():
    rng = random.Random(20)
    contexts = [*(heisenberg_context(default_heisenberg_params(pairs)) for pairs in (1, 2, 3)),
                *(heisenberg_context(random_heisenberg_params(rng)) for _ in range(4)),
                *(odd_extension_context(default_odd_dim1_params(eta)) for eta in (Fraction(1), Fraction(-3, 2))),
                *(odd_extension_context(random_odd_dim1_params(rng)) for _ in range(4)),
                document_to_context(parse_document((GOLDEN / "coprime.context").read_text()))]
    for ctx in contexts:
        g = rescanned(ctx.extension)
        yield g, [unit_vec(g.dim, g.dim - ctx.a.dim + k) for k in range(ctx.a.dim)]
    coprime = document_to_algebra(parse_document((GOLDEN / "coprime.algebra").read_text()))
    yield coprime, [unit_vec(coprime.dim, k) for k in (7, 8, 9)]


def test_moved_cases_cover_both_parities_with_large_denominators():
    deltas = [g.delta for g, _ in moved_cases()]
    assert deltas.count(0) >= 4 and deltas.count(1) >= 4
    assert all(max(c.denominator for v in ideal for c in v) > 10 ** 4 for _, ideal in moved_cases())


def test_moved_extensions_match_the_oracle_with_the_file_ideal_and_auto():
    auto = 0
    for g, ideal in moved_cases():
        assert assert_same(g, ideal)[0] == "ok"
        found = dense_line(dec.find_central_minimal_ideal(g), g.dim)
        assert found == find_central_minimal_ideal(g)
        if found is not None:
            assert_same(g, found)
            auto += 1
    assert auto >= 4


def test_corpus_extensions_match_the_oracle():
    n = 0
    for g, ideal in corpus_cases():
        assert assert_same(g, ideal)[0] == "ok"
        n += 1
    assert n >= 90


def test_catalog_families_and_coprime_golden_match_the_oracle():
    for g, ideal in catalog_cases():
        assert assert_same(g, ideal)[0] == "ok"
        found = dense_line(dec.find_central_minimal_ideal(g), g.dim)
        assert found == find_central_minimal_ideal(g)
        if found is not None:
            assert_same(g, found)


def assert_canonical(view, n):
    """view is in lowest terms over a positive scale, and ``_view`` of its dense basis gives it back."""
    d, vectors = view
    assert d > 0 and linalg.lowest_terms(d, vectors) == (d, vectors)
    assert dec._view([linalg._dense(d, v, n) for v in vectors]) == view


def test_step_and_result_views_are_canonical():
    """Every view orthogonal_complement and witt_complement return inside
    decompose, and the three a result holds, are canonical: two results are
    then equal exactly when their rational bases are."""
    cases = [*moved_cases(), *corpus_cases(), *catalog_cases()]
    cases += [(g, found) for g, _ in cases[::4] if (found := dense_line(dec.find_central_minimal_ideal(g), g.dim)) is not None]
    returned = []

    def recorded(step):
        def run(*args, **kwargs):
            returned.append(step(*args, **kwargs))
            return returned[-1]
        return run

    with pytest.MonkeyPatch.context() as mp:
        for name in ("orthogonal_complement", "witt_complement"):
            mp.setattr(dec, name, recorded(getattr(dec, name)))
        for g, ideal in cases:
            returned.clear()
            res = dec.decompose(g, ideal)
            assert len(returned) == 2
            for view in (*returned, res.a_view, res.h_view, res.ideal_view):
                assert_canonical(view, g.dim)
            assert res.ideal_view == dec._view(ideal)
    assert len(cases) >= 100


def test_build_xi_matches_the_oracle_and_the_identity_xi_of_decompose():
    """On the moved and catalog splits, build_xi of the ideal and the Witt
    complement equals its oracle and is the identity decompose reads omega
    and the split's I-components by."""
    for g, ideal in [*moved_cases(), *catalog_cases()]:
        res = dec.decompose(g, ideal)
        a_space, ideal_space = res.context.a.space, dec._block_space(g.space, res.ideal_view, "i")
        args = (g.metric, res.ideal_view, res.a_view, g.delta, a_space, ideal_space)
        unit = {(j, j): 1 for j in range(a_space.dim)}
        identity = (GradedLinearMap.from_ints(ideal_space, res.context.dual_block, 0, 1, unit),
                    GradedLinearMap.from_ints(ideal_space, dual_space(a_space), g.delta, 1, unit))
        assert dec.build_xi(*args) == build_xi(*args) == identity


def test_extract_structure_maps_gives_back_the_context_the_extension_and_the_isometry():
    """Nothing a result need not hold is lost: on its views,
    extract_structure_maps gives the context's a and h tables, lambda, rho
    and omega, the extension's bracket as the split, the isometry's columns
    as the inverse, and build_xi on the context's a the identity."""
    n = 0
    for g, ideal in [*moved_cases(), *corpus_cases(), *catalog_cases()]:
        res = dec.decompose(g, ideal)
        ctx = res.context
        maps = dec.extract_structure_maps(g, res.ideal_view, res.a_view, res.h_view)
        assert (maps.a_table, maps.h_table, maps.lam, maps.rho) == (ctx.a.bracket, ctx.h.bracket, ctx.lam, ctx.rho)
        assert maps.omega == ctx.omega
        _, (split, bracket) = common_scale([maps.split, ctx.extension.bracket.scaled_pairs])
        assert split == bracket
        assert maps.inverse == res.isometry.scaled_columns
        identity = tuple({j: 1} for j in range(ctx.a.dim))
        xi_delta, xi = dec.build_xi(g.metric, res.ideal_view, res.a_view, g.delta, ctx.a.space)
        assert xi_delta.scaled_columns == xi.scaled_columns == (1, identity)
        n += 1
    assert n >= 100


def planted_ideals(rng, g, ideal):
    """Ideals that break one hypothesis or another: the ideal with a vector
    of g added, a single vector of g, and a random homogeneous vector."""
    n = g.dim
    for k in rng.sample(range(n), min(n, 3)):
        yield list(ideal) + [unit_vec(n, k)]
        yield [unit_vec(n, k)]
    p = rng.randrange(2)
    yield [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if q == p else ZERO
                 for q in g.space.parities)]


def test_planted_ideals_report_the_oracle_claims_and_witnesses():
    rng = random.Random(21)
    claims = []
    cases = [*moved_cases(), *list(corpus_cases())[::5], *catalog_cases()]
    for g, ideal in cases:
        for bad in planted_ideals(rng, g, ideal):
            got = assert_same(g, bad)
            claims.append(got[1] if got[0] == "claim" else "ok")
    for claim in ("ideal-isotropic", "ideal-abelian", "ideal-invariant", "ideal-independent"):
        assert claims.count(claim) >= 3, (claim, sorted(set(claims)))


@pytest.mark.parametrize("ideal, claim, witness", [
    ([unit_vec(4, 1), unit_vec(4, 2)], "ideal-isotropic", (0, 1)),
    ([unit_vec(4, 0), unit_vec(4, 1)], "ideal-abelian", (0, 1)),
    ([unit_vec(4, 1)], "ideal-invariant", (2, 0)),
])
def test_heisenberg_planted_ideals_match_the_oracle(ideal, claim, witness):
    g = heisenberg_extension(default_heisenberg_params())
    got = assert_same(g, ideal)
    assert got[1] == claim and got[3][0].indices == witness


# ---------------------------------------------------------------------------
# decompose makes no rational pairing and no rational bracket


@contextlib.contextmanager
def no_rational_sums():
    """Refuses the rational views of forms and brackets, through which the
    oracles pair and bracket."""
    def refuse(*args):
        raise AssertionError("a rational sum during decompose")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GradedBilinearForm, "matrix", property(refuse))
        mp.setattr(GradedBilinearForm, "value", refuse)
        mp.setattr(GradedBilinearMap, "value", refuse)
        yield


def test_decompose_reads_no_rational_view():
    """Every case is certified before the patch (its integer views are then
    cached, as certifying g caches them in the CLI); under the patch
    decompose and the auto ideal still run, with the same results."""
    rng = random.Random(22)
    cases = [*moved_cases()[::2], *list(corpus_cases())[::10], *catalog_cases()]
    expected = [(outcome(dec.decompose, g, ideal), dec.find_central_minimal_ideal(g)) for g, ideal in cases]
    planted = [(g, bad) for g, ideal in cases[::3] for bad in planted_ideals(rng, g, ideal)]
    planted_expected = [outcome(dec.decompose, g, bad) for g, bad in planted]
    with no_rational_sums():
        for (g, ideal), (res, found) in zip(cases, expected):
            assert outcome(dec.decompose, g, ideal) == res
            assert dec.find_central_minimal_ideal(g) == found
            if not isinstance(found, str):
                dec.decompose(g, dense_line(found, g.dim))
                dec.split_step(g)
        for (g, bad), res in zip(planted, planted_expected):
            assert outcome(dec.decompose, g, bad) == res


def test_the_pin_catches_a_rational_sum():
    g, ideal = next(iter(catalog_cases()))
    with no_rational_sums(), pytest.raises(AssertionError, match="rational sum"):
        oracle_decompose(g, ideal)


# ---------------------------------------------------------------------------
# Ideal vectors as sparse dicts


def test_dict_tuple_and_list_ideals_give_equal_results():
    sample = Path(__file__).resolve().parent.parent / "samples" / "heisenberg.algebra"
    heis = document_to_algebra(parse_document(sample.read_text()))
    cases = [(heis, [(0, 0, 0, 1)]), *list(moved_cases())[:3], *list(corpus_cases())[::20]]
    for g, ideal in cases:
        dense = dec.decompose(g, [tuple(v) for v in ideal])
        forms = ([list(v) for v in ideal],
                 [dict(enumerate(v)) for v in ideal],                     # every index, zeros included
                 [{k: c for k, c in enumerate(v) if c} for v in ideal])   # nonzeros only
        for form in forms:
            res = dec.decompose(g, form)
            for name in dense.__dataclass_fields__:
                assert getattr(res, name) == getattr(dense, name), name
            assert all(type(v) is tuple and len(v) == g.dim for v in res.ideal_basis)


def test_dict_ideal_indices_outside_the_dimension_are_the_shape_claim():
    g = heisenberg_extension(default_heisenberg_params())
    for bad in ({4: 1}, {3: 1, 7: 0}, {-1: 1}):
        with pytest.raises(ClaimViolated) as exc:
            dec.decompose(g, [bad])
        assert exc.value.claim == "ideal-shape"
    with pytest.raises(TypeError):
        dec.decompose(g, [{3: 0.5}])
