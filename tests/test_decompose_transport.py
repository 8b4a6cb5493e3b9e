"""decompose scans the re-extension alone: g, a, h and the context are certified by transport.

Once the ``ideal-*`` and ``a-superalgebra`` claims pass, the blocks are
wrapped unscanned and the re-extension assembled from them; nothing is
returned until ``isometry-metric``, compared before chi and Phi are
derived, and ``isometry-bracket`` have passed, the isometry, of degree
0, has been built between basis vectors of one parity each, and the
re-extension, the tables of ``extension_metric`` and
``extension_bracket``, has passed its own scans. Those tables are then g's
tables in an even invertible change of basis, so g's certificate is
theirs; a is isotropic and dual to I, so a is the quotient g/I-perp and h
the subquotient I-perp/I, and ``_admit`` wraps them unscanned; the
recovered context, whose axioms are blocks of the re-extension's
identities, is not validated again, nor is xi built from a pairing the
isometry's metric has already fixed.
The tests below check those facts on every split,
compare the transported run with one in which every table is scanned,
plant a Witt complement one vector short and a block on a flipped parity,
which are refused, and a repeated I-perp vector, which changes nothing,
and check the centre found as ``[g,g]^perp`` against the centraliser
system it replaced. The planted defects that the isometry claims report
before the re-extension is built are in ``test_sparse_oracles.py``.
"""

import copy
import functools
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from generators import (
    _oscillator,
    _sl2_killing,
    change_basis,
    context_corpus,
    dense_line,
    dense_vec,
    random_heisenberg_params,
    random_odd_dim1_params,
    random_parity_preserving_basis,
    random_quadratic,
    rescanned,
)
import superquad.decompose as dec
from superquad import linalg
from superquad.algebra import LieSuperAlgebra, QuadraticLieSuperAlgebra
from superquad.catalog import (
    default_heisenberg_params,
    default_odd_dim1_params,
    heisenberg_context,
    odd_extension_context,
)
from superquad.errors import ClaimViolated, SuperquadError
from superquad.extension import double_extend, validate_context
from superquad.fileformat import document_to_algebra, document_to_context, parse_document
from superquad.linalg import unit_vec
from superquad.spaces import SuperSpace

GOLDEN = Path(__file__).resolve().parent / "golden"


def dual_block(ctx):
    g = ctx.extension
    return g, [unit_vec(g.dim, g.dim - ctx.a.dim + k) for k in range(ctx.a.dim)]


def moved(rng, ctx):
    """The extension of ctx in a random parity-preserving basis, and its dual block there."""
    g = ctx.extension
    cols = random_parity_preserving_basis(rng, g.space)
    m_inv = linalg.inverse(linalg.transpose(cols))
    return change_basis(g, cols), [tuple(row[k] for row in m_inv) for k in range(g.dim - ctx.a.dim, g.dim)]


@functools.cache
def cases() -> tuple:
    """(g, ideal) pairs: corpus extensions along their dual block, a third of
    them moved; the catalog families; the coprime golden algebra along a
    line that is not its dual block; and every auto pick among them and of
    the oscillator. Each g is rebuilt by the checking constructors, so that
    no record names a context for decompose to reuse: every split scans
    its re-extension."""
    rng = random.Random(41)
    out = []
    for delta in (0, 1):
        contexts = [ctx for ctx in context_corpus(delta) if ctx.a.dim]
        out += [dual_block(ctx) for ctx in contexts]
        out += [moved(rng, ctx) for ctx in contexts[::3] if ctx.extension.dim <= 12]
    catalog = [*(heisenberg_context(default_heisenberg_params(pairs)) for pairs in (1, 2, 3)),
               *(heisenberg_context(random_heisenberg_params(rng)) for _ in range(3)),
               *(odd_extension_context(default_odd_dim1_params(eta)) for eta in (Fraction(1), Fraction(-3, 2))),
               *(odd_extension_context(random_odd_dim1_params(rng)) for _ in range(3)),
               document_to_context(parse_document((GOLDEN / "coprime.context").read_text()))]
    out += [dual_block(ctx) for ctx in catalog]
    coprime = document_to_algebra(parse_document((GOLDEN / "coprime.algebra").read_text()))
    out.append((coprime, [unit_vec(coprime.dim, k) for k in (7, 8, 9)]))
    algebras = [g for g, _ in out[::4]] + [coprime, _oscillator()]
    out += [(g, found) for g in algebras if (found := dense_line(dec.find_central_minimal_ideal(g), g.dim))]
    return tuple((rescanned(g), ideal) for g, ideal in out)


def scanned(proof, bracket, metric=None):
    """The block certified by its own scans, as before the transport carried
    the certificate; a block so built keeps its record ``("scan",)``."""
    scanned.calls += 1
    lie = LieSuperAlgebra(bracket)
    return lie if metric is None else QuadraticLieSuperAlgebra(lie, metric)


def test_transported_result_equals_the_scanned_one(monkeypatch):
    """Every field of the result, and the re-extension, equals that of a run
    whose a and h are scanned too, the transported a and h equal the
    scanned ones, the re-extension equals ``double_extend`` of a copy of
    the recovered context, which scans it, and that context holds the
    re-extension as its ``extension``, set by decompose."""
    results = [dec.decompose(g, ideal) for g, ideal in cases()]
    scanned.calls = 0
    with monkeypatch.context() as mp:
        mp.setattr(dec, "_admit", scanned)
        expected = [dec.decompose(g, ideal) for g, ideal in cases()]
    # a and h twice: read to build the re-extension, then admitted once it has passed its scans, in both runs
    assert scanned.calls == 4 * len(expected)
    moved_or_picked = 0
    for res, want in zip(results, expected):
        ctx = res.context
        assert "extension" in vars(ctx)  # the re-extension, set by decompose: nothing has read it yet
        assert all(b.proof[0] == "split" and b.proof[1] is ctx.extension for b in (ctx.a, ctx.h, ctx.h.algebra))
        for name in want.__dataclass_fields__:
            assert getattr(res, name) == getattr(want, name), name
        assert ctx.extension == want.context.extension
        assert ctx.a == LieSuperAlgebra(ctx.a.bracket)
        assert ctx.h == QuadraticLieSuperAlgebra(LieSuperAlgebra(ctx.h.bracket), ctx.h.metric)
        assert ctx.extension == double_extend(copy.copy(ctx))  # the copy holds no extension
        moved_or_picked += any(c not in (0, 1) for v in res.ideal_basis for c in v)
    assert len(results) >= 120 and moved_or_picked >= 10


def test_facts_decompose_does_not_prove_again_hold():
    """What the isometry and the Witt pairing imply, and decompose no longer
    checks a second time, holds on every split: the recovered context
    passes validate_context, a is transverse to the ideal, and xi_delta and
    xi are the identity."""
    for g, ideal in cases():
        res = dec.decompose(g, ideal)
        assert validate_context(res.context) == []
        dim = len(res.ideal_basis)
        assert linalg.rank(list(res.ideal_basis + res.a_basis), g.dim) == 2 * dim
        identity = (1, tuple({m: 1} for m in range(dim)))
        xi_delta, xi = dec.build_xi(g.metric, res.ideal_view, res.a_view, g.delta, res.context.a.space)
        assert xi_delta.scaled_columns == identity and xi.scaled_columns == identity


def test_recovered_context_pickles_without_its_extension():
    """The seeded extension takes no part in equality, hashing or pickling:
    a pickled context comes back equal, without it, and rebuilds an equal
    one on first use; the transported algebra pickles to an equal one."""
    for g, ideal in cases()[::9]:
        res = dec.decompose(g, ideal)
        back = pickle.loads(pickle.dumps(res.context))
        assert back == res.context and hash(back) == hash(res.context)
        assert "extension" not in vars(back)
        ext = res.context.extension
        assert back.extension == ext and back.extension is not ext
        assert pickle.loads(pickle.dumps(ext)) == ext


def test_dim_a_below_dim_ideal_is_an_a_superalgebra_violation(monkeypatch):
    """With the last a vector planted in I-perp's basis, h takes it and the
    Witt complement, planted too, gives one vector fewer: the blocks are
    still a basis, and a-superalgebra refuses dim a < dim I before the
    structure maps are read off, also where [a,a] has I-components, which
    omega on P_delta(a)* has one slot too few to hold."""
    real_perp = dec.orthogonal_complement
    results = [(g, ideal, dec.decompose(g, ideal)) for g, ideal in cases()]
    planted = [(g, ideal, res) for g, ideal, res in results if res.a_view[1]]
    for g, ideal, res in planted:
        d, a = res.a_view
        last, rest = linalg.lowest_terms(d, a[-1:]), linalg.lowest_terms(d, a[:-1])
        with monkeypatch.context() as mp:
            mp.setattr(dec, "orthogonal_complement", lambda *args: dec._join(real_perp(*args), last))
            mp.setattr(dec, "witt_complement", lambda *args, **kwargs: rest)
            with pytest.raises(ClaimViolated) as exc:
                dec.decompose(g, ideal)
        assert exc.value.claim == "a-superalgebra", exc.value
        assert f"dim a is {len(a) - 1}, dim I is {len(a)}" in str(exc.value)
    assert len(planted) >= 100
    last_slot = [res for _, _, res in planted  # [a,a] without the last a vector reaches its I slot
                 if any(max(i, j) < k == res.context.a.dim - 1 for i, j, k in res.context.omega.scaled_table()[1])]
    assert len(last_slot) >= 2


def test_i_perp_basis_with_a_repeated_vector_gives_the_same_result(monkeypatch):
    """An I-perp basis with a repeated vector leaves h as it was: h is the
    part of I-perp's basis that extends I's independent basis, so dim h +
    dim I = dim I-perp holds by construction, and the result equals the
    unpatched one."""
    real_perp = dec.orthogonal_complement

    def repeated(*args):  # I-perp's basis with its first vector once more
        d, perp = real_perp(*args)
        return dec._join((d, perp), linalg.lowest_terms(d, perp[:1]))

    picked = cases()[::5]
    expected = [dec.decompose(g, ideal) for g, ideal in picked]
    monkeypatch.setattr(dec, "orthogonal_complement", repeated)
    for (g, ideal), want in zip(picked, expected):
        res = dec.decompose(g, ideal)
        for name in want.__dataclass_fields__:
            assert getattr(res, name) == getattr(want, name), name
    assert len(picked) >= 30


def test_a_block_on_a_flipped_parity_is_refused(monkeypatch):
    """With the first parity of a's block, then of h's, flipped where the
    split builds the block's space, decompose raises on every case where
    that block is nonzero, and never returns: the isometry it returns has
    degree 0, so its constructor refuses an entry whose two parities
    differ, if a table or the re-extension's metric has not refused the
    flipped basis first. That is the one parity check."""
    real_block = dec._block_space
    for block, least in (("a", 180), ("h", 150)):
        def flipped(g_space, view, prefix, *args, **kwargs):
            space = real_block(g_space, view, prefix, *args, **kwargs)
            if prefix != block or not space.dim:
                return space
            (label, parity), *rest = space.basis
            return SuperSpace(((label, 1 - parity), *rest))

        planted = [(g, ideal) for g, ideal in cases() if getattr(dec.decompose(g, ideal).context, block).dim]
        with monkeypatch.context() as mp:
            mp.setattr(dec, "_block_space", flipped)
            for g, ideal in planted:
                with pytest.raises(SuperquadError):
                    dec.decompose(g, ideal)
        assert len(planted) >= least


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0, 1)))
def test_auto_line_splits_into_blocks_the_scans_accept(seed, delta):
    """Along the line ``find_central_minimal_ideal`` returns for a small
    quadratic algebra moved by a parity-preserving basis, decompose either
    returns a and h that the scanning constructors accept too, or raises
    ClaimViolated; any other exception fails."""
    rng = random.Random(seed)
    g = random_quadratic(rng, delta, max_dim=6)
    if g.dim:
        g = change_basis(g, random_parity_preserving_basis(rng, g.space))
    line = dense_line(dec.find_central_minimal_ideal(g), g.dim)
    if line is None:
        return
    try:
        res = dec.decompose(g, line)
    except ClaimViolated:
        return
    a, h = res.context.a, res.context.h
    assert LieSuperAlgebra(a.bracket) == a
    assert QuadraticLieSuperAlgebra(LieSuperAlgebra(h.bracket), h.metric) == h


# ---------------------------------------------------------------------------
# The centre as [g,g]^perp


def centraliser_pick(g, radical=True):
    """The centre as the nullspace of the centraliser system [x, e_j]_k = 0,
    one row per (j, k), read from the bracket's integer view: the first
    isotropic vector of its canonical basis, else sum_i r_i z_i for r the
    first canonical vector of the nullspace of the Gram B(z_i, z_j) of that
    basis (with ``radical`` on), read on dense vectors, dense, or None."""
    rows: dict = {}
    for (i, j), v in g.bracket.scaled_pairs[1].items():
        for k, c in v.items():
            rows.setdefault((j, k), {})[i] = c
    d, center = linalg.nullspace_ints([rows[key] for key in sorted(rows)], g.dim)
    basis = [dense_vec({k: Fraction(c, d) for k, c in v.items()}, g.dim) for v in center]
    for u in basis:
        if g.metric.value(u, u) == 0:
            return [u]
    radical = linalg.nullspace([[g.metric.value(u, w) for w in basis] for u in basis], len(basis)) if radical else []
    if not radical:
        return None
    return [tuple(sum(r * u[k] for r, u in zip(radical[0], basis)) for k in range(g.dim))]


def test_centre_from_the_derived_algebra_matches_the_centraliser_system():
    rng = random.Random(43)
    algebras = []
    for delta in (0, 1):
        contexts = context_corpus(delta)
        algebras += [ctx.extension for ctx in contexts]
        algebras += [moved(rng, ctx)[0] for ctx in contexts if ctx.a.dim and ctx.extension.dim <= 12]
        algebras += [random_quadratic(rng, delta, max_dim=6) for _ in range(20)]
    algebras += [_sl2_killing(), _oscillator()]
    picks = [dense_line(dec.find_central_minimal_ideal(g), g.dim) for g in algebras]
    assert picks == [centraliser_pick(g) for g in algebras]
    assert len(algebras) >= 200
    assert sum(p is None for p in picks) >= 5 and sum(p is not None for p in picks) >= 100
    # picks no canonical centre vector gives, each a line of the radical of B on the centre
    assert sum(p is not None and centraliser_pick(g, radical=False) is None for p, g in zip(picks, algebras)) >= 3
    assert any(any(c not in (0, 1) for c in p[0]) for p in picks if p is not None)
    assert centraliser_pick(_sl2_killing()) is None
