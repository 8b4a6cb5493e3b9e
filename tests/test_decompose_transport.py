"""decompose certifies its re-extension by the exact isometry onto g.

Once ``isometry-bracket`` and ``isometry-metric`` have passed, the tables of
``extension_tables`` are g's tables in an even invertible change of basis,
so g's certificate is theirs and ``_transported`` wraps them unscanned. The
tests below compare that run with one in which the tables are scanned, check
the helper's parity precondition, and check the centre found as
``[g,g]^perp`` against the centraliser system it replaced. The planted
defects that the isometry claims report before the unscanned build are in
``test_sparse_oracles.py``.
"""

import dataclasses
import functools
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from generators import (
    _oscillator,
    _sl2_killing,
    change_basis,
    context_corpus,
    random_heisenberg_params,
    random_odd_dim1_params,
    random_parity_preserving_basis,
    random_quadratic,
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
from superquad.errors import SuperquadError
from superquad.extension import double_extend
from superquad.fileformat import document_to_algebra, document_to_context, parse_document
from superquad.linalg import unit_vec
from superquad.spaces import dense_vec, parity_shift

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
    the oscillator."""
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
    out += [(g, found) for g in algebras if (found := dec.find_central_minimal_ideal(g)) is not None]
    return tuple(out)


def scanned(maps, bracket, metric):
    """The re-extension certified by its own scans, as before the isometry carried the certificate."""
    return QuadraticLieSuperAlgebra(LieSuperAlgebra(bracket), metric)


def test_transported_result_equals_the_scanned_one(monkeypatch):
    """Every field of the result equals that of a run whose re-extension is
    scanned, the re-extension equals ``double_extend`` of the recovered
    context, and that context's ``extension`` is the returned algebra."""
    results = [dec.decompose(g, ideal) for g, ideal in cases()]
    with monkeypatch.context() as mp:
        mp.setattr(dec, "_transported", scanned)
        expected = [dec.decompose(g, ideal) for g, ideal in cases()]
    moved_or_picked = 0
    for res, want in zip(results, expected):
        for name in want.__dataclass_fields__:
            assert getattr(res, name) == getattr(want, name), name
        assert res.extension == double_extend(res.context)
        assert res.context.extension is res.extension
        moved_or_picked += any(c not in (0, 1) for v in res.ideal_basis for c in v)
    assert len(results) >= 120 and moved_or_picked >= 10


def test_recovered_context_pickles_without_its_extension():
    """The seeded extension takes no part in equality, hashing or pickling:
    a pickled context comes back equal, without it, and rebuilds an equal
    one on first use; the transported algebra pickles to an equal one."""
    for g, ideal in cases()[::9]:
        res = dec.decompose(g, ideal)
        back = pickle.loads(pickle.dumps(res.context))
        assert back == res.context and hash(back) == hash(res.context)
        assert "extension" not in vars(back)
        assert back.extension == res.extension and back.extension is not res.extension
        assert pickle.loads(pickle.dumps(res.extension)) == res.extension


def test_transport_refuses_a_basis_of_other_parities():
    for g, ideal in cases()[::7]:
        res = dec.decompose(g, ideal)
        maps, ext = res.maps, res.extension
        dec._transported(maps, ext.bracket, ext.metric)  # the parities agree
        for bad in (dataclasses.replace(maps, a_space=parity_shift(maps.a_space)),
                    dataclasses.replace(maps, ideal_space=parity_shift(maps.ideal_space))):
            with pytest.raises(SuperquadError, match="parity"):
                dec._transported(bad, ext.bracket, ext.metric)


# ---------------------------------------------------------------------------
# The centre as [g,g]^perp


def centraliser_pick(g):
    """The centre as the nullspace of the centraliser system [x, e_j]_k = 0,
    one row per (j, k), read from the bracket's integer view: the first
    isotropic vector of its canonical basis, dense, or None."""
    rows: dict = {}
    for (i, j), v in g.bracket.scaled_pairs[1].items():
        for k, c in v.items():
            rows.setdefault((j, k), {})[i] = c
    d, center = linalg.nullspace_ints([rows[key] for key in sorted(rows)], g.dim)
    for v in center:
        u = dense_vec({k: Fraction(c, d) for k, c in v.items()}, g.dim)
        if g.metric.value(u, u) == 0:
            return [u]
    return None


def test_centre_from_the_derived_algebra_matches_the_centraliser_system():
    rng = random.Random(43)
    algebras = []
    for delta in (0, 1):
        contexts = context_corpus(delta)
        algebras += [ctx.extension for ctx in contexts]
        algebras += [moved(rng, ctx)[0] for ctx in contexts if ctx.a.dim and ctx.extension.dim <= 12]
        algebras += [random_quadratic(rng, delta, max_dim=6) for _ in range(20)]
    algebras += [_sl2_killing(), _oscillator()]
    picks = [dec.find_central_minimal_ideal(g) for g in algebras]
    assert picks == [centraliser_pick(g) for g in algebras]
    assert len(algebras) >= 200
    assert sum(p is None for p in picks) >= 5 and sum(p is not None for p in picks) >= 100
    assert any(any(c not in (0, 1) for c in p[0]) for p in picks if p is not None)
    assert centraliser_pick(_sl2_killing()) is None
