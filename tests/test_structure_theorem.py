"""The structure theorem's step, level after level.

Every indecomposable, non-simple homogeneous quadratic Lie superalgebra is
a double extension. ``split_step`` is that step along an isotropic central
line: it splits g = a + h + I with dim a = dim I = 1, or names the stop that
says why there is no such line (``perfect: centre is zero``, ``central
summand``). The peel below repeats it on each level's h until g is zero or
abelian, which the loop checks before each step, or a stop is named.

The property is a theorem, not a sample: g is solvable exactly when h is,
as a = g/I^perp and I are abelian and h = I^perp/I. A solvable g that is
neither zero nor abelian has a line: Z ∩ [g,g] is the radical of B on Z,
and were it 0, g would be Z ⊥ [g,g] with [g,g] perfect and solvable, so 0.
So the peel ends in ``abelian`` or ``zero`` exactly when g is solvable, in
every basis, and a non-solvable g ends in a named stop. The number of
levels, and ``abelian`` against ``zero``, depend on the basis and are not
asserted. Solvability is read off the derived series on dense rational
vectors, independently of the library.
"""

import random

import pytest

from generators import (
    _oscillator,
    _sl2_killing,
    change_basis,
    context_corpus,
    dense_line,
    fractions,
    odd_extension_dim1,
    random_parity_preserving_basis,
    value_vectors,
)
import superquad.decompose as dec
from superquad import linalg, split_step
from superquad.catalog import (
    default_heisenberg_params,
    default_odd_dim1_params,
    heisenberg_extension,
)
from superquad.fileformat import document_to_algebra, parse_document

STOPS = ("perfect: centre is zero", "central summand")


def solvable(g) -> bool:
    """Whether the derived series of g reaches 0: each term is spanned by
    the brackets of the last term's basis, read on dense rational vectors."""
    n = g.dim
    pairs = fractions(g.bracket.scaled_pairs)
    span = [linalg.unit_vec(n, k) for k in range(n)]
    while span:
        values = [value_vectors(pairs, u, v, n) for i, u in enumerate(span) for v in span[i:]]
        derived = [values[k] for k in linalg.extend_independent([], values)]
        if len(derived) == len(span):
            return False
        span = derived
    return True


def peel(g) -> tuple[int, str]:
    """(levels, stop): ``split_step`` on g, then on each level's h, until
    the level is zero or abelian or ``split_step`` names a stop. At every
    level the line meets the ideal's hypotheses (``_validate_ideal`` returns
    it unchanged), the split is along it, dim g = 2 dim a + dim h, and h
    keeps g's metric degree."""
    levels = 0
    while True:
        if not g.dim:
            return levels, "zero"
        if not g.bracket.scaled_pairs[1]:
            return levels, "abelian"
        line = dec.find_central_minimal_ideal(g)
        res = split_step(g)
        if isinstance(res, str):
            assert res == line
            return levels, res
        assert dec._validate_ideal(g, dense_line(line, g.dim)) == line == res.ideal_view
        h = res.context.h
        assert res.context.a.dim == 1 and g.dim == 2 * res.context.a.dim + h.dim
        assert h.delta == g.delta
        levels, g = levels + 1, h


def corpus(delta) -> list:
    """The extensions of ``context_corpus(delta, 40, seed=5)``, each in its
    own basis and moved by a seeded parity-preserving basis."""
    rng = random.Random(26 + delta)
    out = []
    for ctx in context_corpus(delta, 40, seed=5):
        g = ctx.extension
        out += [g, change_basis(g, random_parity_preserving_basis(rng, g.space)) if g.dim else g]
    return out


def catalog() -> list:
    """The catalog families, sl(2) with its Killing form and the oscillator."""
    return [*(heisenberg_extension(default_heisenberg_params(pairs)) for pairs in (1, 2, 3)),
            odd_extension_dim1(default_odd_dim1_params()), _sl2_killing(), _oscillator()]


@pytest.mark.parametrize("delta", (0, 1))
def test_every_corpus_algebra_peels_to_a_named_stop(delta):
    ends = {}
    for g in corpus(delta):
        levels, stop = peel(g)
        assert (stop in ("abelian", "zero")) == solvable(g), stop
        assert stop in ("abelian", "zero", *STOPS)
        ends[stop] = ends.get(stop, 0) + 1
        ends["levels"] = max(ends.get("levels", 0), levels)
    assert sum(ends.get(stop, 0) for stop in ("abelian", "zero", *STOPS)) == 80
    assert ends["levels"] >= 2
    if delta == 0:  # 5 of the 40 are not solvable, in both bases; one moved copy has a central summand
        assert sum(ends.get(stop, 0) for stop in STOPS) == 10 and ends["central summand"] == 1


def test_catalog_algebras_peel_to_a_named_stop():
    stops = []
    for g in catalog():
        levels, stop = peel(g)
        assert (stop in ("abelian", "zero")) == solvable(g), stop
        stops.append((levels, stop))
    assert stops[:4] == [(1, "abelian")] * 3 + [(1, "zero")]
    assert stops[4:] == [(0, "perfect: centre is zero"), (1, "abelian")]


def test_split_step_names_its_stops():
    """sl(2) has no centre; a line, and a plane with B = diag(1, -1), are
    their own non-degenerate centres, with no canonical isotropic vector."""
    assert split_step(_sl2_killing()) == "perfect: centre is zero"
    z = "algebra z\nbasis x 0\nmetric-degree 0\nmetric 0 0 1\nend algebra\n"
    plane = "algebra p\nbasis x 0\nbasis y 0\nmetric-degree 0\nmetric 0 0 1\nmetric 1 1 -1\nend algebra\n"
    for text in (z, plane):
        assert split_step(document_to_algebra(parse_document(text))) == "central summand"


def test_split_step_is_decompose_along_its_line():
    """The old ``--ideal auto`` path is the oracle: on the corpus and its
    moves, ``_validate_ideal`` returns each line unchanged, and split_step
    equals decompose along the line's dense vector."""
    lines = 0
    for g in corpus(0) + corpus(1) + catalog():
        line = dec.find_central_minimal_ideal(g)
        if isinstance(line, str):
            assert split_step(g) == line
            continue
        dense = dense_line(line, g.dim)
        assert dec._validate_ideal(g, dense) == line
        assert split_step(g) == dec.decompose(g, dense)
        lines += 1
    assert lines >= 150
