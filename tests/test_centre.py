"""The facts about the centre that a splitting step rests on, checked on
dense rational vectors, independently of ``find_central_minimal_ideal``.

For g quadratic with B invariant and non-degenerate:

- Z(g) = [g,g]^perp, as B([x,y],z) = B(x,[y,z]) vanishes for all x, y
  exactly when z is central;
- Z ∩ [g,g] is the radical of B on Z, so every line in it is an isotropic
  central ideal;
- in a double extension a + h + P_delta(a)*, the dual block is central
  exactly when a is abelian, as [x, alpha] = ad*_delta(x)(alpha) there.

Z is the nullspace of the centraliser system [x, e_j] = 0, one row per
coordinate k of each [e_i, e_j], as the oracle in
``test_decompose_integer.py`` reads it.
"""

import random
from fractions import Fraction
from pathlib import Path

from generators import (change_basis, context_corpus, form_value, odd_extension_dim1, random_parity_preserving_basis,
                        scaled_to_ints, sparse_vec)
from superquad import linalg, spaces
from superquad.catalog import (
    default_heisenberg_params,
    default_odd_dim1_params,
    heisenberg_extension,
)
from superquad.fileformat import document_to_algebra, parse_document

DATA = Path(__file__).resolve().parent / "data"


def centre(g) -> list:
    rows: dict = {}
    for i, j, k, c in g.bracket.entries():
        rows.setdefault((j, k), {})[i] = c
    return linalg.nullspace([rows[key] for key in sorted(rows)], g.dim)


def derived(g) -> list:
    """A basis of [g,g]: the bracket values [e_i, e_j] that grow its span."""
    values = [g.bracket.value(i, j) for i in range(g.dim) for j in range(g.dim)]
    return [values[k] for k in linalg.extend_independent([], values)]


def view(vectors) -> tuple:
    """Dense rational vectors as one integer view."""
    return scaled_to_ints(map(sparse_vec, vectors))


def same_span(us, vs, n) -> bool:
    return linalg.rank(list(us), n) == linalg.rank(list(vs), n) == linalg.rank(list(us) + list(vs), n)


def algebras() -> list:
    """The corpus extensions, the catalog families, the oscillator line, and
    a few of them moved by a random parity-preserving basis."""
    out = [ctx.extension for delta in (0, 1) for ctx in context_corpus(delta, 40, seed=5)]
    out += [heisenberg_extension(default_heisenberg_params(pairs)) for pairs in (1, 3)]
    out += [odd_extension_dim1(default_odd_dim1_params(Fraction(1))),
            document_to_algebra(parse_document((DATA / "oscillator-line.algebra").read_text()))]
    rng = random.Random(47)
    out += [change_basis(g, random_parity_preserving_basis(rng, g.space)) for g in out[::9] if g.dim <= 12]
    return out


def test_centre_is_the_orthogonal_of_the_derived_algebra_and_meets_it_in_its_radical():
    """The dense facts, and ``spaces`` against them: ``radical`` of the
    centre spans the dense radical, and ``perp`` of [g,g] is one view,
    byte for byte, whether given its basis or a shuffled, rescaled and
    redundant spanning set."""
    meets = summands = 0
    rng = random.Random(53)
    samples = algebras()
    for g in samples:
        n, z, d = g.dim, centre(g), derived(g)
        perp = linalg.nullspace([[form_value(g.metric, w, linalg.unit_vec(n, c)) for c in range(n)] for w in d], n)
        assert same_span(z, perp, n)
        gram = [[form_value(g.metric, u, v) for v in z] for u in z]
        radical = [tuple(sum(r * u[k] for r, u in zip(rv, z)) for k in range(n))
                   for rv in linalg.nullspace(gram, len(z))]
        # the radical lies in [g,g] and has the dimension of Z ∩ [g,g]
        assert linalg.rank(d + radical, n) == len(d)
        assert len(radical) == len(z) + len(d) - linalg.rank(z + d, n)
        d_r, found = spaces.radical(g.metric, view(z))
        assert len(found) == len(radical) and same_span([linalg._dense(d_r, v, n) for v in found], radical, n)
        spanning = [linalg.vec_scale(rng.choice((-3, Fraction(1, 2), 5, Fraction(-2, 7))), v) for v in d]
        spanning += [linalg.vec_add(u, v) for u, v in zip(d, d[1:])] + [linalg.zero_vec(n)]
        rng.shuffle(spanning)
        assert repr(spaces.perp(g.metric, view(spanning))) == repr(spaces.perp(g.metric, view(d)))
        meets += bool(radical)
        summands += len(radical) < len(z)
    assert len(samples) >= 90
    assert meets >= 60 and summands >= 20  # both parts of Z occur: inside [g,g] and not


def test_dual_block_is_central_exactly_when_a_is_abelian():
    abelian = nonabelian = 0
    for delta in (0, 1):
        for ctx in context_corpus(delta, 40, seed=5):
            g, first = ctx.extension, ctx.a.dim + ctx.h.dim
            central = not any(max(i, j) >= first for i, j in g.bracket.scaled_pairs[1])
            is_abelian = not ctx.a.bracket.scaled_pairs[1]
            assert central == is_abelian
            abelian += is_abelian and ctx.a.dim > 0
            nonabelian += not is_abelian
    assert abelian >= 10 and nonabelian >= 10
