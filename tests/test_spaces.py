from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superquad.errors import NotHomogeneous
from superquad.spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    apply_p_delta,
    check_form_degree,
    dual_space,
    p_delta_dual,
    parity_shift,
    parity_shift_map,
)

parities_st = st.lists(st.integers(0, 1), min_size=0, max_size=6)


def space(parities, prefix="v"):
    return SuperSpace(tuple((f"{prefix}{i}", p) for i, p in enumerate(parities)))


def test_parity_shift_flips():
    v = space([0, 0, 1])
    assert parity_shift(v).parities == (1, 1, 0)


@given(parities_st)
def test_parity_shift_involution(ps):
    v = space(ps)
    assert parity_shift(parity_shift(v)) == v


@given(parities_st)
def test_parity_shift_swaps_dimensions(ps):
    v = space(ps)
    assert parity_shift(v).dim_even == v.dim_odd
    assert parity_shift(v).dim_odd == v.dim_even


def test_apply_p_delta():
    v = space([0, 1])
    assert apply_p_delta(0, v) == v
    assert apply_p_delta(1, v).parities == (1, 0)
    empty = space([])
    assert apply_p_delta(1, empty) == empty


def test_normalized_even_first():
    v = space([1, 0, 1, 0])
    n = v.normalized()
    assert n.parities == (0, 0, 1, 1)
    assert n.normalized() == n


def test_unique_labels_enforced():
    with pytest.raises(ValueError):
        SuperSpace((("x", 0), ("x", 1)))


def test_parity_shift_map_identity():
    v = space([0, 1])
    t = GradedLinearMap.identity(v)
    p = parity_shift_map(t)
    assert p.source == parity_shift(v)
    assert p.target == v
    assert p.degree == 1
    assert p.matrix == t.matrix


def test_parity_shift_map_zero_and_double():
    v = space([0, 1, 1])
    z = GradedLinearMap.zero(v, v, 1)
    p = parity_shift_map(z)
    assert p.is_zero() and p.source.parities == (1, 0, 0)
    # a degree-1 map comes back after two shifts
    t = GradedLinearMap(v, v, 1, ((0, 1, 1), (1, 0, 0), (1, 0, 0)))
    again = parity_shift_map(parity_shift_map(t))
    assert again == t


def test_parity_shift_map_pointwise():
    # P(T)(P(v)) = T(v) on every basis vector: same columns
    v = space([0, 0, 1])
    t = GradedLinearMap(v, v, 0, ((1, 2, 0), (3, 4, 0), (0, 0, 5)))
    p = parity_shift_map(t)
    for j in range(v.dim):
        assert p.column(j) == t.column(j)


def test_dual_space():
    v = space([0, 1])
    assert dual_space(v).parities == (0, 1)
    assert dual_space(space([])).dim == 0
    # P(V*) = (P(V))* as spaces
    assert apply_p_delta(1, dual_space(v)) == dual_space(apply_p_delta(1, v))


def test_p_delta_dual_labels():
    v = space([0, 1], prefix="x")
    assert p_delta_dual(v, 0).basis == (("x0*", 0), ("x1*", 1))
    assert p_delta_dual(v, 1).basis == (("P(x0)*", 1), ("P(x1)*", 0))


def test_check_form_degree_examples():
    v = space([0, 1])
    odd = GradedBilinearForm(v, 1, ((0, 1), (1, 0)))
    assert check_form_degree(odd) == 1
    even = GradedBilinearForm(v, 0, ((1, 0), (0, 1)))
    assert check_form_degree(even) == 0
    mixed = GradedBilinearForm(v, 0, ((1, 1), (1, 1)))
    with pytest.raises(NotHomogeneous):
        check_form_degree(mixed)
    zero = GradedBilinearForm(v, 1, ((0, 0), (0, 0)))
    assert check_form_degree(zero) == 1  # both patterns hold; report declared


def test_homogeneity_enforced_on_maps():
    v = space([0, 1])
    with pytest.raises(NotHomogeneous):
        GradedLinearMap(v, v, 0, ((0, 1), (0, 0)))


def test_supersymmetry_checker():
    v = space([1, 1])
    anti = GradedBilinearForm(v, 0, ((0, 1), (-1, 0)))
    assert anti.check_supersymmetry() is None
    sym = GradedBilinearForm(v, 0, ((0, 1), (1, 0)))
    bad = sym.check_supersymmetry()
    assert bad is not None and bad.equation == "super-symmetry"


fractions_st = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(fractions_st, fractions_st, fractions_st)
def test_scalar_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == 0


@given(fractions_st.filter(lambda x: x != 0))
def test_scalar_inverse_exact(a):
    inv = Fraction(1) / a
    assert a * inv == 1
    assert inv.denominator > 0


@given(fractions_st)
def test_scalar_canonical_form(a):
    from math import gcd
    assert a.denominator > 0
    assert gcd(abs(a.numerator), a.denominator) == 1


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
def test_maps_and_forms_refuse_inexact_coefficients(bad):
    v = space([0, 0])
    with pytest.raises(TypeError):
        GradedLinearMap(v, v, 0, ((bad, 0), (0, 1)))
    with pytest.raises(TypeError):
        GradedBilinearForm(v, 0, ((bad, 0), (0, 1)))
    with pytest.raises(TypeError):
        GradedBilinearForm(space([0]), 0, ((bad,),))
    with pytest.raises(TypeError):
        GradedBilinearMap.from_entries(v, v, v, [(0, 1, 1, bad)])
    with pytest.raises(TypeError):
        GradedBilinearMap(v, v, v, (((0, 0), (0, bad)), ((0, 0), (0, 0))))


def test_bilinear_map_stores_only_nonzeros():
    v = space([0, 1])
    m = GradedBilinearMap.from_entries(v, v, v, [(0, 1, 1, Fraction(1, 2)), (0, 1, 1, Fraction(-1, 2)),
                                                 (1, 0, 1, 3), (1, 1, 0, 0)])
    assert m.pairs == {(1, 0): {1: Fraction(3)}}
    assert m.entries() == [(1, 0, 1, Fraction(3))]
    assert m.table == (((0, 0), (0, 0)), ((0, 3), (0, 0)))
    assert m == GradedBilinearMap(v, v, v, m.table)
    with pytest.raises(ValueError):
        GradedBilinearMap.from_entries(v, v, v, [(0, 2, 0, 1)])
    with pytest.raises(AttributeError):
        m.pairs = {}


def test_integer_views_scale_by_the_lcm_of_denominators():
    v = space([0, 1, 1])
    m = GradedBilinearMap.from_entries(v, v, v, [(0, 1, 1, Fraction(1, 6)), (1, 2, 0, Fraction(-3, 4)),
                                                 (2, 1, 0, 5)])
    assert m.scaled_pairs == (12, {(0, 1): {1: 2}, (1, 2): {0: -9}, (2, 1): {0: 60}})
    assert GradedBilinearMap.zero(v, v, v).scaled_pairs == (1, {})
    form = GradedBilinearForm(v, 0, ((Fraction(2, 3), 0, 0), (0, 0, Fraction(1, 5)), (0, Fraction(-1, 5), 0)))
    assert form.scaled_rows == (15, ({0: 10}, {2: 3}, {1: -3}))
    assert GradedBilinearForm(space([]), 0, ()).scaled_rows == (1, ())
    assert all(type(c) is int for w in m.scaled_pairs[1].values() for c in w.values())
    assert all(type(c) is int for row in form.scaled_rows[1] for c in row.values())


def test_cached_integer_view_stays_invisible():
    """Building the view changes no equality, hash, repr, stored coefficient
    or immutability of the map or form it belongs to."""
    v = space([0, 1])
    entries = [(0, 1, 1, Fraction(1, 3)), (1, 0, 1, Fraction(-1, 3)), (1, 1, 0, Fraction(2, 7))]
    built, fresh = (GradedBilinearMap.from_entries(v, v, v, entries) for _ in range(2))
    before = repr(built)
    assert built.scaled_pairs[0] == 21
    assert built == fresh and fresh == built and hash(built) == hash(fresh)
    assert repr(built) == before == repr(fresh)
    assert all(type(c) is Fraction for _, _, _, c in built.entries())
    assert all(type(c) is Fraction for w in built.pairs.values() for c in w.values())
    with pytest.raises(AttributeError):
        built._scaled_pairs = None
    with pytest.raises(AttributeError):
        built.pairs = {}

    rows = ((0, Fraction(1, 4)), (Fraction(1, 4), 0))
    f_built, f_fresh = GradedBilinearForm(v, 1, rows), GradedBilinearForm(v, 1, rows)
    before = repr(f_built)
    assert f_built.scaled_rows == (4, ({1: 1}, {0: 1}))
    assert f_built == f_fresh and hash(f_built) == hash(f_fresh)
    assert repr(f_built) == before == repr(f_fresh)
    assert all(type(c) is Fraction for row in f_built.sparse_rows for c in row.values())
    with pytest.raises(AttributeError):
        f_built.matrix = ()
