from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from generators import column, scaled_to_ints
from superquad.errors import NotHomogeneous
from superquad.spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    apply_p_delta,
    check_form_degree,
    common_scale,
    dual_space,
    p_delta_dual,
    parity_shift,
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


def test_parities_and_labels_built_once_per_space():
    import copy
    import pickle

    v, fresh = space([0, 1, 1]), space([0, 1, 1])
    assert v.parities is v.parities and v.labels is v.labels
    assert (v.parities, v.labels) == ((0, 1, 1), ("v0", "v1", "v2"))
    assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
    assert pickle.dumps(v) == pickle.dumps(fresh)
    for again in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
        assert again == v and not vars(again).keys() & {"parities", "labels"}
        assert again.parities == v.parities and again.labels == v.labels


def test_unique_labels_enforced():
    with pytest.raises(ValueError):
        SuperSpace((("x", 0), ("x", 1)))


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


@pytest.mark.parametrize("bad", [True, False, Fraction(1), 2])
def test_parities_and_degrees_are_the_ints_0_and_1(bad):
    """A bool equals 0 or 1, and so does Fraction(1), but neither is a
    parity or a degree: a writer would emit True as ``True`` or ``true``,
    which no reader takes back."""
    v = space([0, 1])
    for build in (lambda: SuperSpace((("x", bad),)),
                  lambda: GradedLinearMap.zero(v, v, bad),
                  lambda: GradedLinearMap.from_entries(v, v, bad, []),
                  lambda: GradedBilinearForm.from_entries(v, bad, [])):
        with pytest.raises(ValueError, match="parity must be 0 or 1, got"):
            build()
    assert SuperSpace((("x", 1),)).parities == (1,)
    assert GradedBilinearForm.from_entries(v, 1, [(0, 1, 1), (1, 0, 1)]).degree == 1


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
    assert m.scaled_pairs == (1, {(1, 0): {1: 3}})
    assert m.entries() == [(1, 0, 1, Fraction(3))]
    assert m.table == (((0, 0), (0, 0)), ((0, 3), (0, 0)))
    assert m == GradedBilinearMap(v, v, v, m.table)
    with pytest.raises(ValueError):
        GradedBilinearMap.from_entries(v, v, v, [(0, 2, 0, 1)])
    with pytest.raises(AttributeError):
        m.table = ()


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
    assert all(type(c) is Fraction for row in built.table for w in row for c in w)
    with pytest.raises(AttributeError):
        built._scaled_pairs = None
    with pytest.raises(AttributeError):
        built.table = ()

    rows = ((0, Fraction(1, 4)), (Fraction(1, 4), 0))
    f_built, f_fresh = GradedBilinearForm(v, 1, rows), GradedBilinearForm(v, 1, rows)
    before = repr(f_built)
    assert f_built.scaled_rows == (4, ({1: 1}, {0: 1}))
    assert f_built == f_fresh and hash(f_built) == hash(f_fresh)
    assert repr(f_built) == before == repr(f_fresh)
    assert all(type(c) is Fraction for row in f_built.matrix for c in row)
    with pytest.raises(AttributeError):
        f_built.matrix = ()


# ---------------------------------------------------------------------------
# Linear maps and forms stored by their nonzeros: the dense constructors and
# from_entries build the same value


entry_st = st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3)])


def ref_inhomogeneity(source, target, degree, matrix):
    """The message of the dense scan: the first (r, c) in row-major order with
    a nonzero entry outside the degree pattern, or None."""
    for r in range(target.dim):
        for c in range(source.dim):
            if matrix[r][c] != 0 and target.parity(r) != (source.parity(c) + degree) % 2:
                return f"entry ({r},{c}) breaks homogeneity of a degree-{degree} map"
    return None


def scattered(data, matrix):
    """The entries of a dense matrix, some split into two summands, some with
    a zero entry or a cancelling pair added, in a drawn order."""
    out = []
    for r, row in enumerate(matrix):
        for c, x in enumerate(row):
            y = data.draw(entry_st)
            out += data.draw(st.sampled_from([[(r, c, x)], [(r, c, x - y), (r, c, y)],
                                              [(r, c, 0), (r, c, x)], [(r, c, y), (r, c, -y), (r, c, x)]]))
    return data.draw(st.permutations(out))


@given(st.data())
def test_linear_map_from_entries_matches_the_dense_constructor(data):
    source, target = space(data.draw(parities_st)), space(data.draw(parities_st), "w")
    degree = data.draw(st.integers(0, 1))
    homogeneous = data.draw(st.booleans())
    matrix = [[data.draw(entry_st) if not homogeneous or tp == (sp + degree) % 2 else 0
               for sp in source.parities] for tp in target.parities]
    entries = scattered(data, matrix)
    expected = ref_inhomogeneity(source, target, degree, matrix)
    if expected is not None:
        with pytest.raises(NotHomogeneous) as dense_error:
            GradedLinearMap(source, target, degree, matrix)
        with pytest.raises(NotHomogeneous) as sparse_error:
            GradedLinearMap.from_entries(source, target, degree, entries)
        assert str(dense_error.value) == str(sparse_error.value) == expected
        return
    dense = GradedLinearMap(source, target, degree, matrix)
    sparse = GradedLinearMap.from_entries(source, target, degree, entries)
    assert dense == sparse and hash(dense) == hash(sparse) and repr(dense) == repr(sparse)
    assert dense.matrix == sparse.matrix == tuple(tuple(row) for row in matrix)
    assert all(type(x) is Fraction for row in sparse.matrix for x in row)
    assert sparse.entries() == [(r, c, x) for r, row in enumerate(matrix) for c, x in enumerate(row) if x]
    assert all(list(col) == sorted(col) and all(col.values()) for col in sparse.scaled_columns[1])
    assert GradedLinearMap.from_entries(source, target, degree, sparse.entries()) == sparse


@given(st.data())
def test_form_from_entries_matches_the_dense_constructor(data):
    v = space(data.draw(parities_st))
    degree = data.draw(st.integers(0, 1))
    matrix = [[data.draw(entry_st) for _ in range(v.dim)] for _ in range(v.dim)]
    dense = GradedBilinearForm(v, degree, matrix)
    sparse = GradedBilinearForm.from_entries(v, degree, scattered(data, matrix))
    assert dense == sparse and hash(dense) == hash(sparse) and repr(dense) == repr(sparse)
    assert dense.matrix == sparse.matrix == tuple(tuple(row) for row in matrix)
    assert all(type(x) is Fraction for row in sparse.matrix for x in row)
    assert sparse.entries() == [(i, j, c) for i, row in enumerate(matrix) for j, c in enumerate(row) if c]
    assert all(list(row) == sorted(row) and all(row.values()) for row in sparse.scaled_rows[1])
    assert dense != GradedBilinearForm(v, 1 - degree, matrix)


def test_first_inhomogeneous_entry_in_row_major_order():
    v = space([0, 1, 0])
    matrix = ((0, 1, 0), (1, 0, 0), (0, 1, 0))
    expected = "entry (0,1) breaks homogeneity of a degree-0 map"
    assert ref_inhomogeneity(v, v, 0, matrix) == expected
    with pytest.raises(NotHomogeneous, match=r"^entry \(0,1\) breaks homogeneity of a degree-0 map$"):
        GradedLinearMap(v, v, 0, matrix)
    with pytest.raises(NotHomogeneous, match=r"^entry \(0,1\) breaks homogeneity of a degree-0 map$"):
        GradedLinearMap.from_entries(v, v, 0, [(2, 1, 1), (1, 0, 1), (0, 1, 1)])
    # entries that cancel leave nothing to break homogeneity
    assert not any(GradedLinearMap.from_entries(v, v, 0, [(0, 1, 1), (0, 1, -1)]).scaled_columns[1])


def test_map_and_form_constructors_reject_bad_shapes_indices_and_scalars():
    v = space([0, 1])
    for bad in ([[1, 0]], [[1, 0], [0]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(ValueError, match="matrix shape does not match"):
            GradedLinearMap(v, v, 0, bad)
        with pytest.raises(ValueError, match="form matrix must be dim x dim"):
            GradedBilinearForm(v, 0, bad)
    for entry in [(2, 0, 1), (0, 2, 0), (-1, 0, 1), (0, -1, 1), (0, 0, 0, 1), (0, 1)]:
        with pytest.raises(ValueError, match="out of range"):
            GradedLinearMap.from_entries(v, v, 0, [entry])
        with pytest.raises(ValueError, match="out of range"):
            GradedBilinearForm.from_entries(v, 0, [entry])
    for bad in (0.5, 1.0, True, False):
        with pytest.raises(TypeError):
            GradedLinearMap.from_entries(v, v, 0, [(0, 0, bad)])
        with pytest.raises(TypeError):
            GradedBilinearForm.from_entries(v, 0, [(1, 0, bad)])
    for degree in (2, -1):
        with pytest.raises(ValueError):
            GradedLinearMap.from_entries(v, v, degree, ())
        with pytest.raises(ValueError):
            GradedBilinearForm.from_entries(v, degree, ())


def test_dense_views_are_cached_and_invisible():
    v = space([0, 1])
    t = GradedLinearMap.from_entries(v, v, 1, [(1, 0, Fraction(1, 3)), (0, 1, 2)])
    fresh = GradedLinearMap.from_entries(v, v, 1, [(0, 1, 2), (1, 0, Fraction(1, 3))])
    before = repr(t)
    assert t.matrix is t.matrix and t.matrix == ((0, 2), (Fraction(1, 3), 0))
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == before == repr(fresh)
    assert t.scaled_columns == (3, ({1: 1}, {0: 6}))
    assert column(t, 0) == (0, Fraction(1, 3))
    for name in ("matrix", "scaled_columns", "_matrix", "degree"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
    assert t != GradedLinearMap.from_entries(v, space([0, 1], "w"), 1, t.entries())
    assert t != GradedLinearMap.from_entries(v, v, 1, [(1, 0, Fraction(1, 3)), (0, 1, 3)])
    assert t != GradedLinearMap.zero(v, v, 1) and len({t, fresh, GradedLinearMap.zero(v, v, 1)}) == 2
    form = GradedBilinearForm.from_entries(v, 1, [(0, 1, 1), (1, 0, 1)])
    assert form != GradedBilinearForm.from_entries(v, 1, [(0, 1, 1), (1, 0, 2)])
    assert form.matrix is form.matrix and form.scaled_rows == (1, ({1: 1}, {0: 1}))


def test_each_stored_value_holds_its_fields_and_one_dense_cache():
    """Every ``_Sparse`` class of the package keeps its ``FIELDS`` and one
    cached dense view (``_matrix`` or ``_table``): the integer state is its
    only sparse form."""
    import superquad  # noqa: F401  (defines every subclass)
    from superquad.spaces import _Sparse

    classes, todo = [], [_Sparse]
    while todo:
        subs = [c for c in todo.pop().__subclasses__() if c.__module__.startswith("superquad.")]
        classes += subs
        todo += subs
    assert {c.__name__ for c in classes} == {"GradedLinearMap", "GradedBilinearForm", "GradedBilinearMap",
                                             "SuperBracket"}
    for cls in classes:
        slots = [s for c in cls.__mro__ for s in c.__dict__.get("__slots__", ())]
        caches = [s for s in slots if s not in cls.FIELDS]
        assert sorted(slots) == sorted(cls.FIELDS + tuple(caches)), cls
        assert len(caches) == 1 and caches[0] in ("_matrix", "_table"), (cls, caches)


def test_maps_and_forms_survive_pickle_and_copy():
    import copy
    import pickle

    from superquad.algebra import SuperBracket

    v = space([0, 1])
    values = [GradedLinearMap.from_entries(v, v, 1, [(1, 0, Fraction(1, 3)), (0, 1, 2)]),
              GradedBilinearForm.from_entries(v, 1, [(0, 1, 1), (1, 0, 1)]),
              GradedBilinearMap.from_entries(v, v, v, [(0, 1, 1, Fraction(1, 2))]),
              SuperBracket.from_entries(v, [(0, 1, 1, 1), (1, 0, 1, -1)])]
    for value in values:
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(again) is type(value) and again == value and hash(again) == hash(value)


def test_common_scale_of_a_tuple_and_a_dict_view():
    """A tuple view and a dict view at different scales, brought to one: as
    if every vector had been scaled by ``scaled_to_ints`` at once, each view
    keeping its shape and keys."""
    columns = ({0: Fraction(1, 3)}, {}, {1: Fraction(-5, 2), 2: Fraction(7)})
    pairs = {(0, 1): {2: Fraction(3, 4)}, (1, 0): {2: Fraction(-3, 4), 0: Fraction(1, 5)}}
    tuple_view, dict_view = scaled_to_ints(columns), scaled_to_ints(pairs.values())
    dict_view = (dict_view[0], dict(zip(pairs, dict_view[1])))
    assert tuple_view[0] == 6 and dict_view[0] == 20
    d, (cols, scaled_pairs) = common_scale([tuple_view, dict_view])
    d_all, together = scaled_to_ints(list(columns) + list(pairs.values()))
    assert d == d_all == 60
    assert type(cols) is tuple and cols == together[:3]
    assert list(scaled_pairs) == list(pairs) and list(scaled_pairs.values()) == list(together[3:])
    assert common_scale([dict_view]) == (20, [dict_view[1]])
