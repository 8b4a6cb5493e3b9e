"""Integer storage of maps, forms and documents against the Fraction oracle.

Every graded map and form stores ``(d, integer nonzeros)``; its Fraction
forms, ``entries()`` and the dense views, are built from it. These tests
compare that state and every view with ``generators._normalize`` and
``generators.scaled_to_ints``, the Fraction normalisation the state
replaced; check that both document readers give the same integer state for
every spelling of a coefficient; and pin how many ``Fraction``s each
command builds.
"""

import contextlib
import copy
import io
import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from generators import _normalize, dense_vec, scaled_to_ints
from superquad import cli
from superquad.algebra import SuperBracket
from superquad.errors import NotHomogeneous, ParseError, SuperquadError
from superquad.fileformat import (
    AlgebraDocument,
    ContextDocument,
    document_to_context,
    document_to_raw,
    parse_document,
    serialize_document,
)
from superquad.linalg import unit_vec
from superquad.spaces import GradedBilinearForm, GradedBilinearMap, GradedLinearMap, SuperSpace

ROOT = Path(__file__).resolve().parent.parent
F = Fraction


def space(parities, prefix="v"):
    return SuperSpace(tuple((f"{prefix}{i}", p) for i, p in enumerate(parities)))


# ---------------------------------------------------------------------------
# the stored state against the Fraction oracle

coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(lambda n, k, q: F(n * k, q * k), st.integers(-6, 6), st.integers(1, 4), st.integers(1, 9)),
    st.sampled_from([F(1, 10 ** 12), F(-7, 2 ** 40), F(10 ** 15, 3)]),
)


@st.composite
def entry_lists(draw, arity):
    """(bounds, entries): indices from a small pool, so keys repeat, some
    entries followed by their negatives, so sums cancel to zero."""
    bounds = tuple(draw(st.integers(0, 3)) for _ in range(arity))
    if 0 in bounds:
        return bounds, []
    keys = st.tuples(*(st.integers(0, b - 1) for b in bounds))
    entries = []
    for key, c, cancel in draw(st.lists(st.tuples(keys, coefficients, st.booleans()), max_size=12)):
        entries.append(key + (c,))
        if cancel:
            entries.append(key + (-c,))
    return bounds, entries


def oracle_state(oracle: dict) -> tuple[int, dict]:
    """The flat integer table the oracle's Fractions give, at the lcm of their denominators."""
    d, ints = scaled_to_ints([oracle])
    return d, ints[0]


def check_value(value, oracle: dict, views, spaces):
    """The state, ``entries()`` and every Fraction view of value against the
    oracle; equality, hash, pickle and copy round trips; and the state
    rebuilt from a table at six times the scale, with a zero in it."""
    d, table = oracle_state(oracle)
    assert value.scaled_table() == (d, table)
    assert list(value.scaled_table()[1]) == sorted(table)
    assert all(type(n) is int and n for n in table.values())
    assert value.entries() == [key + (c,) for key, c in oracle.items()]
    for got, want in views:
        assert got == want
    bigger = {key: 6 * n for key, n in table.items()}
    zero = tuple(0 for _ in value.entries()[0][:-1]) if table else None
    if zero is not None and zero not in bigger:
        bigger[zero] = 0
    again = type(value).from_ints(*spaces, 6 * d, bigger)
    assert again == value and hash(again) == hash(value) and repr(again) == repr(value)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert twin.scaled_table() == value.scaled_table()


def expect_same_error(build, oracle_build):
    """Both raise the same error with the same text, or neither raises; the oracle's result."""
    try:
        want = oracle_build()
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc)) as got:
            build()
        assert str(got.value) == str(exc)
        return None
    return want


@settings(max_examples=150, deadline=None)
@given(entry_lists(3), st.data())
def test_bilinear_maps_store_the_oracle_state(case, data):
    bounds, entries = case
    left, right, target = (space(data.draw(st.lists(st.integers(0, 1), min_size=b, max_size=b)), p)
                           for b, p in zip(bounds, "lrt"))
    random.Random(len(entries)).shuffle(entries)
    oracle = _normalize(entries, bounds, "bilinear")
    m = GradedBilinearMap.from_entries(left, right, target, entries)
    pairs: dict = {}
    for (i, j, k), c in oracle.items():
        pairs.setdefault((i, j), {})[k] = c
    table = tuple(tuple(dense_vec(pairs.get((i, j), {}), bounds[2]) for j in range(bounds[1]))
                  for i in range(bounds[0]))
    d, values = scaled_to_ints(pairs.values())
    values_at = tuple(tuple(m.value(i, j) for j in range(bounds[1])) for i in range(bounds[0]))
    check_value(m, oracle, [(values_at, table), (list(m.scaled_pairs[1]), sorted(pairs)), (m.table, table),
                            (m.scaled_pairs, (d, dict(zip(pairs, values))))], (left, right, target))
    assert (not m.scaled_pairs[1]) == (not oracle)
    shuffled = list(entries)
    random.Random(7).shuffle(shuffled)
    assert GradedBilinearMap.from_entries(left, right, target, shuffled) == m
    if all(bounds):
        more = entries + [(0, 0, 0, F(1, 3))]
        other = GradedBilinearMap.from_entries(left, right, target, more)
        assert (other == m) == (_normalize(more, bounds, "bilinear") == oracle)
    if bounds[0] == bounds[1] == bounds[2]:
        sp = space(left.parities)
        b = SuperBracket.from_entries(sp, entries)
        check_value(b, oracle, [(b.table, table)], (sp,))


@settings(max_examples=100, deadline=None)
@given(entry_lists(2), st.integers(0, 1), st.data())
def test_forms_store_the_oracle_state(case, degree, data):
    bounds, entries = case
    n = bounds[0]
    entries = [e for e in entries if e[1] < n]
    sp = space(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    oracle = _normalize(entries, (n, n), "form")
    form = GradedBilinearForm.from_entries(sp, degree, entries)
    rows = tuple({j: c for (i, j), c in oracle.items() if i == r} for r in range(n))
    matrix = tuple(dense_vec(r, n) for r in rows)
    values = tuple(tuple(form.value(unit_vec(n, i), unit_vec(n, j)) for j in range(n)) for i in range(n))
    check_value(form, oracle, [(values, matrix), (form.matrix, matrix),
                               (form.scaled_rows, scaled_to_ints(rows))], (sp, degree))
    assert GradedBilinearForm(sp, degree, form.matrix) == form


@settings(max_examples=100, deadline=None)
@given(entry_lists(2), st.integers(0, 1), st.data())
def test_linear_maps_store_the_oracle_state(case, degree, data):
    bounds, entries = case
    target = space(data.draw(st.lists(st.integers(0, 1), min_size=bounds[0], max_size=bounds[0])), "t")
    source = space(data.draw(st.lists(st.integers(0, 1), min_size=bounds[1], max_size=bounds[1])), "s")
    oracle = _normalize(entries, bounds, "map")
    homogeneous = all(target.parity(r) == (source.parity(c) + degree) % 2 for r, c in oracle)
    if not homogeneous:
        with pytest.raises(NotHomogeneous):
            GradedLinearMap.from_entries(source, target, degree, entries)
        return
    t = GradedLinearMap.from_entries(source, target, degree, entries)
    cols = tuple({r: c for (r, cc), c in oracle.items() if cc == col} for col in range(bounds[1]))
    check_value(t, oracle, [(t.scaled_columns, scaled_to_ints(cols)),
                            (t.matrix, tuple(tuple(cols[c].get(r, 0) for c in range(bounds[1]))
                                             for r in range(bounds[0])))], (source, target, degree))
    assert (not any(t.scaled_columns[1])) == (not oracle)


@settings(max_examples=100, deadline=None)
@given(entry_lists(3), st.sampled_from([(-1, 0, 0), (0, 5, 0), (0, 0, 9), (0, 0), (0, 0, 0, 0)]),
       st.sampled_from([0.5, 1.0, True, False, F(1, 2)]))
def test_out_of_range_and_inexact_entries_fail_as_the_oracle_does(case, bad_key, c):
    """The ValueError text names the first bad entry in input order, and a
    float or bool coefficient is a TypeError, exactly as before."""
    bounds, entries = case
    bounds = tuple(max(b, 1) for b in bounds)
    entries = [e for e in entries if all(i < b for i, b in zip(e, bounds))]
    sp = [space([0] * b, p) for b, p in zip(bounds, "lrt")]
    for bad in (entries + [bad_key + (c,)], [(0, 0, 0, c)] + entries):
        want = expect_same_error(lambda: GradedBilinearMap.from_entries(*sp, bad),
                                 lambda: _normalize(bad, bounds, "bilinear"))
        if want is not None:
            assert GradedBilinearMap.from_entries(*sp, bad).entries() == [k + (v,) for k, v in want.items()]


def test_empty_maps_store_scale_one():
    v = space([0, 1])
    for value in (GradedBilinearMap.zero(v, v, v), GradedBilinearForm.from_entries(v, 0, []),
                  GradedLinearMap.zero(v, v, 1), SuperBracket.from_entries(v, [(0, 1, 1, 2), (0, 1, 1, -2)])):
        assert value.scaled_table() == (1, {}) and value.entries() == []


# ---------------------------------------------------------------------------
# both readers, every spelling


def documents():
    paths = sorted(ROOT.glob("samples/*.algebra")) + sorted(ROOT.glob("samples/*.context"))
    paths += sorted(ROOT.glob("tests/golden/*.algebra")) + sorted(ROOT.glob("tests/golden/*.context"))
    return paths


def states(doc):
    """The integer state of every map a document gives, without axiom checks."""
    if isinstance(doc, AlgebraDocument):
        _, bracket, form = document_to_raw(doc)
        return bracket, bracket.scaled_table(), form and form.scaled_table()
    out = [states(doc.h_doc), states(doc.a_doc)]
    try:
        ctx = document_to_context(doc)
    except SuperquadError as exc:  # an invalid embedded algebra: the same error from both readers
        return out + [type(exc).__name__, str(exc)]
    return out + [ctx, [t.scaled_table() for t in ctx.rho], ctx.lam.scaled_table(), ctx.omega.scaled_table()]


@pytest.mark.parametrize("path", documents(), ids=lambda p: p.name)
def test_text_and_json_twins_give_equal_maps_and_states(path):
    text = path.read_text()
    doc = parse_document(text)
    twin = parse_document(serialize_document(doc, "json"))
    assert twin == doc and hash(twin) == hash(doc)
    assert states(twin) == states(doc)
    assert serialize_document(twin) == serialize_document(doc) == text


ALGEBRA = """algebra t
basis x 0
basis y 1
bracket 0 0 0 {c}
bracket 1 1 0 1
metric-degree 0
metric 0 0 {c}
metric 1 0 1
end algebra
"""

SPELLINGS = [("2/4", "1/2"), ("0.50", "1/2"), ("+1/2", "1/2"), (".5", "1/2"), ("5.", "5"), ("-0", "0"),
             ("0/7", "0"), ("-6/4", "-3/2"), ("-0.25", "-1/4"), ("10/1", "10"), ("000", "0")]


def json_twin(text: str) -> str:
    """The JSON rendering of an ALGEBRA text, coefficients spelled as in the text."""
    lines = [line.split() for line in text.splitlines()]
    obj = {"kind": "algebra", "name": "t", "basis": [[f[1], int(f[2])] for f in lines if f[0] == "basis"],
           "bracket": [[int(i), int(j), int(k), c] for tag, i, j, k, c in (f for f in lines if f[0] == "bracket")],
           "metric": {"degree": 0, "entries": [[int(i), int(j), c] for tag, i, j, c in
                                               (f for f in lines if f[0] == "metric")]}}
    return json.dumps(obj)


@pytest.mark.parametrize("spelled, canonical", SPELLINGS)
def test_spellings_read_as_their_canonical_forms(spelled, canonical):
    want = parse_document(ALGEBRA.format(c=canonical))
    for text in (ALGEBRA.format(c=spelled), json_twin(ALGEBRA.format(c=spelled))):
        doc = parse_document(text)
        assert doc == want and states(doc) == states(want)
        assert serialize_document(doc) == serialize_document(want)
    if canonical == "0":
        assert want.bracket == ((1, 1, 0, 1),) and want.metric == ((1, 0, 1),)


@pytest.mark.parametrize("zero", ["0", "-0", "0/7", "0.0", ".0"])
def test_zeros_are_dropped_but_range_and_duplicate_checked(zero):
    out_of_range = ALGEBRA.format(c=1).replace("bracket 1 1 0 1", f"bracket 1 1 2 {zero}")
    with pytest.raises(ParseError, match="line 5: bracket index 2 out of range in 't'"):
        parse_document(out_of_range)
    with pytest.raises(ParseError, match="bracket index 2 out of range"):
        parse_document(json_twin(out_of_range))
    repeated = ALGEBRA.format(c=1).replace("bracket 1 1 0 1", f"bracket 1 1 0 1\nbracket 1 1 0 {zero}")
    with pytest.raises(ParseError, match=r"line 6: duplicate bracket entry \(1, 1, 0\)"):
        parse_document(repeated)
    with pytest.raises(ParseError, match=r"duplicate bracket entry \(1, 1, 0\)"):
        parse_document(json_twin(repeated))


def test_parsed_documents_keep_integers_until_read():
    """A parsed document builds its Fraction entry tuples only when read,
    and then the ones the tuples of an equal hand-built document hold."""
    doc = parse_document(ALGEBRA.format(c="2/4"))
    assert "bracket" not in vars(doc) and "metric" not in vars(doc)
    document_to_raw(doc)
    assert "bracket" not in vars(doc)
    built = AlgebraDocument("t", (("x", 0), ("y", 1)), ((0, 0, 0, F(1, 2)), (1, 1, 0, F(1))), 0,
                            ((0, 0, F(1, 2)), (1, 0, F(1))))
    assert doc == built and hash(doc) == hash(built) and repr(doc) == repr(built)
    assert doc.bracket == built.bracket and "bracket" in vars(doc)
    for twin in (pickle.loads(pickle.dumps(doc)), copy.deepcopy(doc)):
        assert twin == built
    ctx = parse_document((ROOT / "samples/heisenberg.context").read_text())
    assert isinstance(ctx, ContextDocument) and ctx == ctx.canonical()


@pytest.mark.parametrize("x", [-1, 2])
def test_rho_entry_outside_a_is_refused(x):
    """A hand-built context's rho entry for no a-basis vector is refused as
    the readers refuse it: x = -1 used to land in the last vector's map,
    x = dim a to raise IndexError."""
    h = AlgebraDocument("h", (("u", 0), ("v", 0)), (), 0, ((0, 0, 1), (1, 1, 1)))
    a = AlgebraDocument("a", (("x", 0), ("y", 0)), ())
    with pytest.raises(ParseError) as exc:
        document_to_context(ContextDocument("c", 0, h, a, ((x, 0, 1, F(1)),), (), ()))
    assert str(exc.value) == f"input: rho index {x} out of range in 'c'"


def test_hand_built_tables_follow_the_readers_range_rule():
    """Each of the five tables of a hand-built document, out of range, raises
    the ParseError that the JSON reader raises for the same document, naming
    the first bad entry in index order; a zero entry is refused too."""
    h = AlgebraDocument("h", (("u", 0), ("v", 0)), (), 0, ((0, 0, 1), (1, 1, 1)))
    a = AlgebraDocument("a", (("x", 0),), ())
    bad_h = AlgebraDocument("h", h.basis, ((0, 0, 3, F(1)), (0, 0, 2, F(1))), 0, h.metric)
    cases = [
        (bad_h, "bracket index 2 out of range in 'h'"),
        (AlgebraDocument("m", h.basis, (), 0, ((0, 0, 1), (1, -1, 1))), "metric index -1 out of range in 'm'"),
        (ContextDocument("c", 0, h, a, ((0, 2, 0, F(1)),), (), ()), "rho index 2 out of range in 'c'"),
        (ContextDocument("c", 0, h, a, (), ((0, 0, 5, F(1)),), ()), "lambda index 5 out of range in 'c'"),
        (ContextDocument("c", 0, h, a, (), (), ((0, 1, 0, F(1)),)), "omega index 1 out of range in 'c'"),
    ]
    for doc, message in cases:
        convert = document_to_context if isinstance(doc, ContextDocument) else document_to_raw
        for made in (doc, serialize_document(doc, "json")):
            with pytest.raises(ParseError) as exc:
                convert(made) if made is doc else parse_document(made)
            assert str(exc.value) == f"input: {message}", made
    # the JSON reader also names the context's field h, which a hand-built document has not
    doc = ContextDocument("c", 0, bad_h, a, (), (), ())
    with pytest.raises(ParseError, match=r"^input: bracket index 2 out of range in 'h'$"):
        document_to_context(doc)
    with pytest.raises(ParseError, match=r"^input, field h: bracket index 2 out of range in 'h'$"):
        parse_document(serialize_document(doc, "json"))
    zero = ContextDocument("c", 0, h, a, (), (), ((0, 0, 0, F(1)), (0, 1, 0, F(0))))
    with pytest.raises(ParseError, match="omega index 1 out of range in 'c'"):
        document_to_context(zero)
    short = AlgebraDocument("t", h.basis, ((0, 0, F(1)),))
    with pytest.raises(ParseError, match=r"bracket entry \(0, 0\) needs 3 indices in 't'"):
        document_to_raw(short)


# ---------------------------------------------------------------------------
# Fractions built per command

@contextlib.contextmanager
def counting_fractions():
    """Counts the Fractions made while the block runs: calls of
    ``Fraction.__new__`` and, on Pythons that have it, of the
    ``_from_coprime_ints`` by which their arithmetic makes its results."""
    count = [0]
    saved = {name: Fraction.__dict__[name] for name in ("__new__", "_from_coprime_ints")
             if name in Fraction.__dict__}

    def wrap(func):
        def counted(cls, *args, **kwargs):
            count[0] += 1
            return func(cls, *args, **kwargs)
        return counted

    try:
        for name, raw in saved.items():
            kind = staticmethod if isinstance(raw, staticmethod) else classmethod
            setattr(Fraction, name, kind(wrap(raw.__func__)))
        yield count
    finally:
        for name, raw in saved.items():
            setattr(Fraction, name, raw)


# (command, Fractions its second run builds). The count before the maps and
# documents stored integers is in the comment; a change here is recorded in
# CHANGES.md, as a golden change is.
FRACTIONS = [
    (["verify", "samples/heisenberg.algebra"], 0),                                 # 10
    (["verify", "samples/odd-dim1.algebra"], 0),                                   # 3
    (["verify", "tests/golden/coprime.algebra"], 0),                               # 100
    (["extend", "--context", "samples/heisenberg.context", "--out", "OUT"], 0),    # 20
    (["extend", "--context", "samples/odd-dim1.context", "--out", "OUT"], 0),      # 6
    (["extend", "--context", "tests/golden/coprime.context", "--out", "OUT"], 0),  # 200
    (["decompose", "samples/heisenberg.algebra", "--ideal", "samples/heisenberg.ideal", "--out", "OUT"], 4),  # 43
    (["decompose", "tests/golden/coprime.algebra", "--ideal", "auto", "--out", "OUT"], 0),  # 256
    (["decompose", "tests/data/oscillator-line.algebra", "--ideal", "auto", "--out", "OUT"], 0),
    (["roundtrip", "samples/heisenberg.context"], 0),                              # 29
    (["roundtrip", "samples/odd-dim1.context"], 0),                                # 11
    (["roundtrip", "tests/golden/coprime.context"], 0),                            # 223
]


@pytest.mark.parametrize("argv, pinned", FRACTIONS, ids=[" ".join(argv) for argv, _ in FRACTIONS])
def test_fractions_built_per_command(argv, pinned, tmp_path):
    """Counted around ``cli.main`` after one warm-up run: a passing verify,
    reading and checking integers only, builds none, and neither does extend,
    which writes its algebra from the integers too, nor roundtrip, whose
    decomposition keeps its vectors as integer views. decompose builds only
    the parsed ideal document's; ``--ideal auto`` keeps its line as an
    integer view and builds none."""
    argv = [str(tmp_path / "out") if a == "OUT" else str(ROOT / a) if "/" in a else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        with counting_fractions() as count:
            assert cli.main(argv) == 0
    assert count[0] == pinned


def test_fraction_counter_counts_construction_and_arithmetic():
    with counting_fractions() as count:
        x = F(1, 3) + F(1, 6)
        y = x * x
    assert (x, y) == (F(1, 2), F(1, 4)) and count[0] == 4
