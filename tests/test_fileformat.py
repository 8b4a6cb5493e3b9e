import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from superquad.algebra import QuadraticLieSuperAlgebra
from superquad.catalog import (
    default_heisenberg_params,
    default_odd_dim1_params,
    heisenberg_context,
    heisenberg_extension,
    odd_extension_context,
)
from superquad.errors import ParseError, ValidationError
from superquad.extension import contexts_equal, double_extend
from superquad.fileformat import (
    AlgebraDocument,
    ContextDocument,
    IdealDocument,
    _shown,
    algebra_to_document,
    context_to_document,
    document_to_algebra,
    document_to_context,
    document_to_obj,
    parse_document,
    serialize_document,
)
from test_properties import algebra_docs, context_docs, ideal_docs

F = Fraction
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def heis_doc():
    return algebra_to_document(heisenberg_extension(default_heisenberg_params()), "heisenberg")


def test_algebra_roundtrip_text():
    doc = heis_doc()
    text = serialize_document(doc, "text")
    again = parse_document(text)
    assert again == doc
    assert serialize_document(again, "text") == text


def test_algebra_roundtrip_json():
    doc = heis_doc()
    blob = serialize_document(doc, "json")
    again = parse_document(blob)
    assert again == doc
    assert serialize_document(again, "json") == blob


def test_document_reconstructs_identical_algebra():
    g = heisenberg_extension(default_heisenberg_params())
    doc = algebra_to_document(g, "h")
    g2 = document_to_algebra(doc)
    assert isinstance(g2, QuadraticLieSuperAlgebra)
    assert g2.bracket.table == g.bracket.table
    assert g2.metric.matrix == g.metric.matrix
    assert g2.space == g.space


def test_non_reduced_rational_canonicalised():
    text = """algebra t
basis x 1
basis d 0
bracket 0 0 1 2/4
bracket 1 0 0 0
metric-degree 1
metric 0 1 1
metric 1 0 3/3
end algebra
"""
    doc = parse_document(text)
    assert doc.bracket == ((0, 0, 1, F(1, 2)),)
    out = serialize_document(doc, "text")
    assert "1/2" in out and "2/4" not in out and "3/3" not in out
    assert "bracket 1 0 0" not in out  # explicit zeros dropped


def inexact_documents(c):
    """One document per coefficient slot of the writers, each holding c."""
    h = AlgebraDocument("h", (("u", 0),), (), 0, ((0, 0, 1),))
    a = AlgebraDocument("a", (("x", 0),), ())
    return [AlgebraDocument("t", (("x", 0),), ((0, 0, 0, c),)),
            AlgebraDocument("t", (("x", 0),), (), 0, ((0, 0, c),)),
            ContextDocument("c", 0, h, a, ((0, 0, 0, c),), (), ()),
            ContextDocument("c", 0, h, a, (), ((0, 0, 0, c),), ()),
            ContextDocument("c", 0, h, a, (), (), ((0, 0, 0, c),)),
            IdealDocument("i", ((c,),))]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("c", [0.1, 0.5, 1.0, True, False])
def test_writers_refuse_inexact_coefficients(fmt, c):
    """A float would be written as its binary value (0.1 as
    3602879701896397/36028797018963968) and a bool as 1 or 0: both formats
    refuse them, in every table, zero or not, as the readers refuse them."""
    for doc in inexact_documents(c):
        with pytest.raises(TypeError, match="coefficient must be an exact rational"):
            serialize_document(doc, fmt)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_writers_accept_exact_coefficients(fmt):
    for doc in inexact_documents(F(6, 4)):
        assert "3/2" in serialize_document(doc, fmt)


def test_duplicate_entries_rejected():
    text = """algebra t
basis x 0
bracket 0 0 0 1
bracket 0 0 0 2
end algebra
"""
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert exc.value.line == 4


def test_missing_skew_partner_flagged():
    text = """algebra t
basis a 0
basis b 0
bracket 0 1 1 1
end algebra
"""
    doc = parse_document(text)
    with pytest.raises(ValidationError) as exc:
        document_to_algebra(doc)
    assert any(v.equation == "super-skew" for v in exc.value.violations)


def test_out_of_range_index_rejected():
    text = """algebra t
basis a 0
bracket 0 1 0 1
end algebra
"""
    with pytest.raises(ParseError):
        parse_document(text)


def test_context_roundtrip_and_reconstruction():
    ctx = heisenberg_context(default_heisenberg_params())
    doc = context_to_document(ctx, "heis")
    text = serialize_document(doc, "text")
    again = parse_document(text)
    assert again == doc
    ctx2 = document_to_context(again)
    assert contexts_equal(ctx, ctx2)
    assert double_extend(ctx2).bracket.table == double_extend(ctx).bracket.table


def test_context_with_zero_dim_h():
    ctx = odd_extension_context(default_odd_dim1_params(F(2, 3)))
    doc = context_to_document(ctx, "odd")
    text = serialize_document(doc, "text")
    ctx2 = document_to_context(parse_document(text))
    assert contexts_equal(ctx, ctx2)
    assert ctx2.h.dim == 0
    assert ctx2.omega.value(0, 0) == (F(2, 3),)


def test_context_json_identical_content():
    ctx = heisenberg_context(default_heisenberg_params())
    doc = context_to_document(ctx, "heis")
    blob = serialize_document(doc, "json")
    assert parse_document(blob) == doc


def test_a_algebra_with_metric_rejected():
    ctx = heisenberg_context(default_heisenberg_params())
    doc = context_to_document(ctx, "heis")
    bad = ContextDocument(doc.name, doc.delta, doc.h_doc,
                          AlgebraDocument(doc.a_doc.name, doc.a_doc.basis,
                                          doc.a_doc.bracket, 1, ()),
                          doc.rho, doc.lam, doc.omega)
    with pytest.raises(ParseError, match="^input: a context needs a metric-degree on its h-algebra and none on "
                                         "its a-algebra$"):
        document_to_context(bad)
    no_metric = AlgebraDocument(doc.h_doc.name, doc.h_doc.basis, doc.h_doc.bracket)
    with pytest.raises(ParseError, match="a context needs a metric-degree on its h-algebra"):
        document_to_context(ContextDocument(doc.name, doc.delta, no_metric, doc.a_doc, doc.rho, doc.lam, doc.omega))


def test_ideal_roundtrip():
    doc = IdealDocument("center", ((F(0), F(0), F(0), F(1)),))
    text = serialize_document(doc, "text")
    assert parse_document(text) == doc
    blob = serialize_document(doc, "json")
    assert parse_document(blob) == doc


def test_ideal_inconsistent_lengths():
    text = """ideal bad
vector 1 0
vector 1 0 0
end ideal
"""
    with pytest.raises(ParseError):
        parse_document(text)


def test_comments_and_blank_lines_ignored():
    text = """# a comment
algebra t

basis x 1   # trailing comment
basis d 0
bracket 0 0 1 1
metric-degree 1
metric 0 1 1
metric 1 0 1
end algebra
"""
    doc = parse_document(text)
    assert doc.basis == (("x", 1), ("d", 0))
    g = document_to_algebra(doc)
    assert g.dim == 2


def test_unknown_document_head():
    with pytest.raises(ParseError):
        parse_document("widget w\nend widget\n")


def test_json_rejects_out_of_range_indices():
    import json
    blob = serialize_document(heis_doc(), "json")
    obj = json.loads(blob)
    obj["basis"] = obj["basis"][:2]  # bracket entries now point past the basis
    with pytest.raises(ParseError):
        parse_document(json.dumps(obj))
    ctx = heisenberg_context(default_heisenberg_params())
    cobj = json.loads(serialize_document(context_to_document(ctx, "c"), "json"))
    cobj["rho"] = [[5, 0, 0, "1"]]
    with pytest.raises(ParseError):
        parse_document(json.dumps(cobj))


# ---------------------------------------------------------------------------
# The exact text of every ParseError of the text and JSON readers

ALGEBRA = """algebra t
basis x 1
basis d 0
bracket 0 0 1 1
metric-degree 1
metric 0 1 1
metric 1 0 1
end algebra
"""

CONTEXT = """context c
delta 1
h-algebra
algebra h
basis e 0
basis f 1
metric-degree 1
metric 0 1 1
metric 1 0 1
end algebra
a-algebra
algebra a
basis x 0
end algebra
rho 0 0 0 1
rho 0 1 1 -1
lambda 0 0 1 1
omega 0 0 0 1
end context
"""

IDEAL = """ideal c
vector 0 0 0 1
end ideal
"""

# a 100-character token, key or coefficient, and its echo, cut after 60 characters to end in "..."
LONG, LONG_EXPONENT = "x" * 100, "1e" + "9" * 98


def cut(x) -> str:
    return repr(x)[:57] + "..."


TEXT_ERRORS = [
    ("algebra-head", ALGEBRA.replace("algebra t", "algebra t u"), "line 1: expected 'algebra NAME'"),
    ("basis-fields", ALGEBRA.replace("basis x 1", "basis x"), "line 2: expected 'basis LABEL PARITY'"),
    ("bad-parity-int", ALGEBRA.replace("basis x 1", "basis x one"), "line 2, field parity: bad integer 'one'"),
    ("bracket-fields", ALGEBRA.replace("bracket 0 0 1 1", "bracket 0 0 1"),
     "line 4: expected 'bracket I J K COEFF'"),
    ("bracket-bad-i", ALGEBRA.replace("bracket 0 0 1 1", "bracket a 0 1 1"), "line 4, field i: bad integer 'a'"),
    ("bracket-bad-j", ALGEBRA.replace("bracket 0 0 1 1", "bracket 0 1.0 1 1"),
     "line 4, field j: bad integer '1.0'"),
    ("bracket-bad-k", ALGEBRA.replace("bracket 0 0 1 1", "bracket 0 0 1/1 1"),
     "line 4, field k: bad integer '1/1'"),
    ("bracket-duplicate", ALGEBRA.replace("bracket 0 0 1 1", "bracket 0 0 1 1\nbracket 0 0 1 0"),
     "line 5: duplicate bracket entry (0, 0, 1)"),
    ("bad-rational", ALGEBRA.replace("bracket 0 0 1 1", "bracket 0 0 1 1/x"), "line 4: bad rational '1/x'"),
    ("zero-denominator", ALGEBRA.replace("bracket 0 0 1 1", "bracket 0 0 1 1/0"), "line 4: bad rational '1/0'"),
    ("exponent", ALGEBRA.replace("bracket 0 0 1 1", "bracket 0 0 1 1e3"),
     "line 4: bad rational '1e3': exponent notation is not accepted"),
    ("metric-degree-twice", ALGEBRA.replace("metric 0 1 1", "metric-degree 1"),
     "line 6: expected a single 'metric-degree D'"),
    ("metric-degree-fields", ALGEBRA.replace("metric-degree 1", "metric-degree"),
     "line 5: expected a single 'metric-degree D'"),
    ("bad-degree-int", ALGEBRA.replace("metric-degree 1", "metric-degree odd"),
     "line 5, field degree: bad integer 'odd'"),
    ("metric-before-degree", ALGEBRA.replace("metric-degree 1\n", ""),
     "line 5: 'metric' entries must follow 'metric-degree'"),
    ("metric-fields", ALGEBRA.replace("metric 0 1 1", "metric 0 1"), "line 6: expected 'metric I J COEFF'"),
    ("metric-bad-i", ALGEBRA.replace("metric 0 1 1", "metric x 1 1"), "line 6, field i: bad integer 'x'"),
    ("metric-bad-j", ALGEBRA.replace("metric 0 1 1", "metric 0 y 1"), "line 6, field j: bad integer 'y'"),
    ("metric-duplicate", ALGEBRA.replace("metric 1 0 1", "metric 0 1 2"), "line 7: duplicate metric entry (0, 1)"),
    ("metric-bad-rational", ALGEBRA.replace("metric 1 0 1", "metric 1 0 --1"), "line 7: bad rational '--1'"),
    ("unknown-algebra-line", ALGEBRA.replace("basis d 0", "bases d 0"), "line 3: unknown algebra line 'bases'"),
    # the text twin of JSON's unknown-algebra-key
    ("misspelt-metric-line", ALGEBRA.replace("metric 0 1 1", "metrc 0 1 1"), "line 6: unknown algebra line 'metrc'"),
    ("bad-end", ALGEBRA.replace("end algebra", "end"), "line 8: expected 'end algebra'"),
    ("unexpected-end", ALGEBRA.replace("end algebra\n", ""), "line 7: unexpected end of input"),
    ("algebra-trailing", ALGEBRA + "basis y 0\n", "line 9: trailing content after 'end algebra'"),
    ("context-head", CONTEXT.replace("context c", "context"), "line 1: expected 'context NAME'"),
    ("delta-line", CONTEXT.replace("delta 1", "delta"), "line 2: expected 'delta D'"),
    ("bad-delta-int", CONTEXT.replace("delta 1", "delta x"), "line 2, field delta: bad integer 'x'"),
    ("h-algebra-line", CONTEXT.replace("h-algebra", "h"), "line 3: expected 'h-algebra'"),
    ("a-algebra-line", CONTEXT.replace("a-algebra", "a-algebra x"), "line 11: expected 'a-algebra'"),
    ("unknown-context-line", CONTEXT.replace("lambda 0 0 1 1", "mu 0 0 1 1"), "line 17: unknown context line 'mu'"),
    ("rho-fields", CONTEXT.replace("rho 0 0 0 1", "rho 0 0 1"), "line 15: expected 'rho I J K COEFF'"),
    ("lambda-fields", CONTEXT.replace("lambda 0 0 1 1", "lambda 0 0 1 1 1"),
     "line 17: expected 'lambda I J K COEFF'"),
    ("rho-bad-i", CONTEXT.replace("rho 0 0 0 1", "rho i 0 0 1"), "line 15, field i: bad integer 'i'"),
    ("rho-bad-j", CONTEXT.replace("rho 0 0 0 1", "rho 0 j 0 1"), "line 15, field j: bad integer 'j'"),
    ("rho-bad-k", CONTEXT.replace("rho 0 0 0 1", "rho 0 0 k 1"), "line 15, field k: bad integer 'k'"),
    ("omega-bad-k", CONTEXT.replace("omega 0 0 0 1", "omega 0 0 0.0 1"), "line 18, field k: bad integer '0.0'"),
    ("rho-duplicate", CONTEXT.replace("rho 0 1 1 -1", "rho 0 0 0 -1"), "line 16: duplicate rho entry (0, 0, 0)"),
    ("lambda-duplicate", CONTEXT.replace("lambda 0 0 1 1", "lambda 0 0 1 1\nlambda 0 0 1 0"),
     "line 18: duplicate lambda entry (0, 0, 1)"),
    ("omega-duplicate", CONTEXT.replace("omega 0 0 0 1", "omega 0 0 0 0\nomega 0 0 0 1"),
     "line 19: duplicate omega entry (0, 0, 0)"),
    ("context-bad-rational", CONTEXT.replace("omega 0 0 0 1", "omega 0 0 0 1/-2"), "line 18: bad rational '1/-2'"),
    ("bad-end-context", CONTEXT.replace("end context", "end algebra"), "line 19: expected 'end context'"),
    ("context-trailing", CONTEXT + "rho 0 0 0 1\n", "line 20: trailing content after 'end context'"),
    ("ideal-head", IDEAL.replace("ideal c", "ideal"), "line 1: expected 'ideal NAME'"),
    ("ideal-unknown-line", IDEAL.replace("vector", "vec"), "line 2: expected 'vector C0 C1 ...' or 'end ideal'"),
    ("ideal-bad-rational", IDEAL.replace("vector 0 0 0 1", "vector 0 0 0 1.x"), "line 2: bad rational '1.x'"),
    ("ideal-exponent", IDEAL.replace("vector 0 0 0 1", "vector 0 0 0 1E0"),
     "line 2: bad rational '1E0': exponent notation is not accepted"),
    ("ideal-trailing", IDEAL + "end ideal\n", "line 4: trailing content after 'end ideal'"),
    ("empty", "# only a comment\n\n", "input: empty document"),
    ("unknown-head", "widget w\n", "line 1: unknown document head 'widget'"),
    # every echoed token is cut
    ("long-bad-integer", ALGEBRA.replace("basis x 1", f"basis x {LONG}"),
     f"line 2, field parity: bad integer {cut(LONG)}"),
    ("long-bad-rational", ALGEBRA.replace("bracket 0 0 1 1", f"bracket 0 0 1 {LONG}"),
     f"line 4: bad rational {cut(LONG)}"),
    ("long-exponent", ALGEBRA.replace("bracket 0 0 1 1", f"bracket 0 0 1 {LONG_EXPONENT}"),
     f"line 4: bad rational {cut(LONG_EXPONENT)}: exponent notation is not accepted"),
    ("long-unknown-algebra-line", ALGEBRA.replace("basis d 0", f"{LONG} d 0"),
     f"line 3: unknown algebra line {cut(LONG)}"),
    ("long-unknown-context-line", CONTEXT.replace("lambda 0 0 1 1", f"{LONG} 0 0 1 1"),
     f"line 17: unknown context line {cut(LONG)}"),
    ("long-unknown-head", f"{LONG} w\n", f"line 1: unknown document head {cut(LONG)}"),
]


# The document rules, which both readers share: (id, text document, line of
# the bad entry, message). Each runs through the text document, where the
# message follows its line, and through its JSON twin, where it follows input.
RULE_ERRORS = [
    ("bad-parity", ALGEBRA.replace("basis x 1", "basis x 2"), 2, "parity must be 0 or 1, got 2"),
    ("bad-degree", ALGEBRA.replace("metric-degree 1", "metric-degree 2"), 5, "metric degree must be 0 or 1, got 2"),
    ("bad-delta", CONTEXT.replace("delta 1", "delta 2"), 2, "delta must be 0 or 1, got 2"),
    ("bracket-out-of-range", ALGEBRA.replace("bracket 0 0 1 1", "bracket 0 0 2 1"), 4,
     "bracket index 2 out of range in 't'"),
    ("bracket-negative-index", ALGEBRA.replace("bracket 0 0 1 1", "bracket -1 0 1 1"), 4,
     "bracket index -1 out of range in 't'"),
    ("bracket-zero-out-of-range", ALGEBRA.replace("bracket 0 0 1 1", "bracket 0 0 1 1\nbracket 5 -1 5 0"), 5,
     "bracket index 5 out of range in 't'"),
    # the first bad entry in index order, not in line order
    ("bracket-out-of-range-order", ALGEBRA.replace("bracket 0 0 1 1", "bracket 0 0 3 1\nbracket 0 0 2 1"), 5,
     "bracket index 2 out of range in 't'"),
    ("metric-out-of-range", ALGEBRA.replace("metric 1 0 1", "metric 1 2 1"), 7, "metric index 2 out of range in 't'"),
    ("metric-zero-out-of-range", ALGEBRA.replace("metric 1 0 1", "metric 1 0 1\nmetric 2 2 0"), 8,
     "metric index 2 out of range in 't'"),
    ("rho-out-of-range", CONTEXT.replace("rho 0 1 1 -1", "rho 1 1 1 -1"), 16, "rho index 1 out of range in 'c'"),
    ("rho-zero-out-of-range", CONTEXT.replace("rho 0 1 1 -1", "rho 0 1 1 -1\nrho 3 3 3 0"), 17,
     "rho index 3 out of range in 'c'"),
    ("lambda-out-of-range", CONTEXT.replace("lambda 0 0 1 1", "lambda 0 0 2 1"), 17,
     "lambda index 2 out of range in 'c'"),
    ("omega-out-of-range", CONTEXT.replace("omega 0 0 0 1", "omega 0 1 0 1"), 18, "omega index 1 out of range in 'c'"),
    # the same entry sits in range in the h-algebra, above the a-algebra's block
    ("a-bracket-out-of-range", CONTEXT.replace("basis f 1\n", "basis f 1\nbracket 0 0 1 0\n")
     .replace("basis x 0\n", "basis x 0\nbracket 0 0 1 1\n"), 15, "bracket index 1 out of range in 'a'"),
    ("ideal-lengths", IDEAL.replace("end ideal", "vector 1 0\nend ideal"), 3,
     "ideal vectors have inconsistent lengths"),
]


def json_twin(text: str) -> str:
    """The JSON rendering of a text document without comments, read field by
    field and held to no document rule, so that a broken rule stays broken."""
    rows = iter(line.split() for line in text.splitlines() if line.split())

    def algebra(head):
        obj = {"kind": "algebra", "name": head[1], "basis": [], "bracket": []}
        for fields in rows:
            if fields[0] == "end":
                return obj
            if fields[0] == "basis":
                obj["basis"].append([fields[1], int(fields[2])])
            elif fields[0] == "metric-degree":
                obj["metric"] = {"degree": int(fields[1]), "entries": []}
            else:
                table = obj["bracket"] if fields[0] == "bracket" else obj["metric"]["entries"]
                table.append([*map(int, fields[1:-1]), fields[-1]])

    head = next(rows)
    if head[0] == "algebra":
        obj = algebra(head)
    elif head[0] == "ideal":
        obj = {"kind": "ideal", "name": head[1], "vectors": [fields[1:] for fields in rows if fields[0] == "vector"]}
    else:
        obj = {"kind": "context", "name": head[1], "delta": int(next(rows)[1]), "rho": [], "lambda": [], "omega": []}
        for fields in rows:
            if fields[0] in ("h-algebra", "a-algebra"):
                obj[fields[0][0]] = algebra(next(rows))
            elif fields[0] != "end":
                obj[fields[0]].append([*map(int, fields[1:-1]), fields[-1]])
    return json.dumps(obj)


def test_json_twin_renders_a_valid_document_as_the_writer_does():
    for text in (ALGEBRA, CONTEXT, IDEAL):
        assert json.loads(json_twin(text)) == json.loads(serialize_document(parse_document(text), "json"))


@pytest.mark.parametrize("text, message", [case[1:] for case in TEXT_ERRORS]
                         + [(text, f"line {line}: {message}") for _, text, line, message in RULE_ERRORS],
                         ids=[case[0] for case in TEXT_ERRORS + RULE_ERRORS])
def test_text_reader_error_texts(text, message):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert str(exc.value) == message


DELETE = object()


class Again:
    """An edit that keeps a key's value and writes the key a second time,
    with ``value``; ``first`` is the value kept."""

    def __init__(self, value, first=None):
        self.value, self.first = value, first


def dumps(x) -> str:
    """json.dumps of x, except that a key whose value is an ``Again`` is
    written twice: with the value kept, then with the new one."""
    if isinstance(x, list):
        return "[" + ", ".join(map(dumps, x)) + "]"
    if not isinstance(x, dict):
        return json.dumps(x)
    pairs = [(k, w) for k, v in x.items() for w in ((v.first, v.value) if isinstance(v, Again) else (v,))]
    return "{" + ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in pairs) + "}"


def at(obj, path: tuple):
    """The value at path in obj."""
    for key in path:
        obj = obj[key]
    return obj


def planted(obj, path: tuple, value) -> str:
    """The JSON text of obj with the value at path set to value, removed if
    value is DELETE, or kept (a new key: given) and written again if it is an ``Again``."""
    *parents, last = path
    target = at(obj, parents)
    if value is DELETE:
        del target[last]
    else:
        target[last] = Again(value.value, target.get(last, value.value)) if isinstance(value, Again) else value
    return dumps(obj)


# (id, base document, path to the changed value, new value, message); a path
# of a list entry holds its index, DELETE removes the key, Again(v) writes it twice
JSON_ERRORS = [
    # the entry rule: each entry of a table is an array of the table's width
    ("bracket-too-few", ALGEBRA, ("bracket", 0), [0, 0, 1],
     "input: bracket entry 0 must be [I, J, K, COEFF], got [0, 0, 1]"),
    ("bracket-too-many", ALGEBRA, ("bracket", 0), [0, 0, 1, "1", 0],
     'input: bracket entry 0 must be [I, J, K, COEFF], got [0, 0, 1, "1", 0]'),
    # a string or an object of the table's width would iterate as an entry
    ("bracket-entry-string", ALGEBRA, ("bracket", 0), "0001",
     'input: bracket entry 0 must be [I, J, K, COEFF], got "0001"'),
    ("bracket-entry-object", ALGEBRA, ("bracket", 0), {"i": 0, "j": 0, "k": 1, "c": "1"},
     'input: bracket entry 0 must be [I, J, K, COEFF], got {"i": 0, "j": 0, "k": 1, "c": "1"}'),
    ("bracket-entry-number", ALGEBRA, ("bracket", 0), 7, "input: bracket entry 0 must be [I, J, K, COEFF], got 7"),
    ("basis-entry-string", ALGEBRA, ("basis", 0), "y0", 'input: basis entry 0 must be [LABEL, PARITY], got "y0"'),
    ("basis-entry-null", ALGEBRA, ("basis", 1), None, "input: basis entry 1 must be [LABEL, PARITY], got null"),
    ("metric-entry-string", ALGEBRA, ("metric", "entries", 0), "011",
     'input: metric entry 0 must be [I, J, COEFF], got "011"'),
    ("metric-entry-too-many", ALGEBRA, ("metric", "entries", 1), [1, 0, "1", "1"],
     'input: metric entry 1 must be [I, J, COEFF], got [1, 0, "1", "1"]'),
    ("bracket-not-a-list", ALGEBRA, ("bracket",), 3, "input: bracket must be a JSON array, got 3"),
    # a string or an object where an array belongs would iterate as one
    ("bracket-object", ALGEBRA, ("bracket",), {}, "input: bracket must be a JSON array, got {}"),
    ("bracket-string", ALGEBRA, ("bracket",), "", 'input: bracket must be a JSON array, got ""'),
    ("basis-string", ALGEBRA, ("basis",), "", 'input: basis must be a JSON array, got ""'),
    ("metric-entries-object", ALGEBRA, ("metric", "entries"), {},
     "input: metric entries must be a JSON array, got {}"),
    ("bracket-missing", ALGEBRA, ("bracket",), DELETE, "input: missing algebra key 'bracket'"),
    ("basis-entry-too-few", ALGEBRA, ("basis", 0), ["x"], 'input: basis entry 0 must be [LABEL, PARITY], got ["x"]'),
    ("metric-entries-missing", ALGEBRA, ("metric", "entries"), DELETE, "input: missing metric key 'entries'"),
    ("metric-too-few", ALGEBRA, ("metric", "entries", 1), [1, "1"],
     'input: metric entry 1 must be [I, J, COEFF], got [1, "1"]'),
    ("bracket-bad-i", ALGEBRA, ("bracket", 0, 0), "0", 'input: index must be a JSON integer, got "0"'),
    ("bracket-bad-j", ALGEBRA, ("bracket", 0, 1), 0.0, "input: index must be a JSON integer, got 0.0"),
    ("bracket-bad-k", ALGEBRA, ("bracket", 0, 2), True, "input: index must be a JSON integer, got true"),
    ("metric-bad-i", ALGEBRA, ("metric", "entries", 0, 0), None, "input: index must be a JSON integer, got null"),
    ("metric-bad-j", ALGEBRA, ("metric", "entries", 0, 1), [1], "input: index must be a JSON integer, got [1]"),
    ("bad-parity-int", ALGEBRA, ("basis", 0, 1), "1", 'input: parity must be a JSON integer, got "1"'),
    ("bad-degree-int", ALGEBRA, ("metric", "degree"), 1.0, "input: metric degree must be a JSON integer, got 1.0"),
    ("bracket-duplicate", ALGEBRA, ("bracket",), [[0, 0, 1, "1"], [0, 0, 1, "0"]],
     "input: duplicate bracket entry (0, 0, 1)"),
    ("metric-duplicate", ALGEBRA, ("metric", "entries", 1), [0, 1, "1"], "input: duplicate metric entry (0, 1)"),
    ("bad-rational", ALGEBRA, ("bracket", 0, 3), "1/x", "input: bad rational '1/x'"),
    ("zero-denominator", ALGEBRA, ("bracket", 0, 3), "1/0", "input: bad rational '1/0'"),
    ("exponent", ALGEBRA, ("bracket", 0, 3), "1e3",
     "input: bad rational '1e3': exponent notation is not accepted"),
    ("float-coefficient", ALGEBRA, ("bracket", 0, 3), 0.5,
     "input: coefficient must be a rational string or a JSON integer, got 0.5"),
    ("bool-coefficient", ALGEBRA, ("metric", "entries", 0, 2), False,
     "input: coefficient must be a rational string or a JSON integer, got false"),
    ("bad-name", ALGEBRA, ("name",), "a b", 'input: name "a b" must be nonempty, without whitespace or \'#\''),
    ("bad-label", ALGEBRA, ("basis", 1, 0), 7, "input: basis label must be a JSON string, got 7"),
    ("context-missing", CONTEXT, ("omega",), DELETE, "input: missing context key 'omega'"),
    ("context-rho-too-few", CONTEXT, ("rho", 0), [0, 0, "1"],
     'input: rho entry 0 must be [I, J, K, COEFF], got [0, 0, "1"]'),
    ("context-lambda-too-many", CONTEXT, ("lambda", 0), [0, 0, 1, "1", "1"],
     'input: lambda entry 0 must be [I, J, K, COEFF], got [0, 0, 1, "1", "1"]'),
    ("context-omega-string", CONTEXT, ("omega", 0), "0001",
     'input: omega entry 0 must be [I, J, K, COEFF], got "0001"'),
    ("context-h-malformed", CONTEXT, ("h", "basis"), DELETE, "input, field h: missing algebra key 'basis'"),
    ("context-h-not-an-algebra", CONTEXT, ("h", "kind"), "ideal",
     'input, field h: expected an algebra object, got kind "ideal"'),
    ("context-a-kind-missing", CONTEXT, ("a", "kind"), DELETE, "input, field a: missing algebra key 'kind'"),
    ("context-a-bracket-missing", CONTEXT, ("a", "bracket"), DELETE, "input, field a: missing algebra key 'bracket'"),
    ("context-h-metric-degree-missing", CONTEXT, ("h", "metric", "degree"), DELETE,
     "input, field h: missing metric key 'degree'"),
    # an error inside h or a names its field, whichever rule refuses it
    ("context-h-basis-entry-too-many", CONTEXT, ("h", "basis", 1), ["f", 1, 0],
     'input, field h: basis entry 1 must be [LABEL, PARITY], got ["f", 1, 0]'),
    ("context-a-basis-entry-too-many", CONTEXT, ("a", "basis", 0), ["x", 0, 0],
     'input, field a: basis entry 0 must be [LABEL, PARITY], got ["x", 0, 0]'),
    ("context-h-metric-entry-object", CONTEXT, ("h", "metric", "entries", 0), {"0": 0, "1": 1, "c": "1"},
     'input, field h: metric entry 0 must be [I, J, COEFF], got {"0": 0, "1": 1, "c": "1"}'),
    ("context-a-basis-entry-string", CONTEXT, ("a", "basis", 0), "x0",
     'input, field a: basis entry 0 must be [LABEL, PARITY], got "x0"'),
    ("context-h-float-coefficient", CONTEXT, ("h", "metric", "entries", 0, 2), 0.5,
     "input, field h: coefficient must be a rational string or a JSON integer, got 0.5"),
    ("context-a-bad-parity-int", CONTEXT, ("a", "basis", 0, 1), "0",
     'input, field a: parity must be a JSON integer, got "0"'),
    ("bad-delta-int", CONTEXT, ("delta",), "1", 'input: delta must be a JSON integer, got "1"'),
    ("rho-bad-i", CONTEXT, ("rho", 0, 0), "0", 'input: index must be a JSON integer, got "0"'),
    ("lambda-bad-j", CONTEXT, ("lambda", 0, 1), 0.5, "input: index must be a JSON integer, got 0.5"),
    ("omega-bad-k", CONTEXT, ("omega", 0, 2), None, "input: index must be a JSON integer, got null"),
    ("rho-string", CONTEXT, ("rho",), "", 'input: rho must be a JSON array, got ""'),
    ("lambda-object", CONTEXT, ("lambda",), {}, "input: lambda must be a JSON array, got {}"),
    ("omega-string", CONTEXT, ("omega",), "", 'input: omega must be a JSON array, got ""'),
    ("context-h-bracket-object", CONTEXT, ("h", "bracket"), {}, "input, field h: bracket must be a JSON array, got {}"),
    ("context-a-bracket-object", CONTEXT, ("a", "bracket"), {}, "input, field a: bracket must be a JSON array, got {}"),
    ("context-a-basis-string", CONTEXT, ("a", "basis"), "", 'input, field a: basis must be a JSON array, got ""'),
    ("rho-duplicate", CONTEXT, ("rho", 1), [0, 0, 0, "-1"], "input: duplicate rho entry (0, 0, 0)"),
    ("lambda-duplicate", CONTEXT, ("lambda",), [[0, 0, 1, "1"], [0, 0, 1, "1"]],
     "input: duplicate lambda entry (0, 0, 1)"),
    ("omega-duplicate", CONTEXT, ("omega",), [[0, 0, 0, "0"], [0, 0, 0, "1"]],
     "input: duplicate omega entry (0, 0, 0)"),
    ("context-bad-rational", CONTEXT, ("omega", 0, 3), "1/-2", "input: bad rational '1/-2'"),
    ("ideal-malformed", IDEAL, ("vectors",), 1, "input: vectors must be a JSON array, got 1"),
    ("ideal-vectors-string", IDEAL, ("vectors",), "0001", 'input: vectors must be a JSON array, got "0001"'),
    ("ideal-vector-string", IDEAL, ("vectors", 0), "0001", 'input: ideal vector 0 must be a JSON array, got "0001"'),
    ("ideal-vector-object", IDEAL, ("vectors", 0), {"3": "1"},
     'input: ideal vector 0 must be a JSON array, got {"3": "1"}'),
    ("ideal-bad-rational", IDEAL, ("vectors", 0, 3), "1.x", "input: bad rational '1.x'"),
    ("ideal-float", IDEAL, ("vectors", 0, 3), 1.5,
     "input: coefficient must be a rational string or a JSON integer, got 1.5"),
    ("unknown-kind", IDEAL, ("kind",), "widget", 'input: unknown document kind "widget"'),
    ("kind-null", ALGEBRA, ("kind",), None, "input: unknown document kind null"),
    ("kind-list", ALGEBRA, ("kind",), ["algebra"], 'input: unknown document kind ["algebra"]'),
    ("kind-missing", ALGEBRA, ("kind",), DELETE, "input: missing document key 'kind'"),
    # an echoed value is cut after 60 characters
    ("basis-entry-long-string", ALGEBRA, ("basis", 0), "x" * 80,
     'input: basis entry 0 must be [LABEL, PARITY], got "' + "x" * 56 + "..."),
    ("long-bad-rational", ALGEBRA, ("bracket", 0, 3), LONG, f"input: bad rational {cut(LONG)}"),
    ("long-exponent", ALGEBRA, ("bracket", 0, 3), LONG_EXPONENT,
     f"input: bad rational {cut(LONG_EXPONENT)}: exponent notation is not accepted"),
    ("long-unknown-key", ALGEBRA, (LONG,), 0, f"input: unknown algebra key {cut(LONG)}"),
    ("long-duplicate-key", ALGEBRA, (LONG,), Again(0), f"input: duplicate key {cut(LONG)} in a JSON object"),
    ("long-duplicate-entry", ALGEBRA, ("bracket",), [[10 ** 99, 0, 1, "1"]] * 2,
     f"input: duplicate bracket entry {cut((10 ** 99, 0, 1))}"),
    ("context-h-long-list", CONTEXT, ("h",), [list(range(30))],
     "input, field h: expected an algebra object, got [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 1..."),
    # the object rule: an object holds each key of its kind (an algebra's metric is optional), once, and no other
    ("name-missing", ALGEBRA, ("name",), DELETE, "input: missing algebra key 'name'"),
    ("metric-degree-missing", ALGEBRA, ("metric", "degree"), DELETE, "input: missing metric key 'degree'"),
    ("context-delta-missing", CONTEXT, ("delta",), DELETE, "input: missing context key 'delta'"),
    ("context-h-missing", CONTEXT, ("h",), DELETE, "input: missing context key 'h'"),
    ("ideal-vectors-missing", IDEAL, ("vectors",), DELETE, "input: missing ideal key 'vectors'"),
    # a key written twice, which json alone reads as its last value: a non-abelian bracket then an empty one
    ("bracket-twice", ALGEBRA, ("bracket",), Again([]), "input: duplicate key 'bracket' in a JSON object"),
    ("metric-degree-twice", ALGEBRA, ("metric", "degree"), Again(0), "input: duplicate key 'degree' in a JSON object"),
    ("context-rho-twice", CONTEXT, ("rho",), Again([]), "input: duplicate key 'rho' in a JSON object"),
    ("context-h-basis-twice", CONTEXT, ("h", "basis"), Again([]), "input: duplicate key 'basis' in a JSON object"),
    ("context-a-kind-twice", CONTEXT, ("a", "kind"), Again("algebra"), "input: duplicate key 'kind' in a JSON object"),
    ("ideal-vectors-twice", IDEAL, ("vectors",), Again([]), "input: duplicate key 'vectors' in a JSON object"),
    # a key that the object's kind does not have, as a text line that its block does not have
    ("unknown-algebra-key", ALGEBRA, ("metrc",), {"degree": 1, "entries": []}, "input: unknown algebra key 'metrc'"),
    ("unknown-metric-key", ALGEBRA, ("metric", "degre"), 1, "input: unknown metric key 'degre'"),
    ("unknown-context-key", CONTEXT, ("mu",), [], "input: unknown context key 'mu'"),
    ("unknown-h-key", CONTEXT, ("h", "metrc"), {}, "input, field h: unknown algebra key 'metrc'"),
    ("unknown-a-metric-key", CONTEXT, ("a", "metric"), {"degree": 0, "entries": [], "k": 0},
     "input, field a: unknown metric key 'k'"),
    ("unknown-ideal-key", IDEAL, ("vector",), [], "input: unknown ideal key 'vector'"),
    # a metric, h or a value that is not an object, which would raise Python's TypeError when indexed
    ("metric-list", ALGEBRA, ("metric",), [1], "input: metric must be a JSON object, got [1]"),
    ("metric-null", ALGEBRA, ("metric",), None, "input: metric must be a JSON object, got null"),
    ("context-h-metric-string", CONTEXT, ("h", "metric"), "B", 'input, field h: metric must be a JSON object, got "B"'),
    ("context-a-metric-string", CONTEXT, ("a", "metric"), "B", 'input, field a: metric must be a JSON object, got "B"'),
    ("context-h-string", CONTEXT, ("h",), "h", 'input, field h: expected an algebra object, got "h"'),
    ("context-a-list", CONTEXT, ("a",), [1], "input, field a: expected an algebra object, got [1]"),
    ("context-a-null", CONTEXT, ("a",), None, "input, field a: expected an algebra object, got null"),
]


def edited(base: str, path: tuple, value) -> str:
    """The JSON rendering of the text document base with one value changed."""
    return planted(json.loads(serialize_document(parse_document(base), "json")), path, value)


# the RULE_ERRORS rows whose rule breaks inside h or a: the JSON reader names that field
RULE_FIELDS = {"a-bracket-out-of-range": ", field a"}


@pytest.mark.parametrize("blob, message", [(edited(*case[1:4]), case[4]) for case in JSON_ERRORS]
                         + [(json_twin(text), f"input{RULE_FIELDS.get(key, '')}: {message}")
                            for key, text, _, message in RULE_ERRORS],
                         ids=[case[0] for case in JSON_ERRORS + RULE_ERRORS])
def test_json_reader_error_texts(blob, message):
    with pytest.raises(ParseError) as exc:
        parse_document(blob)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# The object and entry rules on generated documents

ENTRY_FORMS = {"basis": "[LABEL, PARITY]", "bracket": "[I, J, K, COEFF]", "metric": "[I, J, COEFF]",
               "rho": "[I, J, K, COEFF]", "lambda": "[I, J, K, COEFF]", "omega": "[I, J, K, COEFF]"}
REQUIRED = {"algebra": ("kind", "name", "basis", "bracket"), "metric": ("degree", "entries"),
            "context": ("kind", "name", "delta", "h", "a", "rho", "lambda", "omega"),
            "ideal": ("kind", "name", "vectors")}


def shape_defects(obj) -> list:
    """Every single shape defect of a document's JSON object, each as (path,
    new value, the message the reader must give, its field): a required key
    dropped (but the top level's kind, which says what the document is) or
    written twice, an unknown key, an entry shortened, lengthened or
    replaced by a string or object of its length, h, a or a metric made a list."""
    objects = [((), obj["kind"], "")] + [((f,), "algebra", f) for f in ("h", "a") if f in obj]
    objects += [(path + ("metric",), "metric", field) for path, kind, field in objects
                if kind == "algebra" and "metric" in at(obj, path)]
    tables = [(path + (name,), name, field) for path, kind, field in objects if kind == "algebra"
              for name in ("basis", "bracket")]
    tables += [(path + ("entries",), "metric", field) for path, kind, field in objects if kind == "metric"]
    tables += [((name,), name, "") for name in ("rho", "lambda", "omega") if obj["kind"] == "context"]
    out = []
    for path, kind, field in objects:
        out += [(path + (key,), DELETE, f"missing {kind} key {key!r}", field)
                for key in REQUIRED[kind] if path or key != "kind"]
        out += [(path + (key,), Again(value), f"duplicate key {key!r} in a JSON object", "")
                for key, value in at(obj, path).items()]
        out.append((path + ("extra",), 0, f"unknown {kind} key 'extra'", field))
        made_list = [at(obj, path)]
        if kind == "metric":
            out.append((path, made_list, f"metric must be a JSON object, got {_shown(made_list)}", field))
        elif path:
            out.append((path, made_list, f"expected an algebra object, got {_shown(made_list)}", field))
    for path, name, field in tables:
        for k, entry in enumerate(at(obj, path)):
            for bad in (entry[:-1], entry + [0], "0" * len(entry), {str(n): v for n, v in enumerate(entry)}):
                message = f"{name} entry {k} must be {ENTRY_FORMS[name]}, got {_shown(bad)}"
                out.append((path + (k,), bad, message, field))
    return out


documents = st.one_of(algebra_docs(), context_docs(), ideal_docs())


@settings(max_examples=100, deadline=None)
@given(documents, st.data())
def test_a_shape_defect_is_refused_by_the_readers_own_rule(doc, data):
    """One planted shape defect gives the object or entry rule's message,
    never Python's own wording (``unpack``, a bare quoted key)."""
    obj = document_to_obj(doc)
    path, value, message, field = data.draw(st.sampled_from(shape_defects(obj)))
    with pytest.raises(ParseError) as exc:
        parse_document(planted(obj, path, value))
    assert (exc.value.message, exc.value.field_name) == (message, field)
    assert "unpack" not in exc.value.message and not re.fullmatch(r"'[^']*'", exc.value.message)


@settings(max_examples=100, deadline=None)
@given(documents)
def test_json_twin_reads_equal_to_its_text(doc):
    text = serialize_document(doc)
    assert parse_document(json_twin(text)) == parse_document(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.iterdir()))
def test_a_leading_byte_order_mark_is_ignored(sample, fmt):
    """A document that an editor saved with a UTF-8 byte order mark reads as
    the one without it, in both syntaxes."""
    doc = parse_document((SAMPLES / sample).read_text())
    assert parse_document("\ufeff" + serialize_document(doc, fmt)) == doc


def test_an_algebra_with_no_record_is_not_written():
    """An algebra admitted with the record None, as the decompose command
    reads its input, is refused by both writers: alone, and as the a or
    the h of a context. The same tables, scanned or recorded as the
    sample context's extension, are written."""
    import dataclasses

    from superquad.algebra import _admit
    from superquad.fileformat import document_to_raw

    doc = parse_document((SAMPLES / "heisenberg.algebra").read_text())
    g = _admit(None, *document_to_raw(doc)[1:])
    with pytest.raises(AssertionError):
        algebra_to_document(g, "g")
    ctx = document_to_context(parse_document((SAMPLES / "heisenberg.context").read_text()))
    for field in ("a", "h"):
        block = getattr(ctx, field)
        unrecorded = _admit(None, block.bracket, getattr(block, "metric", None))
        with pytest.raises(AssertionError):
            context_to_document(dataclasses.replace(ctx, **{field: unrecorded}), "c")
    assert algebra_to_document(document_to_algebra(doc), "g") == algebra_to_document(ctx.extension, "g")


# ---------------------------------------------------------------------------
# The writers' bytes where no corpus document reaches, and one spelling of each table's fields

WRITTEN = [
    ("dim-0-metric", AlgebraDocument("z", (), (), 0, ()), "algebra z\nmetric-degree 0\nend algebra\n",
     '{"basis":[],"bracket":[],"kind":"algebra","metric":{"degree":0,"entries":[]},"name":"z"}\n'),
    ("dim-0-plain", AlgebraDocument("z", (), ()), "algebra z\nend algebra\n",
     '{"basis":[],"bracket":[],"kind":"algebra","name":"z"}\n'),
    ("context-dim-0", ContextDocument("c", 1, AlgebraDocument("h", (), (), 1, ()), AlgebraDocument("a", (), ()),
                                      (), (), ()),
     "context c\ndelta 1\nh-algebra\nalgebra h\nmetric-degree 1\nend algebra\na-algebra\nalgebra a\nend algebra\n"
     "end context\n",
     '{"a":{"basis":[],"bracket":[],"kind":"algebra","name":"a"},"delta":1,"h":{"basis":[],"bracket":[],'
     '"kind":"algebra","metric":{"degree":1,"entries":[]},"name":"h"},"kind":"context","lambda":[],"name":"c",'
     '"omega":[],"rho":[]}\n'),
    ("ideal-empty-vector", IdealDocument("i", ((),)), "ideal i\nvector \nend ideal\n",
     '{"kind":"ideal","name":"i","vectors":[[]]}\n'),
    ("ideal-two-vectors", IdealDocument("i", ((F(1), F(-1, 2)), (F(0), F(3)))),
     "ideal i\nvector 1 -1/2\nvector 0 3\nend ideal\n",
     '{"kind":"ideal","name":"i","vectors":[["1","-1/2"],["0","3"]]}\n'),
]


@pytest.mark.parametrize("doc, text, blob", [case[1:] for case in WRITTEN], ids=[case[0] for case in WRITTEN])
def test_writers_bytes_where_no_corpus_document_reaches(doc, text, blob):
    assert serialize_document(doc, "text") == text
    assert serialize_document(doc, "json") == blob
    assert parse_document(text) == parse_document(blob) == doc


EVERY_TABLE = """context c
delta 0
h-algebra
algebra h
basis e 0
bracket 0 0 0 1
metric-degree 0
metric 0 0 1
end algebra
a-algebra
algebra a
basis x 0
end algebra
rho 0 0 0 1
lambda 0 0 0 1
omega 0 0 0 1
end context
"""

TABLE_PATHS = {"basis": ("h", "basis"), "bracket": ("h", "bracket"), "metric": ("h", "metric", "entries"),
               "rho": ("rho",), "lambda": ("lambda",), "omega": ("omega",)}


@pytest.mark.parametrize("table", sorted(TABLE_PATHS))
def test_a_short_entry_names_its_tables_fields_alike_in_both_syntaxes(table):
    """A text line one field short and a JSON entry one field short are
    refused naming the same fields, the table's own."""
    lines = EVERY_TABLE.splitlines()
    k = next(k for k, line in enumerate(lines) if line.split()[0] == table)
    lines[k] = lines[k].rsplit(" ", 1)[0]
    with pytest.raises(ParseError) as text_exc:
        parse_document("\n".join(lines))
    obj = document_to_obj(parse_document(EVERY_TABLE))
    path = TABLE_PATHS[table] + (0,)
    with pytest.raises(ParseError) as json_exc:
        parse_document(planted(obj, path, at(obj, path)[:-1]))
    in_text = re.fullmatch(rf"expected '{table} (.*)'", text_exc.value.message).group(1).split(" ")
    in_json = re.fullmatch(rf"{table} entry 0 must be \[(.*)\], got .*", json_exc.value.message).group(1).split(", ")
    assert in_text == in_json == ENTRY_FORMS[table][1:-1].split(", ")
