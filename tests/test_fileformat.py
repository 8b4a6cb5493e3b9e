import json
from fractions import Fraction

import pytest

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
    algebra_to_document,
    context_to_document,
    document_to_algebra,
    document_to_context,
    parse_document,
    serialize_document,
)

F = Fraction


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

# (id, base document, path to the changed value, new value, message); a path
# of a list entry holds its index, DELETE removes the key
JSON_ERRORS = [
    ("bracket-too-few", ALGEBRA, ("bracket", 0), [0, 0, 1],
     "input: malformed algebra object: not enough values to unpack (expected 4, got 3)"),
    ("bracket-too-many", ALGEBRA, ("bracket", 0), [0, 0, 1, "1", 0],
     "input: malformed algebra object: too many values to unpack (expected 4)"),
    ("bracket-not-a-list", ALGEBRA, ("bracket",), 3, "input: bracket must be a JSON array, got 3"),
    # a string or an object where an array belongs would iterate as one
    ("bracket-object", ALGEBRA, ("bracket",), {}, "input: bracket must be a JSON array, got {}"),
    ("bracket-string", ALGEBRA, ("bracket",), "", 'input: bracket must be a JSON array, got ""'),
    ("basis-string", ALGEBRA, ("basis",), "", 'input: basis must be a JSON array, got ""'),
    ("metric-entries-object", ALGEBRA, ("metric", "entries"), {},
     "input: metric entries must be a JSON array, got {}"),
    ("bracket-missing", ALGEBRA, ("bracket",), DELETE, "input: malformed algebra object: 'bracket'"),
    ("basis-entry-too-few", ALGEBRA, ("basis", 0), ["x"],
     "input: malformed algebra object: not enough values to unpack (expected 2, got 1)"),
    ("metric-entries-missing", ALGEBRA, ("metric", "entries"), DELETE, "input: malformed algebra object: 'entries'"),
    ("metric-too-few", ALGEBRA, ("metric", "entries", 1), [1, "1"],
     "input: malformed algebra object: not enough values to unpack (expected 3, got 2)"),
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
    ("context-missing", CONTEXT, ("omega",), DELETE, "input: malformed context object: 'omega'"),
    ("context-rho-too-few", CONTEXT, ("rho", 0), [0, 0, "1"],
     "input: malformed context object: not enough values to unpack (expected 4, got 3)"),
    ("context-lambda-too-many", CONTEXT, ("lambda", 0), [0, 0, 1, "1", "1"],
     "input: malformed context object: too many values to unpack (expected 4)"),
    ("context-h-malformed", CONTEXT, ("h", "basis"), DELETE, "input: malformed algebra object: 'basis'"),
    ("context-h-not-an-algebra", CONTEXT, ("h", "kind"), "ideal",
     "input, field h: expected an algebra object, got kind 'ideal'"),
    ("context-a-kind-missing", CONTEXT, ("a", "kind"), DELETE, "input: malformed algebra object: 'kind'"),
    ("bad-delta-int", CONTEXT, ("delta",), "1", 'input: delta must be a JSON integer, got "1"'),
    ("rho-bad-i", CONTEXT, ("rho", 0, 0), "0", 'input: index must be a JSON integer, got "0"'),
    ("lambda-bad-j", CONTEXT, ("lambda", 0, 1), 0.5, "input: index must be a JSON integer, got 0.5"),
    ("omega-bad-k", CONTEXT, ("omega", 0, 2), None, "input: index must be a JSON integer, got null"),
    ("rho-string", CONTEXT, ("rho",), "", 'input: rho must be a JSON array, got ""'),
    ("lambda-object", CONTEXT, ("lambda",), {}, "input: lambda must be a JSON array, got {}"),
    ("omega-string", CONTEXT, ("omega",), "", 'input: omega must be a JSON array, got ""'),
    ("context-h-bracket-object", CONTEXT, ("h", "bracket"), {}, "input: bracket must be a JSON array, got {}"),
    ("context-a-basis-string", CONTEXT, ("a", "basis"), "", 'input: basis must be a JSON array, got ""'),
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
    ("unknown-kind", IDEAL, ("kind",), "widget", "input: unknown document kind 'widget'"),
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
    ("context-h-metric-string", CONTEXT, ("h", "metric"), "B", 'input: metric must be a JSON object, got "B"'),
    ("context-h-string", CONTEXT, ("h",), "h", 'input, field h: expected an algebra object, got "h"'),
    ("context-a-list", CONTEXT, ("a",), [1], "input, field a: expected an algebra object, got [1]"),
    ("context-a-null", CONTEXT, ("a",), None, "input, field a: expected an algebra object, got null"),
]


def edited(base: str, path: tuple, value) -> str:
    """The JSON rendering of the text document base with one value changed."""
    obj = json.loads(serialize_document(parse_document(base), "json"))
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return json.dumps(obj)


@pytest.mark.parametrize("blob, message", [(edited(*case[1:4]), case[4]) for case in JSON_ERRORS]
                         + [(json_twin(text), f"input: {message}") for _, text, _, message in RULE_ERRORS],
                         ids=[case[0] for case in JSON_ERRORS + RULE_ERRORS])
def test_json_reader_error_texts(blob, message):
    with pytest.raises(ParseError) as exc:
        parse_document(blob)
    assert str(exc.value) == message

