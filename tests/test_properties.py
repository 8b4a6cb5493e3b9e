"""Property tests of the document boundary.

Every input must end in a document or a ParseError when parsed, and in exit
code 0, 1 or 2 when handed to the CLI. Dimensions stay at most 4 and each
property runs at most 100 examples, so the suite stays fast.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from superquad import linalg
from superquad.cli import main
from superquad.errors import ParseError
from superquad.fileformat import (
    AlgebraDocument,
    ContextDocument,
    IdealDocument,
    document_to_obj,
    parse_document,
    parse_scalar,
    serialize_document,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLE_TEXTS = [p.read_text() for p in sorted(SAMPLES.iterdir())]
BOUNDED = settings(max_examples=100, deadline=None)

TOKENS = ["algebra", "context", "ideal", "end", "basis", "bracket", "metric", "metric-degree",
          "delta", "h-algebra", "a-algebra", "rho", "lambda", "omega", "vector",
          "0", "1", "2", "-1", "9", "1/2", "1/0", "0.5", "x", "x*", "#", "{", "}", "\n"]


def _mutate(text, edits):
    """Replace whitespace-separated tokens of text, keeping its line breaks."""
    lines = [line.split(" ") for line in text.splitlines()]
    flat = [(r, c) for r, line in enumerate(lines) for c in range(len(line))]
    for at, token in edits:
        r, c = flat[at % len(flat)]
        lines[r][c] = token
    return "\n".join(" ".join(line) for line in lines) + "\n"


texts = st.one_of(
    st.text(max_size=200),
    st.lists(st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join), max_size=12).map("\n".join),
    st.builds(_mutate, st.sampled_from(SAMPLE_TEXTS),
              st.lists(st.tuples(st.integers(0, 200), st.sampled_from(TOKENS)), max_size=3)),
)


@BOUNDED
@given(texts)
def test_parse_document_returns_a_document_or_raises_parse_error(text):
    try:
        doc = parse_document(text)
    except ParseError:
        return
    assert isinstance(doc, (AlgebraDocument, ContextDocument, IdealDocument))


# labels and names are single format atoms: no whitespace, no '#'
atoms = st.text(alphabet="abexyzP()*'_019", min_size=1, max_size=4)
scalars = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def entries(draw, bounds, size=6):
    if not all(bounds):
        return ()
    coefficients = draw(st.dictionaries(st.tuples(*[st.integers(0, b - 1) for b in bounds]), scalars,
                                        max_size=size))
    return tuple(key + (c,) for key, c in coefficients.items())


@st.composite
def algebra_docs(draw, degrees=(None, 0, 1)):
    dim = draw(st.integers(0, 4))
    basis = tuple(draw(st.lists(st.tuples(atoms, st.integers(0, 1)), min_size=dim, max_size=dim)))
    degree = draw(st.sampled_from(degrees))
    return AlgebraDocument(draw(atoms), basis, entries(draw, (dim,) * 3), degree,
                           entries(draw, (dim, dim)) if degree is not None else ())


@st.composite
def context_docs(draw):
    h, a = draw(algebra_docs((0, 1))), draw(algebra_docs((None,)))
    nh, na = len(h.basis), len(a.basis)
    return ContextDocument(draw(atoms), draw(st.integers(0, 1)), h, a, entries(draw, (na, nh, nh)),
                           entries(draw, (na, na, nh)), entries(draw, (na, na, na)))


@st.composite
def ideal_docs(draw):
    width = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.tuples(*[scalars] * width), max_size=4))
    return IdealDocument(draw(atoms), tuple(vectors))


@BOUNDED
@given(st.one_of(algebra_docs(), context_docs(), ideal_docs()))
def test_text_json_text_is_byte_identical(doc):
    text = serialize_document(doc)
    via_json = parse_document(serialize_document(parse_document(text), "json"))
    assert serialize_document(via_json) == text


@BOUNDED
@given(st.one_of(algebra_docs(), context_docs(), ideal_docs()),
       st.one_of(atoms, st.text(max_size=6), st.integers(), st.none(), st.lists(atoms, max_size=2)))
def test_json_text_json_keeps_a_name_or_refuses_it(doc, name):
    """A JSON name (top level and embedded) that is one text token survives
    JSON -> text -> JSON byte for byte; any other name is a ParseError."""
    obj = document_to_obj(doc)
    for block in [obj] + [obj[k] for k in ("h", "a") if k in obj]:
        block["name"] = name
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    token = isinstance(name, str) and name != "" and not any(ch.isspace() or ch == "#" for ch in name)
    try:
        parsed = parse_document(text)
    except ParseError:
        assert not token
        return
    assert token
    assert serialize_document(parse_document(serialize_document(parsed)), "json") == text


# a label pool that repeats, collides across the a, h and dual blocks, and
# holds labels that are not format atoms
LABELS = ["x", "e", "f", "a0", "h0", "x*", "P(x)*", "P(a0)*", "a b", "#", "x#y"]


@st.composite
def fuzzed_documents(draw):
    """A shipped sample or a small random algebra, as JSON or text, with
    labels from LABELS and sometimes one changed coefficient."""
    if draw(st.booleans()):
        doc = parse_document(draw(st.sampled_from([t for t in SAMPLE_TEXTS if not t.startswith("ideal")])))
    else:
        doc = draw(algebra_docs())
    obj = document_to_obj(doc)
    for block in ([obj] if obj["kind"] == "algebra" else [obj["h"], obj["a"]]):
        if draw(st.booleans()):
            block["basis"] = [[draw(st.sampled_from(LABELS)), p] for _, p in block["basis"]]
    section = obj if obj["kind"] == "algebra" else obj[draw(st.sampled_from(["h", "rho", "lambda"]))]
    entries_of = section["bracket"] if isinstance(section, dict) else section
    if entries_of and draw(st.booleans()):
        entries_of[draw(st.integers(0, len(entries_of) - 1))][-1] = str(draw(scalars))
    text = json.dumps(obj)
    if draw(st.booleans()):
        try:
            text = serialize_document(parse_document(text))
        except ParseError:
            pass
    return obj["kind"], text


@BOUNDED
@given(fuzzed_documents())
def test_cli_on_fuzzed_documents_exits_0_1_or_2(kind_and_text):
    kind, text = kind_and_text
    with tempfile.TemporaryDirectory() as tmp:
        doc, out = Path(tmp) / "doc", str(Path(tmp) / "out")
        doc.write_text(text)
        if kind == "algebra":
            commands = (["verify", str(doc)], ["verify", str(doc), "--format", "json"],
                        ["decompose", str(doc), "--out", out])
        else:
            commands = (["extend", "--context", str(doc), "--out", out], ["roundtrip", str(doc)])
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv


ALGEBRAS = [(p, len(parse_document(p.read_text()).basis))
            for p in sorted(SAMPLES.glob("*.algebra")) + sorted(GOLDEN.glob("*.algebra"))]


@st.composite
def ideal_files(draw):
    """A sample or golden algebra and an ideal document of 1 to 3 rational
    vectors, each random or a multiple of a basis vector, as JSON or text;
    the vectors share a length, sometimes one off the algebra's dimension."""
    path, dim = draw(st.sampled_from(ALGEBRAS))
    width = max(1, dim + draw(st.sampled_from([0, 0, 0, -1, 1])))
    multiple = st.builds(lambda k, c: tuple(c if i == k else Fraction(0) for i in range(width)),
                         st.integers(0, width - 1), scalars)
    vectors = draw(st.lists(st.one_of(st.tuples(*[scalars] * width), multiple), min_size=1, max_size=3))
    return path, serialize_document(IdealDocument("i", tuple(vectors)), draw(st.sampled_from(["text", "json"])))


@BOUNDED
@given(ideal_files())
def test_decompose_on_fuzzed_ideal_documents_exits_0_1_or_2(case):
    path, text = case
    with tempfile.TemporaryDirectory() as tmp:
        ideal = Path(tmp) / "ideal"
        ideal.write_text(text)
        argv = ["decompose", str(path), "--ideal", str(ideal), "--out", str(Path(tmp) / "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2), text


def _reference_scalar(text):
    """Fraction(text) on the grammar that every supported Python reads alike;
    None where parse_scalar must raise, and linalg.scalar raise ValueError.
    Python 3.11 added underscores and 3.12 whitespace around '/', so those
    are refused, and exponents always are."""
    if any(ch in text for ch in "eE_") or " /" in text or "/ " in text:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


@BOUNDED
@given(st.text(alphabet="0123456789+-/._eE ", max_size=10))
@example("1_0/3")
@example("1/ 2")
@example("5.")
@example("-.5")
def test_parse_scalar_reads_one_grammar_on_every_python(text):
    """The documents' reader and the library's, ``linalg.scalar``, read one grammar."""
    expected = _reference_scalar(text)
    try:
        value = parse_scalar(text)
    except ParseError as exc:
        assert expected is None, text
        assert exc.message.startswith(f"bad rational {text!r}")
        with pytest.raises(ValueError):
            linalg.scalar(text)
        return
    assert type(value) is Fraction and value == expected, text
    assert type(linalg.scalar(text)) is Fraction and linalg.scalar(text) == expected, text


@pytest.mark.parametrize("text, value", [
    (" 1/2 ", Fraction(1, 2)), ("+3", Fraction(3)), ("-0/7", Fraction(0)), ("-2.50", Fraction(-5, 2)),
    ("1/0", None), ("1_000", None), ("1 / 2", None), ("9" * 5000, None), ("1/" + "9" * 5000, None),
    ("1e100000000", None),
])
def test_parse_scalar_pinned_cases(text, value):
    """Both readers, ``parse_scalar`` and ``linalg.scalar``: a value, or a
    refusal, at once even for an exponent that Fraction would expand."""
    if value is not None:
        assert parse_scalar(text) == linalg.scalar(text) == value
        return
    with pytest.raises(ParseError) as exc:
        parse_scalar(text)
    shown = repr(text) if len(repr(text)) <= 60 else repr(text)[:57] + "..."  # a long echo is cut
    exponent = ": exponent notation is not accepted" if "e" in text else ""
    assert exc.value.message == f"bad rational {shown}{exponent}"
    with pytest.raises(ValueError):
        linalg.scalar(text)


def test_eta_with_underscores_is_a_parse_error(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["catalog", "odd-dim1", "--eta", "1_000", "--out", str(tmp_path / "x")])
    assert code == 2
    assert err.getvalue() == "error: input, field --eta: bad rational '1_000'\n"
    assert not (tmp_path / "x").exists()
