import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import superquad
from superquad.cli import main
from superquad.errors import ParseError
from superquad.fileformat import (
    AlgebraDocument,
    algebra_to_document,
    context_to_document,
    parse_document,
    serialize_document,
)
from generators import count_calls, form_value, odd_extension_dim1
from test_decompose_transport import moved

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.alg", tmp_path / "b.alg"
    assert run(capsys, "catalog", "heisenberg", "--out", str(a))[0] == 0
    assert run(capsys, "catalog", "heisenberg", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.ctx", tmp_path / "d.ctx"
    assert run(capsys, "catalog", "odd-dim1", "--emit", "context", "--out", str(c))[0] == 0
    assert run(capsys, "catalog", "odd-dim1", "--emit", "context", "--out", str(d))[0] == 0
    assert c.read_bytes() == d.read_bytes()


def test_catalog_matches_shipped_samples(tmp_path, capsys):
    for name, emit, sample in (
        ("heisenberg", "algebra", "heisenberg.algebra"),
        ("heisenberg", "context", "heisenberg.context"),
        ("odd-dim1", "algebra", "odd-dim1.algebra"),
        ("odd-dim1", "context", "odd-dim1.context"),
    ):
        out = tmp_path / sample
        assert run(capsys, "catalog", name, "--emit", emit, "--out", str(out))[0] == 0
        assert out.read_bytes() == (SAMPLES / sample).read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_catalog_algebra_equals_the_explicit_rows(tmp_path, capsys, fmt):
    """catalog writes the double extension of its context; the explicit
    bracket rows give the same bytes: ``heisenberg_extension``, which no
    command calls, and the odd family's reference in the tests."""
    from superquad import catalog as cat

    cases = [(("heisenberg", "--pairs", str(n)), cat.heisenberg_extension(cat.default_heisenberg_params(n)))
             for n in (1, 2, 3, 16)]
    cases += [(("odd-dim1", f"--eta={eta}"), odd_extension_dim1(cat.default_odd_dim1_params(eta)))
              for eta in ("0", "1", "1/2", "-3/7")]
    out = tmp_path / "out"
    for argv, explicit in cases:
        code, stdout, _ = run(capsys, "catalog", *argv, "--format", fmt, "--out", str(out))
        assert code == 0 and stdout == f"catalog {argv[0]}: dim {explicit.dim} -> {out}\n"
        assert out.read_text() == serialize_document(algebra_to_document(explicit, argv[0]), fmt), argv


def test_verify_samples_pass(capsys):
    for sample in ("heisenberg.algebra", "odd-dim1.algebra"):
        code, out, _ = run(capsys, "verify", str(SAMPLES / sample))
        assert code == 0
        assert "RESULT ok" in out
        assert out.count("PASS") == 7


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", str(SAMPLES / "heisenberg.algebra"),
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert {c["name"] for c in report["checks"]} >= {"grading", "jacobi", "invariance"}


def test_verify_flags_violation(tmp_path, capsys):
    doc = parse_document((SAMPLES / "heisenberg.algebra").read_text())
    bad = doc.canonical()
    entries = list(bad.bracket)
    entries[0] = (entries[0][0], entries[0][1], entries[0][2], entries[0][3] + 1)
    from superquad.fileformat import AlgebraDocument
    bad = AlgebraDocument(bad.name, bad.basis, tuple(entries), bad.metric_degree, bad.metric)
    f = tmp_path / "bad.alg"
    f.write_text(serialize_document(bad, "text"))
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 1
    assert "FAIL" in out and "RESULT violation" in out


def test_verify_does_not_pass_jacobi_without_super_skew(tmp_path, capsys):
    """The Jacobi scan of sorted triples is exhaustive only under super
    skew-symmetry. Here [e_0, e_0] = e_2 breaks it, and the sorted scan finds
    nothing while the cyclic sum at (0, 2, 1) is -e_2: the jacobi line fails
    as not checked, in text and JSON, and RESULT and the exit code stay."""
    f = tmp_path / "skew.alg"
    f.write_text("algebra skew\nbasis a 0\nbasis b 0\nbasis c 0\n"
                 "bracket 0 0 2 1\nbracket 2 1 0 -1\nbracket 2 1 2 1\nend algebra\n")
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 1
    assert "check super-skew      FAIL" in out
    assert "check jacobi          FAIL  not checked: needs super skew-symmetry\n" in out
    assert "RESULT violation" in out and "jacobi          PASS" not in out
    code, out, _ = run(capsys, "verify", str(f), "--format", "json")
    report = json.loads(out)
    assert code == 1 and report["ok"] is False
    jacobi = [c for c in report["checks"] if c["name"] == "jacobi"]
    assert jacobi == [{"name": "jacobi", "ok": False, "detail": "not checked: needs super skew-symmetry"}]


H_WITH_METRIC = "algebra h\nbasis u 0\nmetric-degree 0\nmetric 0 0 1\nend algebra\n"


def context_text(h, a):
    return f"context c\ndelta 0\nh-algebra\n{h}a-algebra\n{a}end context\n"


def test_context_metric_misplaced_is_a_usage_error(tmp_path, capsys):
    """extend and roundtrip refuse a context whose h-algebra has no metric,
    or whose a-algebra has one, before anything is built: exit 2 with
    ``error:``, no violation line and no output file."""
    for h, a in (("algebra h\nbasis u 0\nend algebra\n", "algebra a\nbasis x 0\nend algebra\n"),
                 (H_WITH_METRIC, "algebra a\nbasis x 0\nmetric-degree 0\nmetric 0 0 1\nend algebra\n")):
        f = tmp_path / "c.context"
        f.write_text(context_text(h, a))
        out = tmp_path / "x"
        for argv in (("extend", "--context", str(f), "--out", str(out)), ("roundtrip", str(f))):
            code, stdout, err = run(capsys, *argv)
            assert code == 2 and stdout == ""
            assert err.startswith("error: ") and "metric-degree" in err and "violation" not in err
            assert not out.exists()


def test_roundtrip_of_dim_a_zero_is_a_usage_error(tmp_path, capsys):
    """With dim a = 0 the dual block is zero, so there is no ideal to
    decompose along: roundtrip refuses it before extending."""
    f = tmp_path / "c.context"
    f.write_text(context_text(H_WITH_METRIC, "algebra a\nend algebra\n"))
    code, stdout, err = run(capsys, "roundtrip", str(f))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and "dim a" in err and "violation" not in err
    assert run(capsys, "extend", "--context", str(f), "--out", str(tmp_path / "x"))[0] == 0


def test_extend_sample_matches_catalog_algebra(tmp_path, capsys):
    out = tmp_path / "ext.alg"
    code, _, _ = run(capsys, "extend", "--context", str(SAMPLES / "heisenberg.context"),
                     "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (SAMPLES / "heisenberg.algebra").read_bytes()


def test_extend_reports_cyclic_violation(tmp_path, capsys):
    from test_extension import two_odd_generators_ctx
    from superquad.linalg import ONE
    ctx = two_odd_generators_ctx([(0, 1, 0, ONE), (1, 0, 0, ONE)])
    f = tmp_path / "bad.ctx"
    f.write_text(serialize_document(context_to_document(ctx, "bad"), "text"))
    code, _, err = run(capsys, "extend", "--context", str(f), "--out", str(tmp_path / "x"))
    assert code == 1
    assert "super cyclic condition" in err
    assert "witness" in err


def test_decompose_auto_roundtrips(tmp_path, capsys):
    ctx_out = tmp_path / "heis.ctx"
    code, out, _ = run(capsys, "decompose", str(SAMPLES / "heisenberg.algebra"),
                       "--ideal", "auto", "--out", str(ctx_out))
    assert code == 0 and "isometry verified" in out
    ext = tmp_path / "re.alg"
    assert run(capsys, "extend", "--context", str(ctx_out), "--out", str(ext))[0] == 0
    assert ext.read_bytes() == (SAMPLES / "heisenberg.algebra").read_bytes()
    # determinism of the decompose path
    ctx2 = tmp_path / "heis2.ctx"
    run(capsys, "decompose", str(SAMPLES / "heisenberg.algebra"), "--ideal", "auto",
        "--out", str(ctx2))
    assert ctx_out.read_bytes() == ctx2.read_bytes()


def test_decompose_with_ideal_file(tmp_path, capsys):
    out = tmp_path / "c.ctx"
    code, _, _ = run(capsys, "decompose", str(SAMPLES / "heisenberg.algebra"),
                     "--ideal", str(SAMPLES / "heisenberg.ideal"), "--out", str(out))
    assert code == 0


def test_decompose_coprime_along_its_dual_block_and_auto(tmp_path, capsys):
    """The coprime golden algebra (denominators' lcm above 10^10) split along
    its non-central 3-dim dual block gives back the context it was built
    from, byte for byte; split with --ideal auto and written as JSON, the
    context it recovers extends to an algebra that verifies."""
    algebra, ideal, out = GOLDEN / "coprime.algebra", tmp_path / "dual.ideal", tmp_path / "dual.context"
    ideal.write_text("ideal dual\n" + "".join(f"vector {' '.join('1' if k == j else '0' for k in range(10))}\n"
                                              for j in (7, 8, 9)) + "end ideal\n")
    assert run(capsys, "decompose", str(algebra), "--ideal", str(ideal), "--out", str(out))[0] == 0
    assert out.read_bytes() == (GOLDEN / "coprime.context").read_bytes()
    auto, ext = tmp_path / "auto.json", tmp_path / "auto.algebra"
    assert run(capsys, "decompose", str(algebra), "--ideal", "auto", "--format", "json", "--out", str(auto))[0] == 0
    assert run(capsys, "extend", "--context", str(auto), "--out", str(ext))[0] == 0
    code, out, _ = run(capsys, "verify", str(ext))
    assert code == 0 and out.endswith("RESULT ok\n")


def test_decompose_without_metric_is_a_usage_error(tmp_path, capsys):
    """An algebra document with no metric is refused before it is built:
    exit 2 with ``error:``, no violation line and no output file."""
    f = tmp_path / "plain.alg"
    text = (SAMPLES / "heisenberg.algebra").read_text()
    f.write_text("".join(line for line in text.splitlines(keepends=True) if not line.startswith("metric")))
    out = tmp_path / "x"
    for ideal in ("auto", str(SAMPLES / "heisenberg.ideal")):
        code, _, err = run(capsys, "decompose", str(f), "--ideal", ideal, "--out", str(out))
        assert code == 2
        assert err.startswith("error: ") and "needs a quadratic algebra" in err and "violation" not in err
        assert not out.exists()


def test_decompose_auto_fails_cleanly_without_central_line(tmp_path, capsys):
    """sl2 has a zero centre; the even line with B(x, x) = 1 is its own
    centre, with no isotropic vector and no radical. The abelian plane with
    B = diag(1, -1) has the isotropic central line along (1, 1), but no
    canonical centre vector is isotropic and B has no radical there, which
    is all --ideal auto searches, so the message names the stop it reached:
    a zero centre for sl2, a centre on which B is non-degenerate for the
    other two; --ideal along (1, 1) splits the plane."""
    from generators import _sl2_killing
    sl2, z, plane = tmp_path / "sl2.alg", tmp_path / "z.alg", tmp_path / "plane.alg"
    sl2.write_text(serialize_document(algebra_to_document(_sl2_killing(), "sl2"), "text"))
    z.write_text("algebra z\nbasis x 0\nmetric-degree 0\nmetric 0 0 1\nend algebra\n")
    plane.write_text("algebra p\nbasis x 0\nbasis y 0\nmetric-degree 0\nmetric 0 0 1\nmetric 1 1 -1\nend algebra\n")
    for f, stop in ((sl2, "perfect: centre is zero"), (z, "central summand"), (plane, "central summand")):
        code, _, err = run(capsys, "decompose", str(f), "--ideal", "auto",
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert err == f"error: {f}: --ideal auto stopped: {stop}; supply --ideal FILE\n"
        assert not (tmp_path / "x").exists()
    line = tmp_path / "line.ideal"
    line.write_text("ideal l\nvector 1 1\nend ideal\n")
    code, out, _ = run(capsys, "decompose", str(plane), "--ideal", str(line), "--out", str(tmp_path / "x"))
    assert code == 0 and "dim a 1, dim h 0" in out


def test_decompose_auto_takes_the_radical_line_of_the_centre(tmp_path, capsys):
    """No canonical basis vector of this algebra's centre is isotropic
    (their Gram is [[1, 3], [3, 9]]), so --ideal auto takes the first
    canonical vector of the Gram's radical, the line -3 z_1 + z_2, which is
    central, isotropic and orthogonal to the whole centre. decompose along
    it exits 0, and the recovered context extends to an algebra that
    verifies and round-trips."""
    from generators import dense_line
    from superquad.decompose import find_central_minimal_ideal
    from superquad.fileformat import document_to_algebra
    from superquad.linalg import nullspace

    f = DATA / "oscillator-line.algebra"
    g = document_to_algebra(parse_document(f.read_text()))
    n = g.dim
    z1, z2 = nullspace([[g.bracket.value(i, j)[k] for i in range(n)] for j in range(n) for k in range(n)], n)
    assert [[form_value(g.metric, u, w) for w in (z1, z2)] for u in (z1, z2)] == [[1, 3], [3, 9]]
    (line,) = dense_line(find_central_minimal_ideal(g), n)
    assert line == tuple(-3 * a + b for a, b in zip(z1, z2))

    ctx, alg = tmp_path / "o.context", tmp_path / "o.algebra"
    code, out, err = run(capsys, "decompose", str(f), "--ideal", "auto", "--out", str(ctx))
    assert (code, err) == (0, "")
    assert out == f"decomposed oscillator-line: dim a 1, dim h 3, ideal dim 1; isometry verified -> {ctx}\n"
    assert run(capsys, "extend", "--context", str(ctx), "--out", str(alg))[0] == 0
    code, out, _ = run(capsys, "verify", str(alg))
    assert code == 0 and out.endswith("RESULT ok\n")
    code, out, _ = run(capsys, "roundtrip", str(ctx))  # a degree-0 context
    assert code == 0 and out.endswith("\nPASS\n")


def test_decompose_empty_ideal_document_is_a_usage_error(tmp_path, capsys):
    """An ideal document with no vectors names no ideal to split along:
    exit 2 with ``error:``, no violation line and no output file."""
    ideal, out = tmp_path / "empty.ideal", tmp_path / "x"
    ideal.write_text("ideal empty\nend ideal\n")
    code, _, err = run(capsys, "decompose", str(SAMPLES / "heisenberg.algebra"), "--ideal", str(ideal),
                       "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and "no vectors" in err and "violation" not in err
    assert not out.exists()


def test_roundtrip_samples(capsys):
    for sample in ("heisenberg.context", "odd-dim1.context"):
        code, out, _ = run(capsys, "roundtrip", str(SAMPLES / sample))
        assert code == 0
        assert "PASS" in out
        assert "context recovered exactly" in out


def test_command_paths_read_no_dense_view(tmp_path, capsys, monkeypatch):
    """verify, decompose --ideal auto and roundtrip on both samples never read
    the dense matrix view of a form or a linear map: with both views made to
    raise, every command still exits 0 with the same stdout and output file."""
    from superquad.spaces import GradedBilinearForm, GradedLinearMap

    commands = []
    for name in ("heisenberg", "odd-dim1"):
        commands += [
            ("verify", str(SAMPLES / f"{name}.algebra")),
            ("decompose", str(SAMPLES / f"{name}.algebra"), "--ideal", "auto",
             "--out", str(tmp_path / f"{name}.context")),
            ("roundtrip", str(SAMPLES / f"{name}.context")),
        ]

    def outputs():
        results = []
        for argv in commands:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            written = Path(argv[-1])
            results.append((out, written.read_bytes() if argv[0] == "decompose" else None))
        return results

    before = outputs()

    def dense_view(self):
        raise AssertionError(f"dense view of a {type(self).__name__} read on a command path")
    monkeypatch.setattr(GradedBilinearForm, "matrix", property(dense_view))
    monkeypatch.setattr(GradedLinearMap, "matrix", property(dense_view))
    assert outputs() == before


def test_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "junk.alg"
    f.write_text("algebra broken\nbasis x\nend algebra\n")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2
    assert "line 2" in err


def test_decompose_certifies_the_metric_it_reads(tmp_path, capsys):
    """decompose certifies the algebra it reads: a metric declared even
    with an entry between an even and an odd vector fails its homogeneity
    degree, and the identity metric on sl2 fails invariance; both exit 1
    with the algebra's own witness and write nothing."""
    sl2 = ("algebra sl2\nbasis s0 0\nbasis s1 0\nbasis s2 0\nbracket 0 1 1 2\nbracket 0 2 2 -2\n"
           "bracket 1 0 1 -2\nbracket 1 2 0 1\nbracket 2 0 2 2\nbracket 2 1 0 -1\n")
    for content, violation in (
            ("algebra m\nbasis x 0\nbasis y 1\nmetric-degree 0\nmetric 0 1 1\nmetric 1 0 1\nend algebra\n",
             "metric homogeneity degree: residual 1 declared degree 0"),
            (sl2 + "metric-degree 0\nmetric 0 0 1\nmetric 1 1 1\nmetric 2 2 1\nend algebra\n",
             "metric invariance: witness (0,1,1) residual 2")):
        f = tmp_path / "g.algebra"
        f.write_text(content)
        code, stdout, err = run(capsys, "decompose", str(f), "--out", str(tmp_path / "x"))
        assert (code, stdout, err) == (1, "", f"violation: {violation}\n")
    assert not (tmp_path / "x").exists()


@functools.cache
def _moved_corpus() -> tuple:
    """(algebra document, ideal text) for a quarter of the corpus contexts with
    dim a > 0, both deltas: the extension in a random parity-preserving basis,
    and its dual block there as an ideal document."""
    import random

    from generators import context_corpus
    from superquad.fileformat import IdealDocument

    rng, out = random.Random(43), []
    for delta in (0, 1):
        for ctx in [ctx for ctx in context_corpus(delta) if ctx.a.dim][::4]:
            g, ideal = moved(rng, ctx)
            out.append((algebra_to_document(g, "moved"), serialize_document(IdealDocument("dual", tuple(ideal)))))
    return tuple(out)


def _reading_violation(doc):
    """The stderr of the violation that reading doc as an algebra raises, or None."""
    from superquad.cli import describe
    from superquad.errors import SuperquadError, ValidationError
    from superquad.fileformat import document_to_algebra

    try:
        document_to_algebra(doc)
    except ValidationError as exc:
        return "".join(f"violation: {describe(v)}\n" for v in exc.violations)
    except SuperquadError as exc:
        return f"violation: {exc}\n"
    return None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decompose_of_a_planted_algebra_reports_its_reading_violation(data):
    """One bracket or metric entry of a moved corpus extension changed by a
    nonzero rational: whenever the algebra no longer reads, decompose exits 1
    with exactly the violation reading it raises and writes nothing, with
    --ideal auto, with the dual block's ideal file and with an ideal file
    that does not parse."""
    from fractions import Fraction

    doc, ideal_text = data.draw(st.sampled_from(_moved_corpus()))
    n = len(doc.basis)
    index = st.integers(0, n - 1)
    c = Fraction(data.draw(st.integers(-3, 3).filter(bool)), data.draw(st.integers(1, 3)))
    if data.draw(st.booleans()):
        key = (data.draw(index), data.draw(index), data.draw(index))
        entries = {e[:3]: e[3] for e in doc.bracket}
        entries[key] = entries.get(key, 0) + c
        doc = AlgebraDocument(doc.name, doc.basis, tuple((*k, x) for k, x in entries.items()),
                              doc.metric_degree, doc.metric)
    else:
        key = (data.draw(index), data.draw(index))
        entries = {e[:2]: e[2] for e in doc.metric}
        entries[key] = entries.get(key, 0) + c
        doc = AlgebraDocument(doc.name, doc.basis, doc.bracket, doc.metric_degree,
                              tuple((*k, x) for k, x in entries.items()))
    expected = _reading_violation(doc)
    assume(expected is not None)
    how = data.draw(st.sampled_from(["auto", "ideal", "unparsed"]))
    with tempfile.TemporaryDirectory() as tmp:
        algebra, ideal, out = (Path(tmp) / name for name in ("g.algebra", "g.ideal", "out"))
        algebra.write_text(serialize_document(doc))
        ideal.write_text(ideal_text if how == "ideal" else "ideal bad\nvector 1/0\nend ideal\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["decompose", str(algebra), "--ideal", "auto" if how == "auto" else str(ideal),
                         "--out", str(out)])
        assert (code, stdout.getvalue(), stderr.getvalue()) == (1, "", expected)
        assert not out.exists()


def test_zero_coefficient_out_of_range_exit_2(tmp_path, capsys):
    """An entry is range-checked before its zero coefficient is dropped."""
    f = tmp_path / "bad.context"
    f.write_text((SAMPLES / "heisenberg.context").read_text().replace("end context", "rho 3 3 3 0\nend context"))
    code, _, err = run(capsys, "extend", "--context", str(f), "--out", str(tmp_path / "out.algebra"))
    assert code == 2 and err.startswith(f"error: {f}: line ")
    assert err.endswith(": rho index 3 out of range in 'heisenberg'\n")
    assert not (tmp_path / "out.algebra").exists()


def _conversion_errors(tmp_path, out):
    """(argv, expected) for documents that parse but do not convert, each
    written in text and in JSON."""
    dup = "algebra x\nbasis a 0\nbasis a 0\nmetric-degree 0\nmetric 0 1 1\nend algebra\n"
    star = context_text("algebra h\nbasis x* 0\nmetric-degree 0\nmetric 0 0 1\nend algebra\n",
                        "algebra a\nbasis x 0\nend algebra\n")
    cases = []
    for fmt in ("text", "json"):
        algebra, context = tmp_path / f"dup.{fmt}", tmp_path / f"star.{fmt}"
        algebra.write_text(serialize_document(parse_document(dup), fmt))
        context.write_text(serialize_document(parse_document(star), fmt))
        labels = f"{algebra}: basis labels must be unique in 'x'"
        clash = f"{context}: a, h and dual-block labels must be pairwise distinct in 'c'"
        cases += [(("verify", algebra), labels), (("decompose", algebra, "--out", out), labels),
                  (("extend", "--context", context, "--out", out), clash), (("roundtrip", context), clash)]
    return cases


def test_parse_errors_name_the_document_path(tmp_path, capsys):
    """An error raised while reading a document from a path names that path
    first, in place of ``input``: a bad coefficient in an ideal file, a
    document of the wrong kind, a context with a misplaced metric or dim a
    = 0, an algebra with no metric, an ideal with no vectors or too short
    ones, a file that is missing or not UTF-8 (one path, not two), a
    context and an ideal cut off before their end lines, a JSON object cut
    off, JSON that is an array, whole or cut off, a JSON context whose h
    object is not an algebra object, a JSON algebra whose metric key is
    misspelt, an out-of-range bracket entry in text and in JSON, where the
    same text follows the location, and, in text and JSON, an algebra with
    a repeated label and a context whose h label is its a label's dual,
    both found while the document is converted."""
    ideal, ctx, latin, bad_json = (tmp_path / name for name in ("bad.ideal", "bad.context", "latin.algebra", "b.json"))
    empty, short, flat, zero = (tmp_path / name for name in ("e.ideal", "s.ideal", "flat.algebra", "zero.context"))
    ideal.write_text("ideal bad\nvector 1/0 0 0 0\nend ideal\n")
    ctx.write_text(context_text("algebra h\nbasis u 0\nend algebra\n", "algebra a\nbasis x 0\nend algebra\n"))
    empty.write_text("ideal none\nend ideal\n")
    short.write_text("ideal short\nvector 0 1\nend ideal\n")
    flat.write_text("algebra flat\nbasis x 0\nend algebra\n")
    zero.write_text(context_text(H_WITH_METRIC, "algebra a\nend algebra\n"))
    latin.write_bytes(b"algebra x\nbasis a\xff 0\nend algebra\n")
    bad_json.write_text(json.dumps({"kind": "algebra", "name": "b", "basis": [["x", 0]], "bracket": [[0, 0, 3, 1]]}))
    algebra, context, missing = SAMPLES / "heisenberg.algebra", SAMPLES / "heisenberg.context", tmp_path / "none"
    h_ideal = json.loads(serialize_document(parse_document(context.read_text()), "json"))
    h_ideal["h"]["kind"] = "ideal"
    cut_context = context.read_text().replace("end context\n", "")
    w = {"b.algebra": "algebra b\nbasis x 0\nbracket 0 0 3 1\nend algebra\n", "cut.context": cut_context,
         "cut.ideal": "ideal i\nvector 0 0 0 1\n", "cut.json": '{"kind": "algebra", "name": "b"',
         "array.json": "[1, 2]\n", "cut-array.json": "[1, 2", "h.json": json.dumps(h_ideal),
         "metrc.json": json.dumps({"kind": "algebra", "name": "t", "basis": [["x", 0]], "bracket": [],
                                   "metrc": {"degree": 0, "entries": [[0, 0, "1"]]}})}
    for name, content in w.items():
        (tmp_path / name).write_text(content)
        w[name] = tmp_path / name
    out = str(tmp_path / "x")
    for argv, expected in (
            (("decompose", algebra, "--ideal", ideal, "--out", out), f"{ideal}: line 2: bad rational '1/0'"),
            (("verify", context), f"{context}: expected an algebra document, got ContextDocument"),
            (("decompose", algebra, "--ideal", algebra, "--out", out),
             f"{algebra}: expected an ideal document, got AlgebraDocument"),
            (("roundtrip", ctx), f"{ctx}: a context needs a metric-degree on its h-algebra and none on its a-algebra"),
            (("roundtrip", zero), f"{zero}: roundtrip needs dim a > 0: it decomposes along the nonzero dual block"),
            (("decompose", flat, "--out", out), f"{flat}: decompose needs a quadratic algebra (no metric in document)"),
            (("decompose", algebra, "--ideal", empty, "--out", out),
             f"{empty}: the ideal document has no vectors: decompose needs a nonzero ideal"),
            (("decompose", algebra, "--ideal", short, "--out", out),
             f"{short}: ideal vector 0 has length 2, the algebra has dim 4"),
            (("verify", missing), f"{missing}: No such file or directory"),
            (("verify", latin), f"{latin}: not UTF-8: byte 17: invalid start byte"),
            (("verify", bad_json), f"{bad_json}: bracket index 3 out of range in 'b'"),
            (("verify", w["b.algebra"]), f"{w['b.algebra']}: line 3: bracket index 3 out of range in 'b'"),
            (("extend", "--context", w["cut.context"], "--out", out),
             f"{w['cut.context']}: line {len(cut_context.splitlines())}: unexpected end of input"),
            (("decompose", algebra, "--ideal", w["cut.ideal"], "--out", out),
             f"{w['cut.ideal']}: line 2: unexpected end of input"),
            (("verify", w["cut.json"]), f"{w['cut.json']}: line 1: bad JSON: Expecting ',' delimiter"),
            (("verify", w["array.json"]), f"{w['array.json']}: bad JSON: a document must be a JSON object"),
            (("verify", w["cut-array.json"]), f"{w['cut-array.json']}: line 1: bad JSON: Expecting ',' delimiter"),
            (("extend", "--context", w["h.json"], "--out", out),
             f"{w['h.json']}: field h: expected an algebra object, got kind \"ideal\""),
            (("verify", w["metrc.json"]), f"{w['metrc.json']}: unknown algebra key 'metrc'"),
            *_conversion_errors(tmp_path, out)):
        code, stdout, err = run(capsys, *map(str, argv))
        assert (code, stdout, err) == (2, "", f"error: {expected}\n"), argv
    assert not (tmp_path / "x").exists()


def test_write_errors_name_the_output_path(tmp_path, capsys):
    """An output file that cannot be written, in a directory that does not
    exist or because it is a directory, is named by its path, as an input
    file is: exit 2, nothing on stdout and no file written."""
    missing, folder = tmp_path / "no" / "such" / "x.algebra", tmp_path / "dir"
    folder.mkdir()
    context, algebra = str(SAMPLES / "heisenberg.context"), str(SAMPLES / "heisenberg.algebra")
    for argv, expected in (
            (("extend", "--context", context, "--out", missing), f"{missing}: No such file or directory"),
            (("extend", "--context", context, "--out", folder), f"{folder}: Is a directory"),
            (("decompose", algebra, "--out", missing), f"{missing}: No such file or directory"),
            (("catalog", "heisenberg", "--out", folder), f"{folder}: Is a directory")):
        code, stdout, err = run(capsys, *map(str, argv))
        assert (code, stdout, err) == (2, "", f"error: {expected}\n"), argv
    assert not missing.parent.exists() and list(folder.iterdir()) == []


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "verify", "/no/such/file")
    assert code == 2


def test_document_not_utf8_exit_2(tmp_path, capsys):
    """Documents are UTF-8: a byte sequence that is not is a parse error."""
    f = tmp_path / "latin.alg"
    f.write_bytes(b"algebra x\nbasis a\xff 0\nend algebra\n")
    code, out, err = run(capsys, "verify", str(f))
    assert code == 2 and out == "" and err.startswith("error: ") and "not UTF-8" in err


def test_non_ascii_label_reads_and_writes_under_an_ascii_locale(tmp_path):
    """The locale's encoding plays no part: under an ASCII locale a UTF-8
    label reads, and the output is the same bytes as under a UTF-8 one."""
    import os
    import subprocess
    import sys

    ctx = tmp_path / "eps.context"
    ctx.write_text((SAMPLES / "heisenberg.context").read_text().replace("basis e 0", "basis \u03b5 0"),
                   encoding="utf-8")
    package_root = str(Path(superquad.__file__).resolve().parent.parent)  # the package under test
    outputs = []
    for name, env in (("utf8", {"PYTHONUTF8": "1"}),
                      ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})):
        out = tmp_path / f"{name}.algebra"
        proc = subprocess.run(
            [sys.executable, "-m", "superquad.cli", "extend", "--context", str(ctx), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": package_root, **env}, capture_output=True, text=True)
        assert proc.returncode == 0, (name, proc.stderr)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and "basis \u03b5 0".encode() in outputs[0]


def test_json_output_format(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert run(capsys, "catalog", "heisenberg", "--format", "json", "--out", str(out))[0] == 0
    doc = parse_document(out.read_text())
    assert doc == parse_document((SAMPLES / "heisenberg.algebra").read_text())


def test_json_context_through_decompose(tmp_path, capsys):
    ctx_json = tmp_path / "rec.json"
    code, _, _ = run(capsys, "decompose", str(SAMPLES / "heisenberg.algebra"),
                     "--ideal", "auto", "--out", str(ctx_json), "--format", "json")
    assert code == 0
    assert ctx_json.read_text().startswith("{")
    ext = tmp_path / "re.alg"
    assert run(capsys, "extend", "--context", str(ctx_json), "--out", str(ext))[0] == 0
    assert ext.read_bytes() == (SAMPLES / "heisenberg.algebra").read_bytes()


def test_pairs_8_text_and_json_agree(tmp_path, capsys):
    """The pairs-8 catalog algebra written as text and as JSON gives the same
    verify report; its JSON context extends to the text algebra byte for
    byte and round-trips."""
    text, doc, ctx, ext = (tmp_path / name for name in ("h8.algebra", "h8.json", "h8c.json", "h8c.algebra"))
    pairs = ("catalog", "heisenberg", "--pairs", "8")
    assert run(capsys, *pairs, "--out", str(text))[0] == 0
    assert run(capsys, *pairs, "--format", "json", "--out", str(doc))[0] == 0
    assert run(capsys, *pairs, "--emit", "context", "--format", "json", "--out", str(ctx))[0] == 0
    want = run(capsys, "verify", str(text))
    assert want[0] == 0 and run(capsys, "verify", str(doc)) == want
    assert run(capsys, "extend", "--context", str(ctx), "--out", str(ext))[0] == 0
    assert ext.read_bytes() == text.read_bytes()
    code, out, _ = run(capsys, "roundtrip", str(ctx))
    assert code == 0 and out.endswith("\nPASS\n")


def _json_doc(sample):
    return json.loads(serialize_document(parse_document((SAMPLES / sample).read_text()), "json"))


def _run_json(tmp_path, capsys, obj, *argv):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(obj))
    return run(capsys, *[str(f) if a == "DOC" else a for a in argv])


def test_json_integer_coefficients_accepted(tmp_path, capsys):
    obj = _json_doc("heisenberg.algebra")
    obj["metric"]["entries"] = [[i, j, int(c)] for i, j, c in obj["metric"]["entries"]]
    code, out, _ = _run_json(tmp_path, capsys, obj, "verify", "DOC")
    assert code == 0 and "RESULT ok" in out


def test_json_float_metric_entry_exit_2(tmp_path, capsys):
    obj = _json_doc("heisenberg.algebra")
    obj["metric"]["entries"][0][2] = 0.5
    code, _, err = _run_json(tmp_path, capsys, obj, "verify", "DOC")
    assert code == 2
    assert "coefficient must be a rational string or a JSON integer, got 0.5" in err


def test_json_float_bracket_coefficient_exit_2(tmp_path, capsys):
    obj = _json_doc("heisenberg.algebra")
    obj["bracket"][0][3] = 0.1
    code, _, err = _run_json(tmp_path, capsys, obj, "verify", "DOC")
    assert code == 2 and "got 0.1" in err


def test_json_bool_parity_exit_2(tmp_path, capsys):
    obj = _json_doc("heisenberg.algebra")
    obj["basis"][2][1] = True
    code, _, err = _run_json(tmp_path, capsys, obj, "verify", "DOC")
    assert code == 2 and "parity must be a JSON integer, got true" in err


def test_json_bool_index_exit_2(tmp_path, capsys):
    obj = _json_doc("heisenberg.algebra")
    obj["bracket"][0][0] = False
    code, _, err = _run_json(tmp_path, capsys, obj, "verify", "DOC")
    assert code == 2 and "index must be a JSON integer, got false" in err


def test_json_float_metric_degree_exit_2(tmp_path, capsys):
    obj = _json_doc("heisenberg.algebra")
    obj["metric"]["degree"] = 1.0
    code, _, err = _run_json(tmp_path, capsys, obj, "verify", "DOC")
    assert code == 2 and "metric degree must be a JSON integer, got 1.0" in err


def test_json_context_bool_delta_and_float_rho_exit_2(tmp_path, capsys):
    obj = _json_doc("heisenberg.context")
    obj["delta"] = True
    code, _, err = _run_json(tmp_path, capsys, obj, "extend", "--context", "DOC", "--out",
                             str(tmp_path / "x"))
    assert code == 2 and "delta must be a JSON integer, got true" in err
    obj = _json_doc("heisenberg.context")
    obj["rho"][0][3] = 1.0
    code, _, err = _run_json(tmp_path, capsys, obj, "roundtrip", "DOC")
    assert code == 2 and "got 1.0" in err
    assert not (tmp_path / "x").exists()


def test_json_key_written_twice_exit_2(tmp_path, capsys):
    """A key written twice is refused, not read as its last value: the
    Heisenberg bracket followed by an empty one would verify as abelian."""
    text = serialize_document(parse_document((SAMPLES / "heisenberg.algebra").read_text()), "json")
    f = tmp_path / "twice.json"
    f.write_text(text.replace('"kind":', '"bracket":[],"kind":', 1))
    code, out, err = run(capsys, "verify", str(f))
    assert (code, out, err) == (2, "", f"error: {f}: duplicate key 'bracket' in a JSON object\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_byte_order_mark_is_ignored(tmp_path, capsys, fmt):
    """A document saved with a UTF-8 byte order mark verifies as the one without it."""
    sample = SAMPLES / "heisenberg.algebra"
    f = tmp_path / "bom.algebra"
    f.write_text("\ufeff" + serialize_document(parse_document(sample.read_text()), fmt), encoding="utf-8")
    assert run(capsys, "verify", str(f)) == run(capsys, "verify", str(sample))


def test_json_ideal_float_and_zero_denominator_exit_2(tmp_path, capsys):
    """A float or zero-denominator coefficient, or a vector written as a
    string of digits, which would iterate as one, is a parse error: exit 2
    and no file written."""
    out = tmp_path / "x"
    for bad in (1.0, "1/0", "0001"):
        obj = _json_doc("heisenberg.ideal")
        if bad == "0001":
            obj["vectors"] = [bad]
        else:
            obj["vectors"][0][3] = bad
        f = tmp_path / "ideal.json"
        f.write_text(json.dumps(obj))
        code, _, err = run(capsys, "decompose", str(SAMPLES / "heisenberg.algebra"),
                           "--ideal", str(f), "--out", str(out))
        assert code == 2 and err.startswith("error: "), bad
        assert not out.exists()
    assert err == f'error: {f}: ideal vector 0 must be a JSON array, got "0001"\n'


def test_json_names_and_labels_must_be_text_tokens_exit_2(tmp_path, capsys):
    """A name or label that is not a JSON string, or a name that is not one
    text token, would be written as text that does not read back."""
    out = tmp_path / "x"
    for bad in ("my ctx", "", "a#b", "tab\there", 5, None, ["x"]):
        for path in (("name",), ("h", "name"), ("a", "name"), ("h", "basis", 0, 0)):
            obj = _json_doc("heisenberg.context")
            node = obj
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = bad
            code, _, err = _run_json(tmp_path, capsys, obj, "extend", "--context", "DOC", "--out", str(out))
            assert code == 2 and err.startswith("error: "), (path, bad, err)
            assert not out.exists()
    obj = _json_doc("heisenberg.ideal")
    obj["name"] = "the center"
    with pytest.raises(ParseError, match="name"):
        parse_document(json.dumps(obj))


def test_json_ideal_vectors_of_unequal_lengths_are_a_parse_error():
    obj = _json_doc("heisenberg.ideal")
    obj["vectors"].append(["0", "1"])
    with pytest.raises(ParseError, match="inconsistent lengths"):
        parse_document(json.dumps(obj))


def test_label_clashes_and_ideal_length_exit_2(tmp_path, capsys):
    """Repeated or malformed basis labels, a, h and dual-block labels that
    collide, and an ideal vector of the wrong length are input errors."""
    out = str(tmp_path / "x")
    context = (SAMPLES / "heisenberg.context").read_text()
    cases = [
        ("dup.algebra", "algebra d\nbasis x 0\nbasis x 1\nend algebra\n", ("verify", "DOC")),
        ("space.json", json.dumps({"kind": "algebra", "name": "j", "basis": [["a b", 0]], "bracket": []}),
         ("verify", "DOC")),
        ("short.ideal", "ideal short\nvector 0 0 1\nend ideal\n",
         ("decompose", str(SAMPLES / "heisenberg.algebra"), "--ideal", "DOC", "--out", out)),
    ]
    for label in ("x", "P(x)*"):  # an h label equal to the a label, or to its dual
        text = context.replace("basis e 0", f"basis {label} 0")
        cases += [("clash.context", text, ("extend", "--context", "DOC", "--out", out)),
                  ("clash.context", text, ("roundtrip", "DOC"))]
    clash = "a, h and dual-block labels must be pairwise distinct in 'heisenberg'"
    for name, content, argv in cases:
        f = tmp_path / name
        f.write_text(content)
        code, _, err = run(capsys, *[str(f) if a == "DOC" else a for a in argv])
        assert code == 2 and err.startswith("error: "), (argv, err)
        if name == "clash.context":
            assert err == f"error: {f}: {clash}\n", (argv, err)
    assert not (tmp_path / "x").exists()


def test_catalog_bad_arguments_exit_2(tmp_path, capsys):
    out = tmp_path / "x"
    for argv, message in ((("heisenberg", "--pairs", "0"), "field --pairs: need at least one hyperbolic pair"),
                          (("odd-dim1", "--eta", "abc"), "field --eta: bad rational 'abc'"),
                          (("odd-dim1", "--eta", "1/0"), "field --eta: bad rational '1/0'")):
        code, stdout, err = run(capsys, "catalog", *argv, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err == f"error: input, {message}\n"
        assert not out.exists()


def test_validate_context_calls_per_command(tmp_path, capsys, monkeypatch):
    import superquad.extension as extension
    calls = []
    original = extension.validate_context

    def counting(ctx):
        calls.append(ctx)
        return original(ctx)

    import sys
    # every caller reaches it through the extension module, so the patch sees all calls
    assert [name for name, module in sys.modules.items()
            if name.startswith("superquad.") and name != "superquad.extension"
            and getattr(module, "validate_context", None) is original] == []
    monkeypatch.setattr(extension, "validate_context", counting)
    out = str(tmp_path / "out")
    # roundtrip recovers a context equal to its input, and validates only the
    # input; decompose validates none, its isometry onto g certifies the context
    for stem in (SAMPLES / "heisenberg", SAMPLES / "odd-dim1", GOLDEN / "coprime"):
        for argv, expected in ((("extend", "--context", f"{stem}.context", "--out", out), 1),
                               (("decompose", f"{stem}.algebra", "--out", out), 0),
                               (("roundtrip", f"{stem}.context"), 1)):
            calls.clear()
            assert run(capsys, *argv)[0] == 0
            assert len(calls) == expected, argv

    # catalog builds its family's context once: validated, with the Jacobi
    # scans of a and h, the invariance scan of h and the one cyclic scan of
    # the extension, which validate_context keeps; --emit algebra writes that
    # extension and validates nothing again. The algebra constructors reach
    # check_jacobi and check_invariance through the algebra module.
    import superquad.algebra as algebra
    scans = {name: 0 for name in ("check_jacobi", "check_invariance", "cyclic_failures")}
    for name in scans:
        real = getattr(algebra, name)

        def scan(*args, _name=name, _real=real):
            scans[_name] += 1
            return _real(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("superquad") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, scan)
    for family in (("heisenberg", "--pairs", "16"), ("odd-dim1", "--eta", "1/2")):
        for emit in ("context", "algebra"):
            calls.clear()
            scans.update(dict.fromkeys(scans, 0))
            assert run(capsys, "catalog", *family, "--emit", emit, "--out", out)[0] == 0
            assert (len(calls), scans["check_jacobi"], scans["check_invariance"], scans["cyclic_failures"]) \
                == (1, 2, 1, 3), (family, emit)


def test_roundtrip_derives_chi_and_phi_once_per_context(capsys, monkeypatch):
    """A roundtrip recovers a context equal to its input and reads chi and
    Phi from the input: each is derived once, whichever check reads it."""
    import sys
    import superquad.extension as extension
    calls = {"derive_chi": 0, "derive_phi": 0}
    for name in calls:
        original = getattr(extension, name)
        # every caller reaches it through the extension module, so the patch sees all calls
        assert [module_name for module_name, module in sys.modules.items()
                if module_name.startswith("superquad.") and module_name != "superquad.extension"
                and getattr(module, name, None) is original] == []

        def counting(ctx, _name=name, _original=original):
            calls[_name] += 1
            return _original(ctx)

        monkeypatch.setattr(extension, name, counting)
    for stem in (SAMPLES / "heisenberg", SAMPLES / "odd-dim1", GOLDEN / "coprime"):
        calls.update(dict.fromkeys(calls, 0))
        assert run(capsys, "roundtrip", f"{stem}.context")[0] == 0
        assert calls == {"derive_chi": 1, "derive_phi": 1}, stem


def test_extend_scans_each_context_condition_once(tmp_path, capsys, monkeypatch):
    """extend and roundtrip make three cyclic scans, the Jacobi scans of a
    and h and the one scan of the extension that validate_context reads
    deh1, deh2 and deh3 from, and check each rho map for a derivation once:
    the extension is certified by its own bracket, not by a second pass
    over the same conditions."""
    import superquad.algebra as algebra
    calls = count_calls(monkeypatch, algebra, "cyclic_failures", "is_derivation")
    for stem in (SAMPLES / "heisenberg", SAMPLES / "odd-dim1", GOLDEN / "coprime"):
        path = Path(f"{stem}.context")
        na = len(parse_document(path.read_text()).a_doc.basis)
        for argv in (("extend", "--context", str(path), "--out", str(tmp_path / "out")), ("roundtrip", str(path))):
            for seen in calls.values():
                seen.clear()
            assert run(capsys, *argv)[0] == 0
            assert {name: len(seen) for name, seen in calls.items()} == {"cyclic_failures": 3, "is_derivation": na}, \
                argv


def test_delta_coadjoint_built_once_per_context(tmp_path, capsys, monkeypatch):
    """ad*_delta is derived once per context, beside chi and Phi: once per
    extend, decompose and roundtrip (whose recovered context equals its
    input), whichever checks and layers read it."""
    import superquad.algebra as algebra
    calls = count_calls(monkeypatch, algebra, "delta_coadjoint")["delta_coadjoint"]
    for stem in (SAMPLES / "heisenberg", SAMPLES / "odd-dim1", GOLDEN / "coprime"):
        out = str(tmp_path / "out")
        for argv, expected in ((("extend", "--context", f"{stem}.context", "--out", out), 1),
                               (("decompose", f"{stem}.algebra", "--out", out), 1),
                               (("roundtrip", f"{stem}.context"), 1)):
            calls.clear()
            assert run(capsys, *argv)[0] == 0
            assert len(calls) == expected, argv


def test_roundtrip_certifies_each_distinct_bracket_once(tmp_path, capsys, monkeypatch):
    """Every table a command builds is certified once, either by its scans
    or by transport from an algebra already certified. extend builds a and
    h by their constructors, two Jacobi scans on two distinct tables and
    h's invariance scan; the extension's Jacobi and invariance scans are
    validate_context's own, which read the context axioms off them and
    call neither check. decompose scans only the re-extension: the algebra
    it reads is certified by the isometry onto it, and a and h are its
    quotient and subquotient, so it makes one Jacobi scan and one
    invariance scan. roundtrip scans a, h and the extension as extend does, and takes
    the re-extension from the certified input context it equals."""
    import superquad.algebra as algebra
    calls = count_calls(monkeypatch, algebra, "check_jacobi", "check_invariance")
    out = str(tmp_path / "out")
    for stem in (SAMPLES / "heisenberg", SAMPLES / "odd-dim1", GOLDEN / "coprime"):
        for argv, expected in ((("extend", "--context", f"{stem}.context", "--out", out), (2, 2, 1)),
                               (("decompose", f"{stem}.algebra", "--out", out), (1, 1, 1)),
                               (("roundtrip", f"{stem}.context"), (2, 2, 1))):
            for seen in calls.values():
                seen.clear()
            assert run(capsys, *argv)[0] == 0
            jacobi = [args[-1] for args in calls["check_jacobi"]]  # the bracket
            assert (len(jacobi), len(set(jacobi)), len(calls["check_invariance"])) == expected, argv


def test_roundtrip_compares_the_re_extension_once(capsys, monkeypatch):
    """roundtrip of each sample makes the split's two isometry comparisons,
    the pairings and then the bracket, and no other: the split returns the
    input context itself, whose extension is g, so there is nothing left to
    compare it with."""
    import superquad.algebra as algebra
    import superquad.extension as extension
    calls = {**count_calls(monkeypatch, algebra, "certify_isometry"),
             **count_calls(monkeypatch, extension, "contexts_equal")}
    for sample in (SAMPLES / "heisenberg.context", SAMPLES / "odd-dim1.context", GOLDEN / "coprime.context"):
        for seen in calls.values():
            seen.clear()
        assert run(capsys, "roundtrip", str(sample))[0] == 0
        assert {name: len(seen) for name, seen in calls.items()} == {"certify_isometry": 2, "contexts_equal": 0}, \
            sample


def test_roundtrip_builds_the_extension_metric_once(capsys, monkeypatch):
    """roundtrip builds the input extension's metric once, for
    validate_context: decompose, whose recovered context is its source,
    compares the split with the metric of the extension already built."""
    import superquad.extension as extension
    calls = []
    real = extension.extension_metric

    def counting(ctx):
        calls.append(ctx)
        return real(ctx)

    monkeypatch.setattr(extension, "extension_metric", counting)
    for sample in (SAMPLES / "heisenberg.context", SAMPLES / "odd-dim1.context", GOLDEN / "coprime.context"):
        calls.clear()
        assert run(capsys, "roundtrip", str(sample))[0] == 0
        assert len(calls) == 1, sample


@pytest.mark.parametrize("block", ["phi", "chi"])
@pytest.mark.parametrize("sample", [SAMPLES / "heisenberg.context", GOLDEN / "coprime.context"],
                         ids=lambda p: p.name)
def test_extend_refuses_a_failure_in_a_block_no_axiom_names(sample, block, tmp_path, capsys, monkeypatch):
    """A structure constant planted, with its super skew partner, in the Phi
    block (h x h -> dual) or the chi block (a x h -> dual) of a valid
    context's extension breaks no context axiom. validate_context still
    refuses the tables it scanned: extend exits 1 with the extension's
    jacobi or invariance witness and writes no file."""
    from fractions import Fraction

    import superquad.extension as extension
    from superquad.algebra import SuperBracket

    real = extension.extension_bracket

    def planting(ctx):
        bracket = real(ctx)
        na, nc, par = ctx.a.dim, ctx.a.dim + ctx.h.dim, bracket.space.parities
        left = range(na, nc) if block == "phi" else range(na)
        i, j, k = next((i, j, k) for i in left for j in range(na, nc) for k in range(nc, nc + na)
                       if i < j and par[k] == (par[i] + par[j]) % 2)
        c = Fraction(2, 3)
        extra = [(i, j, k, c), (j, i, k, c if par[i] * par[j] else -c)]
        return SuperBracket.from_entries(bracket.space, bracket.entries() + extra)

    monkeypatch.setattr(extension, "extension_bracket", planting)
    out = tmp_path / "out.algebra"
    code, stdout, err = run(capsys, "extend", "--context", str(sample), "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith(("violation: Jacobi super identity: witness", "violation: metric invariance: witness")), err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("sample", [SAMPLES / "heisenberg.context", SAMPLES / "odd-dim1.context",
                                    GOLDEN / "coprime.context"], ids=lambda p: p.name)
def test_roundtrip_reports_a_re_extension_that_differs(sample, capsys, monkeypatch):
    """A recovered context with one planted lambda, rho or omega entry, each
    where the sample's grading has a slot for it, differs from the input:
    roundtrip exits 1 after the three lines a passing roundtrip prints
    first, saying so on stderr and nothing more on stdout."""
    import dataclasses
    from fractions import Fraction

    import superquad.cli as cli
    from superquad.fileformat import document_to_context
    from superquad.spaces import GradedBilinearMap, GradedLinearMap

    code, passing, _ = run(capsys, "roundtrip", str(sample))
    assert code == 0
    head = "".join(passing.splitlines(keepends=True)[:3])
    real, c = cli._split, Fraction(2, 3)

    def planted(ctx, field):
        """ctx with c added to the first entry of field that its grading allows, else None."""
        pa, ph = ctx.a.space.parities, ctx.h.space.parities
        if field == "rho":
            slot = next(((i, r, m) for i in range(len(pa)) for r in range(len(ph)) for m in range(len(ph))
                         if ph[r] == (ph[m] + pa[i]) % 2), None)
            if slot is None:
                return None
            i, r, m = slot
            t = ctx.rho[i]
            rho = list(ctx.rho)
            rho[i] = GradedLinearMap.from_entries(t.source, t.target, t.degree, t.entries() + [(r, m, c)])
            return dataclasses.replace(ctx, rho=tuple(rho))
        t = getattr(ctx, field)
        k = next((k for k, q in enumerate(t.target.parities) if q == (2 * pa[0]) % 2), None)
        if k is None:
            return None
        return dataclasses.replace(ctx, **{field: GradedBilinearMap.from_entries(
            t.left, t.right, t.target, t.entries() + [(0, 0, k, c)])})

    ctx = document_to_context(parse_document(sample.read_text()))
    fields = [field for field in ("lam", "rho", "omega") if planted(ctx, field) is not None]
    assert fields
    for field in fields:
        def planting(g, ideal):
            res = real(g, ideal)
            return dataclasses.replace(res, context=planted(res.context, field))

        monkeypatch.setattr(cli, "_split", planting)
        code, out, err = run(capsys, "roundtrip", str(sample))
        assert (code, out, err) == (1, head, "roundtrip: reconstructed context differs from the input\n"), field


@pytest.mark.parametrize("command", ["extend", "verify", "decompose"])
def test_non_ascii_name_prints_escaped_under_an_ascii_locale(tmp_path, command):
    """A document name prints with each non-ASCII character as its backslash
    escape, so stdout is the same bytes under an ASCII locale as under a
    UTF-8 one, and the command exits 0 with nothing on stderr."""
    import os
    import subprocess
    import sys

    kind = "context" if command == "extend" else "algebra"
    doc = tmp_path / f"eps.{kind}"
    doc.write_text((SAMPLES / f"heisenberg.{kind}").read_text().replace(
        f"{kind} heisenberg\n", f"{kind} \u03b5\n"), encoding="utf-8")
    package_root = str(Path(superquad.__file__).resolve().parent.parent)  # the package under test
    out = tmp_path / "out"
    argv = {"extend": ["extend", "--context", str(doc), "--out", str(out)],
            "verify": ["verify", str(doc)],
            "decompose": ["decompose", str(doc), "--out", str(out)]}[command]
    outputs = []
    for name, env in (("utf8", {"PYTHONUTF8": "1"}),
                      ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})):
        proc = subprocess.run([sys.executable, "-m", "superquad.cli", *argv],
                              env={**os.environ, "PYTHONPATH": package_root, **env}, capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b""), name
        outputs.append((proc.stdout, out.read_bytes() if out.exists() else None))
    assert outputs[0] == outputs[1]
    stdout, written = outputs[0]
    assert b" \\u03b5" in stdout.splitlines()[0]
    if written is not None:  # the output file keeps the name itself, in UTF-8
        assert written.splitlines()[0].endswith(" \u03b5".encode())


def test_heisenberg_pairs_16_extend_and_roundtrip(tmp_path, capsys):
    """Scale coverage: the dim-34 Heisenberg extension through the CLI."""
    from superquad.catalog import default_heisenberg_params, heisenberg_extension

    ctx, out = tmp_path / "h16.context", tmp_path / "h16.algebra"
    assert run(capsys, "catalog", "heisenberg", "--pairs", "16", "--emit", "context", "--out", str(ctx))[0] == 0
    code, stdout, _ = run(capsys, "extend", "--context", str(ctx), "--out", str(out))
    assert code == 0 and "dim 34 (17|17)" in stdout
    expected = algebra_to_document(heisenberg_extension(default_heisenberg_params(16)), "heisenberg")
    assert out.read_text() == serialize_document(expected)
    code, stdout, _ = run(capsys, "roundtrip", str(ctx))
    assert code == 0 and stdout.splitlines()[-1] == "PASS"


def test_inputs_that_would_stall_or_crash_the_parser_exit_2(tmp_path, capsys):
    """An exponent that Fraction would write out digit by digit, a JSON
    integer past int's digit limit and deeply nested JSON each end as a parse
    error within a second, in the text format, in JSON strings and in --eta."""
    import time

    deep = "[" * 100000 + "]" * 100000
    cases = [
        ("big.algebra", "algebra big\nbasis x 0\nbracket 0 0 0 1e100000000\nend algebra\n",
         "line 3: bad rational '1e100000000': exponent notation is not accepted"),
        ("big.json", json.dumps({"kind": "algebra", "name": "b", "basis": [["x", 0]],
                                 "bracket": [[0, 0, 0, "1E100000000"]]}),
         "bad rational '1E100000000': exponent notation is not accepted"),
        ("long.json", '{"kind": "algebra", "name": "b", "basis": [["x", 0]], "bracket": [[0, 0, 0, '
         + "7" * 4301 + "]]}", "bad JSON: an integer literal has too many digits"),
        ("deep.json", '{"kind": "algebra", "name": "b", "basis": ' + deep + "}",
         "bad JSON: nested too deeply"),
    ]
    for name, content, message in cases:
        f = tmp_path / name
        f.write_text(content)
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", str(f))
        assert time.perf_counter() - start < 1
        assert code == 2 and err.startswith("error: ") and message in err, (name, err)
    start = time.perf_counter()
    code, _, err = run(capsys, "catalog", "odd-dim1", "--eta", "2e100000000", "--out", str(tmp_path / "x"))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err == "error: input, field --eta: bad rational '2e100000000': exponent notation is not accepted\n"
    assert not (tmp_path / "x").exists()


def chain_end(x):
    """The last record of x's chain of premises: ``("split", ext)`` leads on
    to the record of the re-extension ext, any other record ends it."""
    while x.proof is not None and x.proof[0] == "split":
        x = x.proof[1]
    return x.proof


def certified(x) -> bool:
    """x's chain ends in its own scans, or in a context whose a and h were
    scanned and whose axioms validate_context read."""
    end = chain_end(x)
    return end == ("scan",) or (end is not None and end[0] == "context"
                                and end[1].a.proof == end[1].h.proof == ("scan",))


def test_every_command_result_carries_a_certified_record(tmp_path, capsys, monkeypatch):
    """Each algebra that extend, decompose (along an ideal file and with
    --ideal auto), roundtrip and catalog write or recover, and the a, h and
    extension of each context among them, has a record whose chain of
    premises ends in ("scan",) or ("context", ctx), with ctx's a and h
    scanned."""
    import superquad.cli as cli
    from superquad.extension import DeltaContext

    seen = []

    def recording(name, result):
        real = getattr(cli, name)

        def record(*args):
            out = real(*args)
            seen.append(result(args, out))
            return out
        monkeypatch.setattr(cli, name, record)

    recording("algebra_to_document", lambda args, out: args[0])
    recording("context_to_document", lambda args, out: args[0])
    recording("_split", lambda args, out: out.context)
    out = str(tmp_path / "out")
    commands = {"extend": ["extend", "--context", str(SAMPLES / "heisenberg.context"), "--out", out],
                "decompose FILE": ["decompose", str(SAMPLES / "heisenberg.algebra"),
                                   "--ideal", str(SAMPLES / "heisenberg.ideal"), "--out", out],
                "decompose auto": ["decompose", str(SAMPLES / "odd-dim1.algebra"), "--out", out],
                "roundtrip": ["roundtrip", str(SAMPLES / "odd-dim1.context")],
                "catalog": ["catalog", "heisenberg", "--pairs", "2", "--out", out],
                "catalog context": ["catalog", "odd-dim1", "--emit", "context", "--out", out]}
    ends = {}
    for what, argv in commands.items():
        seen.clear()
        assert run(capsys, *argv)[0] == 0, what
        (x,) = seen
        algebras = [x.a, x.h, x.extension] if isinstance(x, DeltaContext) else [x]
        algebras += [y.algebra for y in algebras if hasattr(y, "algebra")]
        assert all(certified(y) for y in algebras), what
        ends[what] = algebras[0].proof[0], chain_end(algebras[0])[0]  # the first record and the last
    assert ends == {"extend": ("context", "context"), "decompose FILE": ("split", "scan"),
                    "decompose auto": ("split", "scan"), "roundtrip": ("scan", "scan"),
                    "catalog": ("context", "context"), "catalog context": ("scan", "scan")}
