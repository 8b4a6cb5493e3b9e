"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest perfbench

The pools are shrunk so that each workload generates and runs in seconds.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    for name, value in (("HEIS_PAIRS", 2), ("HEIS_CYCLES", 2), ("DENSE_PAIRS", 2),
                        ("DENSE_CYCLES", 2), ("CORPUS_CYCLES", 3)):
        monkeypatch.setattr(gen, name, value)


def run_plan(root: Path, workload: str, *extra) -> tuple:
    plan = gen.generate(workload, 3, root)
    result = root / "result.json"
    worker.main([str(root / "plan.json"), str(result), str(ROOT / "src"), "--seconds", "600", *extra])
    return plan, json.loads(result.read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(small, tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    gen.generate(workload, 5, a)
    gen.generate(workload, 5, b)
    gen.generate(workload, 6, c)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        first, second = (a / name).read_text(), (b / name).read_text()
        if name == "plan.json":
            second = second.replace(str(b), str(a))
        assert first == second, name
    assert any((a / n).read_bytes() != (c / n).read_bytes() for n in names if n != "plan.json")


def test_heisenberg_documents_match_the_catalog():
    """The explicit-formula documents of heis-sparse equal the catalog's, so
    that extend and decompose are checked against a second code path."""
    import random

    from superquad.catalog import (HeisenbergExtensionParams, default_heisenberg_params,
                                   heisenberg_context, heisenberg_extension)
    from superquad.fileformat import algebra_to_document, context_to_document, serialize_document
    from superquad.spaces import GradedLinearMap

    ctx = gen.heisenberg_ctx(random.Random(7), 3, "heis")
    h = default_heisenberg_params(3).h
    p = HeisenbergExtensionParams(h, GradedLinearMap(h.space, h.space, 0, ctx.rho[0]))
    assert serialize_document(gen.extension_document(ctx)) == serialize_document(
        algebra_to_document(heisenberg_extension(p), "heis"))
    assert serialize_document(gen.context_document(ctx)) == serialize_document(
        context_to_document(heisenberg_context(p), "heis"))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_operation_passes_its_check(small, tmp_path, workload):
    plan, res = run_plan(tmp_path, workload)
    assert res["exhausted"] and len(res["records"]) == len(plan["ops"])
    assert {op["kind"] for op in plan["ops"]} == set(run.LATENCY)
    assert run.check_records(plan["ops"], res["records"]) == []


@pytest.mark.parametrize("kind, field, text", [
    ("verify", "stdout", "RESULT violation\n"),
    ("reject", "stdout", "check jacobi FAIL witness (0,1,9)\nRESULT violation\n"),
    ("extend", "out", "algebra x\nend algebra\n"),
    ("decompose", "out", None),
    ("roundtrip", "stdout", "roundtrip: context valid\n"),
])
def test_tampered_output_counts_as_failed(small, tmp_path, kind, field, text):
    plan, res = run_plan(tmp_path, "heis-sparse")
    records = res["records"]
    victim = next(r for r in records if r["kind"] == kind)
    victim[field] = text
    failures = run.check_records(plan["ops"], records)
    assert [index for index, _ in failures] == [victim["index"]]


def test_raised_exception_counts_as_failed(small, tmp_path):
    plan, res = run_plan(tmp_path, "context-corpus")
    res["records"][0]["exception"] = "Traceback\nZeroDivisionError: boom\n"
    assert len(run.check_records(plan["ops"], res["records"])) == 1


def _superquad_bindings() -> dict:
    import superquad  # noqa: F401
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "superquad" or name.startswith("superquad."):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    from superquad.algebra import LieSuperAlgebra, QuadraticLieSuperAlgebra
    from superquad.spaces import GradedBilinearForm
    for cls in (LieSuperAlgebra, QuadraticLieSuperAlgebra, GradedBilinearForm):
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


def test_traced_run_wraps_every_namespace_and_restores(small, tmp_path):
    import superquad.cli
    from superquad import algebra

    original = algebra.check_jacobi
    before = _superquad_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert algebra.check_jacobi is superquad.cli.check_jacobi is superquad.check_jacobi
        assert algebra.check_jacobi.__wrapped__ is original
        assert not t.missing
    finally:
        t.restore()
    assert _superquad_bindings() == before

    plan, res = run_plan(tmp_path, "heis-sparse", "--trace", str(tmp_path / "spans.jsonl"))
    assert _superquad_bindings() == before
    metrics = res["layers"]["metrics"]
    assert [name for name, _ in tracer.PER_LAYER] == list(metrics)
    # each planted Jacobi defect also breaks invariance: two violations
    rejects = sum(op["kind"] == "reject" for op in plan["ops"])
    assert metrics["algebra.check_jacobi.calls"] > 0 and metrics["algebra.violations"] == 2 * rejects
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"name", "parent", "op", "start", "end"} <= set(spans[0])
    assert run.check_records(plan["ops"], res["records"]) == []


def test_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [("algebra", "no_such_check", "algebra.no_such_check")])
    before = _superquad_bindings()
    t = tracer.Tracer()
    t.install()
    t.restore()
    assert t.missing == ["algebra.no_such_check"]
    assert _superquad_bindings() == before


def test_declared_metrics_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(small, tmp_path, monkeypatch, capsys, trace):
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "heis-sparse", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared
    printed = set()
    for line in lines[:-1]:
        tokens = line.split()
        try:
            float(tokens[1])
        except (IndexError, ValueError):
            continue
        printed.add(tokens[0])
    assert printed == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "heis-sparse", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
