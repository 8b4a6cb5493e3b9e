"""Command-latency benchmark of the superquad CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload heis-sparse --seed 1 --seconds 30 --trace 0

One run generates the workload's input documents from the seed (gen.py),
then starts a worker process (worker.py) that issues the commands one after
another, in-process, through ``superquad.cli.main``. Every output is checked
here afterwards. With --trace 0 the run also times fresh interpreters that
import superquad and build the CLI parser (setup_s), and prints the
end-to-end metrics. With --trace 1 it runs the same operations twice,
untraced and then traced (tracer.py), and prints the per-layer metrics. The
last line of stdout is the JSON result; everything before it is for people.

Every timed interval is scaled to one reference speed: it is multiplied by
REFERENCE_S over the time of a fixed standard-library loop run right before
and after it (worker.reference_s). The host's cores switch between speeds
about 1.5x apart, and a run's unscaled medians move with them; the scaled
ones do not. The unscaled medians are printed next to the scaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from worker import reference_s

HERE = Path(__file__).resolve().parent
REFERENCE_S = 0.002
SETUP_SPAWNS = 7
DIGEST_OPS = 10
WORKER_TIMEOUT_S = 120

# command kind -> end-to-end latency metric
LATENCY = {"verify": "verify_s", "reject": "reject_s", "extend": "extend_s",
           "decompose": "decompose_s", "roundtrip": "roundtrip_s"}

END_TO_END = [("setup_s", "s")] + [(m, "s") for m in LATENCY.values()] + [
    ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")]

# the traced run's metrics: the layers, then ungated companions
PER_LAYER = tracer.PER_LAYER + [("gen_s", "s"), ("extend_s.p90", "s"), ("roundtrip_s.p90", "s"),
                                ("trace.overhead_frac", "frac")]


def environment(workload: str, seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


# ---------------------------------------------------------------------------
# correctness


def check_op(op: dict, rec: dict) -> str | None:
    """Why the recorded output of an operation is wrong, or None if it is right."""
    from superquad.cli import EQUATION_NAMES
    from superquad.errors import SuperquadError
    from superquad.extension import contexts_equal
    from superquad.fileformat import ContextDocument, document_to_context, parse_document

    exp = op["expect"]
    if rec["exception"]:
        return "raised " + rec["exception"].strip().splitlines()[-1]
    if op["kind"] == "reject":
        if rec["rc"] != 1:
            return f"exit {rec['rc']}, expected 1"
        witness = "witness (" + ",".join(str(i) for i in exp["witness"]) + ")"
        if "check" in exp:
            lines = rec["stdout"].splitlines()
            named = [ln for ln in lines if ln.split()[:3] == ["check", exp["check"], "FAIL"]]
            if not named or witness not in named[0] or lines[-1] != "RESULT violation":
                return f"no {exp['check']} failure at {witness}"
        else:
            wanted = f"violation: {EQUATION_NAMES.get(exp['equation'], exp['equation'])}: {witness}"
            if not any(ln.startswith(wanted) for ln in rec["stderr"].splitlines()):
                return f"no '{wanted}' line"
        return None
    if rec["rc"] != 0:
        return f"exit {rec['rc']}: {rec['stderr'].strip()[:200]}"
    if rec["stderr"]:
        return "unexpected stderr"
    if "stdout" in exp and rec["stdout"] != exp["stdout"]:
        return "stdout differs"
    if "out_equals" in exp and rec["out"] != Path(exp["out_equals"]).read_text():
        return "output document differs from the expected bytes"
    if "context_dims" in exp or "contexts_equal" in exp:
        try:
            doc = parse_document(rec["out"] or "")
        except SuperquadError as exc:
            return f"output does not parse: {exc}"
        if not isinstance(doc, ContextDocument):
            return "output is not a context"
        if "context_dims" in exp:
            if [doc.delta, len(doc.a_doc.basis), len(doc.h_doc.basis)] != exp["context_dims"]:
                return "decomposed context has the wrong shape"
        else:
            want = parse_document(Path(exp["contexts_equal"]).read_text())
            if not contexts_equal(document_to_context(doc), document_to_context(want)):
                return "decomposed context differs from the input context"
    return None


def check_records(ops: list, records: list) -> list:
    """(index, reason) for every failed operation."""
    failures = []
    for rec in records:
        reason = check_op(ops[rec["index"]], rec)
        if reason:
            failures.append((rec["index"], reason))
    return failures


def output_digest(records: list) -> str:
    h = hashlib.sha256()
    for rec in records[:DIGEST_OPS]:
        for part in (str(rec["index"]), str(rec["rc"]), rec["stdout"], rec["stderr"], rec["out"] or ""):
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# measuring


def scaled(seconds: float, ref_s: float) -> float:
    """A wall time scaled to the speed at which the reference loop takes
    REFERENCE_S, given the reference time measured next to it."""
    return seconds * REFERENCE_S / ref_s


def measure_setup(src: Path) -> list:
    """(wall time, reference time) of fresh interpreters that import
    superquad and build the CLI parser."""
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import superquad, superquad.cli; superquad.cli.build_parser()")
    samples = []
    ref = reference_s()
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        elapsed = time.perf_counter() - t0
        ref_after = reference_s()
        samples.append((elapsed, (ref + ref_after) / 2))
        ref = ref_after
    return samples


def run_worker(plan: Path, result: Path, src: Path, seconds: float,
               max_ops: int | None = None, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan), str(result), str(src),
           "--seconds", str(seconds)]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    subprocess.run(cmd, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result.read_text())


def latencies(records: list, raw: bool = False) -> dict:
    """Latencies per command kind, scaled to the reference speed unless raw."""
    out = {kind: [] for kind in LATENCY}
    for rec in records:
        out[rec["kind"]].append(rec["seconds"] if raw else scaled(rec["seconds"], rec["ref_s"]))
    return out


def end_to_end_metrics(res: dict, setup: list) -> dict:
    lat = latencies(res["records"])
    missing = [kind for kind, v in lat.items() if not v]
    if missing:
        raise RuntimeError(f"no {', '.join(missing)} operation completed in the run")
    metrics = {"setup_s": statistics.median(scaled(t, r) for t, r in setup)}
    for kind, name in LATENCY.items():
        metrics[name] = statistics.median(lat[kind])
    metrics["ops_per_s"] = len(res["records"]) / sum(sum(v) for v in lat.values())
    metrics["peak_rss_mb"] = res["maxrss_kb"] / 1024
    return metrics


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "superquad" / "cli.py").is_file():
        print(f"perfbench: no superquad sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (use {', '.join(gen.WORKLOADS)})",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = root / ".perfbench_work"
    inputs = work / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(inputs, ignore_errors=True)
    env = environment(args.workload, args.seed)
    try:
        t0 = time.perf_counter()
        plan = gen.generate(args.workload, args.seed, inputs)
        gen_s = time.perf_counter() - t0
        plan_path = inputs / "plan.json"
        ops = plan["ops"]
        setup = []
        if args.trace:
            res = run_worker(plan_path, inputs / "untraced.json", src, args.seconds / 2)
            spans = work / f"spans-{args.workload}-{args.seed}.jsonl"
            traced = run_worker(plan_path, inputs / "traced.json", src, float("inf"),
                                max_ops=len(res["records"]), spans=spans)
            records = res["records"] + traced["records"]
            lat = latencies(res["records"])
            untraced_s = sum(sum(v) for v in lat.values())
            traced_s = sum(sum(v) for v in latencies(traced["records"]).values())
            metrics = dict(traced["layers"]["metrics"])
            metrics.update({"gen_s": gen_s, "extend_s.p90": p90(lat["extend"]),
                            "roundtrip_s.p90": p90(lat["roundtrip"]),
                            "trace.overhead_frac": traced_s / untraced_s - 1})
            units = dict(PER_LAYER)
        else:
            setup = measure_setup(src)
            res = run_worker(plan_path, inputs / "result.json", src, args.seconds)
            records = res["records"]
            metrics = end_to_end_metrics(res, setup)
            units = dict(END_TO_END)
        failures = check_records(ops, records)
        digest = output_digest(res["records"])
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    names = {m["name"] for m in declared}
    if set(metrics) != names:
        print(f"perfbench: metrics {sorted(set(metrics) ^ names)} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 3

    raw = {LATENCY[kind]: v for kind, v in latencies(res["records"], raw=True).items()}
    raw["setup_s"] = [t for t, _ in setup]
    refs = [r for _, r in setup] + [rec["ref_s"] for rec in res["records"]]
    print(json.dumps({"env": env, "inputs": plan["inputs"], "gen_s": round(gen_s, 4),
                      "reference_ms": round(1000 * statistics.median(refs), 4),
                      "operations": {kind: len(raw[name]) for kind, name in LATENCY.items()},
                      "pool_exhausted": res["exhausted"],
                      "digest": digest, "digest_ops": min(DIGEST_OPS, len(res["records"]))}))
    if args.trace:
        layers = traced["layers"]
        print(f"traced run: {len(traced['records'])} operations, {layers['spans']} spans -> {spans}")
        if layers["missing"]:
            print("missing spans: " + ", ".join(layers["missing"]))
        print(f"algebra.check_jacobi self-time share {metrics['algebra.check_jacobi.self_share']:.1%} "
              "(baseline under cProfile: about 60% of decompose at dim 26)")
    for index, reason in failures[:10]:
        print(f"FAILED op {index} ({ops[index]['kind']}): {reason}")
    for name, value in metrics.items():
        samples = ""
        if raw.get(name) and not args.trace:
            samples = f"  (median of {len(raw[name])}; unscaled {statistics.median(raw[name]):.6g} s)"
        print(f"{name:<48} {value:.6g} {units[name]}{samples}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
