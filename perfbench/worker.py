"""The timed process: one closed-loop client issuing CLI commands in-process.

Usage: python3 worker.py PLAN RESULT SRC --seconds S [--max-ops N] [--trace SPANS]

Reads the operations of PLAN (written by gen.py), runs each through
``superquad.cli.main(argv)`` with stdout and stderr captured, and issues the
next command only after the previous one returns. It stops after S seconds
of wall time or when the plan (or N operations) is used up, then writes
every operation's exit code, latency, reference time (see reference_s) and
output bytes to RESULT as JSON.
Outputs are checked by the parent, outside the timed process. With --trace,
the calls into the layers are timed from outside (see tracer.py) and the
spans are written to SPANS as JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


def reference_s() -> float:
    """Wall time of a fixed standard-library Fraction loop, about 2 ms.

    The host's cores switch between speeds about 1.5x apart as other tenants
    come and go. Timed right next to each command, this loop tells at what
    speed the command ran. The collector is off inside it, so that the size
    of the program's heap does not change it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:
        rc, exc = None, traceback.format_exc()
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue(), exc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("result")
    ap.add_argument("src")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    from superquad import cli

    with open(args.plan) as fh:
        ops = json.load(fh)["ops"][:args.max_ops]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    records = []
    start = time.perf_counter()
    ref = reference_s()
    try:
        for index, op in enumerate(ops):
            if time.perf_counter() - start >= args.seconds:
                break
            if tracer:
                tracer.begin_op(index, op["kind"])
            elapsed, rc, out, err, exc = run_op(cli.main, op["argv"])
            if tracer:
                tracer.end_op()
            ref_after = reference_s()
            ref_s, ref = (ref + ref_after) / 2, ref_after
            produced = None
            out_path = op["argv"][op["argv"].index("--out") + 1] if "--out" in op["argv"] else None
            if out_path and os.path.exists(out_path):
                with open(out_path) as fh:
                    produced = fh.read()
                os.remove(out_path)
            records.append({"index": index, "kind": op["kind"], "seconds": elapsed, "ref_s": ref_s,
                            "rc": rc, "stdout": out, "stderr": err, "out": produced, "exception": exc})
    finally:
        if tracer:
            tracer.restore()
    result = {
        "records": records,
        "exhausted": len(records) == len(ops),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.write_spans(args.trace)
        result["layers"] = tracer.summary(len(records))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
