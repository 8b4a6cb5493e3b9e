"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each function named in TARGETS, in every
``superquad.*`` module namespace that holds a reference to it, by a wrapper
that records a span (name, parent, operation, start, end) and a few counters.
For the dataclass certifications the wrapper goes on ``__post_init__`` of the
class. ``restore`` puts every original back. A target that no longer exists
is reported as a missing span, not an error. The vec_* and mat_* helpers are
not wrapped: they are called millions of times and a wrapper would swamp
them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute path, span name); the span name is module.function,
# or module.Class.certify for a constructor's checks.
TARGETS = [
    ("algebra", "check_jacobi", "algebra.check_jacobi"),
    ("algebra", "check_invariance", "algebra.check_invariance"),
    ("algebra", "is_derivation", "algebra.is_derivation"),
    ("algebra", "is_metric_skew", "algebra.is_metric_skew"),
    ("algebra", "delta_coadjoint", "algebra.delta_coadjoint"),
    ("algebra", "semidirect_product", "algebra.semidirect_product"),
    ("algebra", "LieSuperAlgebra.__post_init__", "algebra.LieSuperAlgebra.certify"),
    ("algebra", "QuadraticLieSuperAlgebra.__post_init__", "algebra.QuadraticLieSuperAlgebra.certify"),
    ("extension", "validate_context", "extension.validate_context"),
    ("extension", "derive_chi", "extension.derive_chi"),
    ("extension", "derive_phi", "extension.derive_phi"),
    ("extension", "extension_derivations", "extension.extension_derivations"),
    ("extension", "central_extension", "extension.central_extension"),
    ("extension", "double_extend", "extension.double_extend"),
    ("decompose", "find_central_minimal_ideal", "decompose.find_central_minimal_ideal"),
    ("decompose", "orthogonal_complement", "decompose.orthogonal_complement"),
    ("decompose", "witt_complement", "decompose.witt_complement"),
    ("decompose", "extract_structure_maps", "decompose.extract_structure_maps"),
    ("decompose", "build_xi", "decompose.build_xi"),
    ("decompose", "decompose", "decompose.decompose"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "inverse", "linalg.inverse"),
    ("linalg", "in_span", "linalg.in_span"),
    ("fileformat", "parse_document", "fileformat.parse_document"),
    ("fileformat", "document_to_raw", "fileformat.document_to_raw"),
    ("fileformat", "document_to_algebra", "fileformat.document_to_algebra"),
    ("fileformat", "document_to_context", "fileformat.document_to_context"),
    ("fileformat", "serialize_document", "fileformat.serialize_document"),
    ("spaces", "check_form_degree", "spaces.check_form_degree"),
    ("spaces", "GradedBilinearForm.rank", "spaces.GradedBilinearForm.rank"),
]

# Checkers whose False result is a violation.
PREDICATES = {"algebra.is_derivation", "algebra.is_metric_skew"}

LAYERS = ("algebra", "extension", "decompose", "fileformat", "spaces")

# Per-layer metrics, with their units, in the order they are printed.
PER_LAYER = (
    [(f"algebra.check_jacobi.{k}", u) for k, u in (
        ("s", "s"), ("calls", "count"), ("triples", "count"), ("nnz", "count"),
        ("distinct_ratio", "frac"), ("self_share", "frac"))]
    + [(f"algebra.check_invariance.{k}", u) for k, u in (("s", "s"), ("calls", "count"), ("triples", "count"))]
    + [(f"algebra.{f}.{k}", u) for f in ("is_derivation", "is_metric_skew", "delta_coadjoint")
       for k, u in (("s", "s"), ("calls", "count"))]
    + [("algebra.semidirect_product.self_s", "s"),
       ("algebra.LieSuperAlgebra.certify.calls", "count"),
       ("algebra.QuadraticLieSuperAlgebra.certify.calls", "count"),
       ("extension.validate_context.self_s", "s"),
       ("extension.validate_context.calls", "count"),
       ("extension.validate_context.calls_per_op", "count/op")]
    + [(f"extension.{f}.s", "s") for f in ("derive_chi", "derive_phi", "extension_derivations")]
    + [("extension.central_extension.self_s", "s"),
       ("extension.double_extend.self_s", "s"),
       ("extension.double_extend.calls", "count")]
    + [(f"decompose.{f}.s", "s") for f in ("find_central_minimal_ideal", "orthogonal_complement",
                                           "witt_complement", "extract_structure_maps", "build_xi")]
    + [("decompose.decompose.self_s", "s")]
    + [(f"linalg.{f}.{k}", u) for f in ("rref", "rank", "nullspace", "solve", "inverse", "in_span")
       for k, u in (("s", "s"), ("calls", "count"))]
    + [("fileformat.parse_document.s", "s"), ("fileformat.parse_document.bytes", "B")]
    + [(f"fileformat.{f}.self_s", "s") for f in ("document_to_raw", "document_to_algebra", "document_to_context")]
    + [("fileformat.serialize_document.s", "s"), ("fileformat.serialize_document.bytes", "B"),
       ("spaces.check_form_degree.s", "s"), ("spaces.GradedBilinearForm.rank.s", "s")]
    + [(f"{layer}.violations", "count") for layer in LAYERS]
)


def _scan_length(n: int, witness) -> int:
    """Triples i <= j <= k scanned by check_jacobi up to and including witness."""
    total = n * (n + 1) * (n + 2) // 6
    if witness is None:
        return total
    i, j, k = witness.indices
    before = 0
    for a in range(i):
        m = n - a
        before += m * (m + 1) // 2
    for b in range(i, j):
        before += n - b
    return before + (k - j) + 1


class Tracer:
    """Spans and counters of one traced run; the state lives here, so two
    tracers never share it."""

    def __init__(self):
        self.spans: list = []       # [name, parent, op, start, end]
        self.stack: list = []
        self.patched: list = []     # (owner, attribute, original)
        self.missing: list = []
        self.counts: dict = {}
        self.op = None
        self.op_span = None
        self._tables: list = []
        self._raised: set = set()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "superquad" or name.startswith("superquad."))]
        for module_name, path, span in TARGETS:
            try:
                owner = importlib.import_module(f"superquad.{module_name}")
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, original)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapper)
                self.patched.append((owner, parts[-1], original))
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.patched.append((module, attr, original))

    def restore(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------

    def _count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, original):
        from superquad.errors import SuperquadError, Violation

        layer = name.split(".", 1)[0]
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            record = [name, tracer.stack[-1] if tracer.stack else tracer.op_span, tracer.op,
                      time.perf_counter(), None]
            tracer.spans.append(record)
            tracer.stack.append(sid)
            try:
                result = original(*args, **kwargs)
            except SuperquadError as exc:
                record[4] = time.perf_counter()
                if id(exc) not in tracer._raised:
                    tracer._raised.add(id(exc))
                    tracer._count(f"{layer}.violations")
                raise
            finally:
                if record[4] is None:
                    record[4] = time.perf_counter()
                tracer.stack.pop()
            if isinstance(result, Violation):
                tracer._count(f"{layer}.violations")
            elif isinstance(result, list) and result and isinstance(result[0], Violation):
                tracer._count(f"{layer}.violations", len(result))
            elif result is False and name in PREDICATES:
                tracer._count(f"{layer}.violations")
            first = args[0] if args else next(iter(kwargs.values()), None)
            if name == "algebra.check_jacobi":
                n = first.space.dim
                tracer._count("algebra.check_jacobi.triples", _scan_length(n, result))
                tracer._tables.append(first.table)
            elif name == "algebra.check_invariance":
                n = first.space.dim
                if result is None:
                    tracer._count("algebra.check_invariance.triples", n ** 3)
                else:
                    i, j, k = result.indices
                    tracer._count("algebra.check_invariance.triples", (i * n + j) * n + k + 1)
            elif name == "fileformat.parse_document":
                tracer._count("fileformat.parse_document.bytes", len(first.encode()))
            elif name == "fileformat.serialize_document":
                tracer._count("fileformat.serialize_document.bytes", len(result.encode()))
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def begin_op(self, index: int, kind: str) -> None:
        self.op = index
        self.op_span = len(self.spans)
        self.spans.append([f"op.{kind}", None, index, time.perf_counter(), None])

    def end_op(self) -> None:
        """Close the operation's span, then, outside every span, count the
        nonzero constants and distinct tables that check_jacobi scanned."""
        self.spans[self.op_span][4] = time.perf_counter()
        distinct = set(self._tables)
        self._count("algebra.check_jacobi.nnz",
                    sum(1 for table in self._tables for row in table for v in row for c in v if c))
        self._count("algebra.check_jacobi.distinct", len(distinct))
        self._tables.clear()
        self._raised.clear()
        self.op = self.op_span = None

    # -- reporting --------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent, "op": op,
                                     "start": start, "end": end}) + "\n")

    def summary(self, ops: int) -> dict:
        """Per-layer metrics: `.s` is total time of outermost calls, `.self_s`
        that time minus the time of the spans called from it."""
        total: dict = {}
        own: dict = {}
        calls: dict = {}
        child_time = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for sid, (name, parent, _, start, end) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + (end - start) - child_time[sid]
            nested = False
            p = parent
            while p is not None:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][1]
            if not nested:
                total[name] = total.get(name, 0.0) + (end - start)
        op_time = sum(v for k, v in total.items() if k.startswith("op."))
        jacobi_calls = calls.get("algebra.check_jacobi", 0)
        out = {}
        for metric, _ in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = total.get(base, 0.0)
            elif kind == "self_s":
                out[metric] = own.get(base, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(base, 0)
            elif kind == "calls_per_op":
                out[metric] = calls.get(base, 0) / ops if ops else 0.0
            elif kind == "distinct_ratio":
                out[metric] = self.counts.get(f"{base}.distinct", 0) / jacobi_calls if jacobi_calls else 0.0
            elif kind == "self_share":
                out[metric] = own.get(base, 0.0) / op_time if op_time else 0.0
            else:
                out[metric] = self.counts.get(metric, 0)
        return {"metrics": out, "missing": self.missing, "op_time_s": op_time, "spans": len(self.spans)}
