"""Command-line interface.

Subcommands: verify, extend, decompose, catalog, roundtrip. Exit codes:
0 success, 1 mathematical violation (witness printed), 2 I/O, parse or usage error.
All serialised output is deterministic, byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import catalog as cat
from .algebra import _admit, check_invariance, check_jacobi
from .decompose import _split, decompose, split_step
from .errors import (
    NotHomogeneous,
    ParseError,
    SuperquadError,
    ValidationError,
    Violation,
    format_residual,
)
from .extension import double_extend
from .fileformat import (
    AlgebraDocument,
    ContextDocument,
    IdealDocument,
    algebra_to_document,
    context_to_document,
    document_to_algebra,
    document_to_context,
    document_to_raw,
    parse_document,
    parse_scalar,
    serialize_document,
)
from .spaces import check_form_degree

EQUATION_NAMES = {
    "grading": "bracket grading",
    "super-skew": "super skew-symmetry",
    "jacobi": "Jacobi super identity",
    "invariance": "metric invariance",
    "super-symmetry": "metric super-symmetry",
    "metric-degree": "metric homogeneity degree",
    "non-degenerate": "metric non-degeneracy",
    "deh1": "curvature condition (deh1)",
    "deh2": "lambda cocycle condition (deh2)",
    "deh3": "omega cocycle condition (deh3)",
    "super-cyclic": "super cyclic condition",
    "rho-derivation": "rho into derivations",
    "rho-skew": "rho into metric-skew maps",
    "rho-degree": "rho evenness",
    "lambda-even": "lambda evenness",
    "lambda-skew": "lambda super skew-symmetry",
    "omega-even": "omega evenness",
    "omega-skew": "omega super skew-symmetry",
}


def describe(v: Violation) -> str:
    name = EQUATION_NAMES.get(v.equation, v.equation)
    parts = [name]
    if v.indices:
        parts.append("witness (" + ",".join(str(i) for i in v.indices) + ")")
    if v.residual is not None:
        parts.append(f"residual {format_residual(v.residual)}")
    if v.detail:
        parts.append(v.detail)
    return ": ".join([parts[0], " ".join(parts[1:])]) if len(parts) > 1 else parts[0]


def _shown(name: str) -> str:
    """A document name as stdout prints it: each non-ASCII character as its
    backslash escape (\\u03b5 for an epsilon), so that the line is the same
    bytes under every locale; an ASCII name is printed as it is."""
    return name.encode("ascii", "backslashreplace").decode("ascii")


def _converted(path: str, convert, value):
    """convert(value), every ParseError it raises naming the document at path."""
    try:
        return convert(value)
    except ParseError as exc:
        exc.path = path
        raise


def _load(path: str, klass, what: str):
    """The document at path, which must be of the class klass; every
    ParseError raised while reading it names the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(exc.strerror or str(exc), path=path) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: byte {exc.start}: {exc.reason}", path=path) from exc
    doc = _converted(path, parse_document, text)
    if not isinstance(doc, klass):
        raise ParseError(f"expected {what} document, got {type(doc).__name__}", path=path)
    return doc


def _write(path: str, content: str) -> None:
    try:
        Path(path).write_text(content, encoding="utf-8")
    except OSError as exc:
        raise ParseError(exc.strerror or str(exc), path=path) from exc


def cmd_verify(args) -> int:
    doc = _load(args.file, AlgebraDocument, "an algebra")
    space, bracket, form = _converted(args.file, document_to_raw, doc)
    checks: list[tuple[str, bool, str]] = []

    def run(name, violation):
        checks.append((name, violation is None, describe(violation) if violation else ""))

    run("grading", bracket.check_even("grading", "bracket"))
    skew = bracket.check_super_skew("super-skew")
    run("super-skew", skew)
    if skew is None:  # the Jacobi scan of sorted triples is exhaustive only then
        run("jacobi", check_jacobi(bracket))
    else:
        checks.append(("jacobi", False, "not checked: needs super skew-symmetry"))
    if form is None:
        checks.append(("metric", True, "absent"))
    else:
        try:
            realised = check_form_degree(form)
            ok = realised == form.degree
            checks.append(("metric-degree", ok,
                           f"degree {realised}" if ok else f"pattern is degree {realised}, declared {form.degree}"))
        except NotHomogeneous as exc:
            checks.append(("metric-degree", False, str(exc)))
        run("super-symmetry", form.check_supersymmetry())
        run("invariance", check_invariance(form, bracket))
        rk = form.rank()
        checks.append(("non-degeneracy", rk == space.dim, f"rank {rk} of {space.dim}"))

    ok_all = all(ok for _, ok, _ in checks)
    if args.format == "json":
        print(json.dumps({
            "algebra": doc.name,
            "dim": space.dim,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
            "ok": ok_all,
        }, sort_keys=True, separators=(",", ":")))
    else:
        print(f"algebra {_shown(doc.name)} dim {space.dim} ({space.dim_even}|{space.dim_odd})")
        for name, ok, detail in checks:
            status = "PASS" if ok else "FAIL"
            line = f"check {name:<15} {status}"
            if detail:
                line += f"  {detail}"
            print(line)
        print("RESULT " + ("ok" if ok_all else "violation"))
    return 0 if ok_all else 1


def cmd_extend(args) -> int:
    doc = _load(args.context, ContextDocument, "a context")
    g = double_extend(_converted(args.context, document_to_context, doc))
    out_doc = algebra_to_document(g, doc.name)
    _write(args.out, serialize_document(out_doc, args.format))
    print(f"extended {_shown(doc.name)}: dim {g.dim} ({g.space.dim_even}|{g.space.dim_odd}), "
          f"metric degree {g.delta} -> {args.out}")
    return 0


def _ideal(args, g) -> list:
    """The vectors of the ideal file to decompose g along."""
    ideal = list(_load(args.ideal, IdealDocument, "an ideal").vectors)
    if not ideal:
        raise ParseError("the ideal document has no vectors: decompose needs a nonzero ideal", path=args.ideal)
    for r, v in enumerate(ideal):
        if len(v) != g.dim:
            raise ParseError(f"ideal vector {r} has length {len(v)}, the algebra has dim {g.dim}", path=args.ideal)
    return ideal


def cmd_decompose(args) -> int:
    doc = _load(args.file, AlgebraDocument, "an algebra")
    if doc.metric_degree is None:
        raise ParseError("decompose needs a quadratic algebra (no metric in document)", path=args.file)
    # g is read unscanned, with no record: decompose's isometry onto its scanned re-extension certifies it
    g = _admit(None, *_converted(args.file, document_to_raw, doc)[1:])
    try:
        res = split_step(g) if args.ideal == "auto" else decompose(g, _ideal(args, g))
        if isinstance(res, str):
            raise ParseError(f"--ideal auto stopped: {res}; supply --ideal FILE", path=args.file)
    except Exception:
        document_to_algebra(doc)  # g's own scans first: an invalid g reports its first witness, as before any split
        raise
    out_doc = context_to_document(res.context, doc.name)
    _write(args.out, serialize_document(out_doc, args.format))
    print(f"decomposed {_shown(doc.name)}: dim a {len(res.a_view[1])}, dim h {len(res.h_view[1])}, "
          f"ideal dim {len(res.ideal_view[1])}; isometry verified -> {args.out}")
    return 0


def cmd_catalog(args) -> int:
    if args.name == "odd-dim1":
        ctx = cat.odd_extension_context(cat.default_odd_dim1_params(parse_scalar(args.eta, field_name="--eta")))
    elif args.name == "heisenberg":
        try:
            params = cat.default_heisenberg_params(args.pairs)
        except ValueError as exc:
            raise ParseError(str(exc), field_name="--pairs") from exc
        ctx = cat.heisenberg_context(params)
    else:
        raise ParseError(f"unknown catalog name {args.name!r} (use odd-dim1 or heisenberg)")
    if args.emit == "context":
        doc = context_to_document(ctx, args.name)
    else:
        doc = algebra_to_document(ctx.extension, args.name)
    _write(args.out, serialize_document(doc, args.format))
    print(f"catalog {args.name}: dim {2 * ctx.a.dim + ctx.h.dim} -> {args.out}")
    return 0


def cmd_roundtrip(args) -> int:
    doc = _load(args.context, ContextDocument, "a context")
    if not doc.a_doc.basis:
        raise ParseError("roundtrip needs dim a > 0: it decomposes along the nonzero dual block", path=args.context)
    ctx = _converted(args.context, document_to_context, doc)
    g = ctx.extension
    print("roundtrip: context valid")
    print(f"roundtrip: extension dim {g.dim}")
    # the dual block of an extension validate_context accepted is an isotropic abelian ideal: no ideal-* check
    res = _split(g, (1, tuple({g.dim - ctx.a.dim + k: 1} for k in range(ctx.a.dim))))
    print("roundtrip: decomposition claims and isometry verified")
    if res.context != ctx:  # else the split returns ctx itself, g's record naming it, and g as its re-extension
        print("roundtrip: reconstructed context differs from the input", file=sys.stderr)
        return 1
    print("roundtrip: re-extension equals the original exactly")
    print("roundtrip: context recovered exactly")
    print("PASS")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared after:
    parsing reads the parser and never changes it."""
    parser = argparse.ArgumentParser(
        prog="superquad",
        description="Construct, verify and decompose homogeneous quadratic Lie "
                    "superalgebras in exact rational arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all structure checks on an algebra file")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extend", help="validate a context and build its double extension")
    p.add_argument("--context", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("decompose", help="split a quadratic algebra along an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", default="auto",
                   help="ideal file, or 'auto' for a central isotropic line")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("catalog", help="emit a worked example (odd-dim1, heisenberg)")
    p.add_argument("name")
    p.add_argument("--eta", default="1", help="omega scale for odd-dim1")
    p.add_argument("--pairs", type=int, default=1, help="hyperbolic pairs for heisenberg")
    p.add_argument("--emit", choices=("algebra", "context"), default="algebra")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("roundtrip", help="extend, decompose, re-extend and compare exactly")
    p.add_argument("context")
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        for v in exc.violations:
            print("violation: " + describe(v), file=sys.stderr)
        if not exc.violations:
            print(f"violation: {exc}", file=sys.stderr)
        return 1
    except SuperquadError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
