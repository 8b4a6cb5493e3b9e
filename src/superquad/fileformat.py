"""Bit-exact document formats for algebras, contexts and ideals.

The text format is line-oriented: whitespace-separated fields, explicit
0-based integer indices, canonical rational coefficients ("p/q" with q > 0
and reduced, plain "p" for integers). Serialisers emit entries in sorted
order and never emit zero coefficients, so serialise(parse(text)) is the
canonical form of text and parse(serialise(doc)) == doc exactly. A JSON
rendering with identical content is available for machine consumers; inputs
are auto-detected by their first character.

An algebra document without a metric section describes a plain Lie
superalgebra; the a-algebra embedded in a context document must not carry
one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieSuperAlgebra, QuadraticLieSuperAlgebra, SuperBracket
from .errors import ParseError, ValidationError, Violation
from .extension import DeltaContext
from .linalg import Vector
from .spaces import GradedBilinearForm, GradedBilinearMap, GradedLinearMap, SuperSpace, is_token, p_delta_dual


def format_scalar(c: Fraction) -> str:
    return str(Fraction(c))


def parse_scalar(text: str, line: int = 0, field_name: str = "") -> Fraction:
    """"p", "p/q" or a decimal. Exponent notation is refused: Fraction would
    write out every digit of 1e100000000 and stall."""
    if "e" in text or "E" in text:
        raise ParseError(f"bad rational {text!r}: exponent notation is not accepted", line, field_name)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}", line, field_name) from exc


@dataclass(frozen=True)
class AlgebraDocument:
    name: str
    basis: tuple[tuple[str, int], ...]
    bracket: tuple[tuple[int, int, int, Fraction], ...]
    metric_degree: int | None = None
    metric: tuple[tuple[int, int, Fraction], ...] = ()

    def canonical(self) -> "AlgebraDocument":
        return AlgebraDocument(
            self.name, self.basis,
            tuple(sorted((i, j, k, c) for i, j, k, c in self.bracket if c)),
            self.metric_degree,
            tuple(sorted((i, j, c) for i, j, c in self.metric if c)),
        )


@dataclass(frozen=True)
class ContextDocument:
    name: str
    delta: int
    h_doc: AlgebraDocument
    a_doc: AlgebraDocument
    rho: tuple[tuple[int, int, int, Fraction], ...]     # (a-index, row, col, coeff)
    lam: tuple[tuple[int, int, int, Fraction], ...]     # (i, j, h-index, coeff)
    omega: tuple[tuple[int, int, int, Fraction], ...]   # (i, j, dual-index, coeff)

    def canonical(self) -> "ContextDocument":
        return ContextDocument(
            self.name, self.delta, self.h_doc.canonical(), self.a_doc.canonical(),
            tuple(sorted(e for e in self.rho if e[3])),
            tuple(sorted(e for e in self.lam if e[3])),
            tuple(sorted(e for e in self.omega if e[3])),
        )


@dataclass(frozen=True)
class IdealDocument:
    name: str
    vectors: tuple[Vector, ...]


Document = AlgebraDocument | ContextDocument | IdealDocument


class _Cursor:
    def __init__(self, text: str):
        self.rows: list[tuple[int, list[str]]] = []
        for num, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.rows.append((num, line.split()))
        self.pos = 0

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else (0, None)

    def next(self):
        if self.pos >= len(self.rows):
            raise ParseError("unexpected end of input", self.rows[-1][0] if self.rows else 0)
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def done(self) -> bool:
        return self.pos >= len(self.rows)


def _int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise ParseError(f"bad integer {tok!r}", line, what) from exc


def _parse_algebra_block(cur: _Cursor) -> AlgebraDocument:
    line, fields = cur.next()
    if fields[0] != "algebra" or len(fields) != 2:
        raise ParseError("expected 'algebra NAME'", line)
    name = fields[1]
    basis: list[tuple[str, int]] = []
    bracket: list[tuple[int, int, int, Fraction]] = []
    metric_degree: int | None = None
    metric: list[tuple[int, int, Fraction]] = []
    seen_bracket: set[tuple[int, int, int]] = set()
    seen_metric: set[tuple[int, int]] = set()
    while True:
        line, fields = cur.next()
        key = fields[0]
        if key == "end":
            if fields != ["end", "algebra"]:
                raise ParseError("expected 'end algebra'", line)
            break
        if key == "basis":
            if len(fields) != 3:
                raise ParseError("expected 'basis LABEL PARITY'", line)
            p = _int(fields[2], line, "parity")
            if p not in (0, 1):
                raise ParseError(f"parity must be 0 or 1, got {p}", line)
            basis.append((fields[1], p))
        elif key == "bracket":
            if len(fields) != 5:
                raise ParseError("expected 'bracket I J K COEFF'", line)
            i, j, k = (_int(t, line, w) for t, w in zip(fields[1:4], "ijk"))
            trip = (i, j, k)
            if trip in seen_bracket:
                raise ParseError(f"duplicate bracket entry {trip}", line)
            seen_bracket.add(trip)
            c = parse_scalar(fields[4], line)
            if c:
                bracket.append((i, j, k, c))
        elif key == "metric-degree":
            if len(fields) != 2 or metric_degree is not None:
                raise ParseError("expected a single 'metric-degree D'", line)
            metric_degree = _int(fields[1], line, "degree")
            if metric_degree not in (0, 1):
                raise ParseError("metric degree must be 0 or 1", line)
        elif key == "metric":
            if metric_degree is None:
                raise ParseError("'metric' entries must follow 'metric-degree'", line)
            if len(fields) != 4:
                raise ParseError("expected 'metric I J COEFF'", line)
            i, j = _int(fields[1], line, "i"), _int(fields[2], line, "j")
            if (i, j) in seen_metric:
                raise ParseError(f"duplicate metric entry {(i, j)}", line)
            seen_metric.add((i, j))
            c = parse_scalar(fields[3], line)
            if c:
                metric.append((i, j, c))
        else:
            raise ParseError(f"unknown algebra line {key!r}", line)
    dim = len(basis)
    for i, j, k, _ in bracket:
        if not all(0 <= t < dim for t in (i, j, k)):
            raise ParseError(f"bracket index out of range in {name!r}", line)
    for i, j, _ in metric:
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError(f"metric index out of range in {name!r}", line)
    return AlgebraDocument(name, tuple(basis), tuple(sorted(bracket)),
                           metric_degree, tuple(sorted(metric)))


def parse_algebra_text(text: str) -> AlgebraDocument:
    cur = _Cursor(text)
    doc = _parse_algebra_block(cur)
    if not cur.done():
        raise ParseError("trailing content after 'end algebra'", cur.peek()[0])
    return doc


def serialize_algebra_lines(doc: AlgebraDocument) -> list[str]:
    doc = doc.canonical()
    out = [f"algebra {doc.name}"]
    out += [f"basis {lab} {p}" for lab, p in doc.basis]
    out += [f"bracket {i} {j} {k} {format_scalar(c)}" for i, j, k, c in doc.bracket]
    if doc.metric_degree is not None:
        out.append(f"metric-degree {doc.metric_degree}")
        out += [f"metric {i} {j} {format_scalar(c)}" for i, j, c in doc.metric]
    out.append("end algebra")
    return out


def serialize_algebra_text(doc: AlgebraDocument) -> str:
    return "\n".join(serialize_algebra_lines(doc)) + "\n"


def parse_context_text(text: str) -> ContextDocument:
    cur = _Cursor(text)
    line, fields = cur.next()
    if fields[0] != "context" or len(fields) != 2:
        raise ParseError("expected 'context NAME'", line)
    name = fields[1]
    line, fields = cur.next()
    if fields[0] != "delta" or len(fields) != 2:
        raise ParseError("expected 'delta D'", line)
    delta = _int(fields[1], line, "delta")
    if delta not in (0, 1):
        raise ParseError("delta must be 0 or 1", line)
    line, fields = cur.next()
    if fields != ["h-algebra"]:
        raise ParseError("expected 'h-algebra'", line)
    h_doc = _parse_algebra_block(cur)
    line, fields = cur.next()
    if fields != ["a-algebra"]:
        raise ParseError("expected 'a-algebra'", line)
    a_doc = _parse_algebra_block(cur)
    rho: list[tuple[int, int, int, Fraction]] = []
    lam: list[tuple[int, int, int, Fraction]] = []
    omega: list[tuple[int, int, int, Fraction]] = []
    seen: dict[str, set] = {"rho": set(), "lambda": set(), "omega": set()}
    while True:
        line, fields = cur.next()
        key = fields[0]
        if key == "end":
            if fields != ["end", "context"]:
                raise ParseError("expected 'end context'", line)
            break
        if key not in ("rho", "lambda", "omega"):
            raise ParseError(f"unknown context line {key!r}", line)
        if len(fields) != 5:
            raise ParseError(f"expected '{key} I J K COEFF'", line)
        i, j, k = (_int(t, line, w) for t, w in zip(fields[1:4], "ijk"))
        if (i, j, k) in seen[key]:
            raise ParseError(f"duplicate {key} entry {(i, j, k)}", line)
        seen[key].add((i, j, k))
        c = parse_scalar(fields[4], line)
        if not c:
            continue
        {"rho": rho, "lambda": lam, "omega": omega}[key].append((i, j, k, c))
    if not cur.done():
        raise ParseError("trailing content after 'end context'", cur.peek()[0])
    na, nh = len(a_doc.basis), len(h_doc.basis)
    for x, r, c, _ in rho:
        if not (0 <= x < na and 0 <= r < nh and 0 <= c < nh):
            raise ParseError("rho index out of range", line)
    for i, j, k, _ in lam:
        if not (0 <= i < na and 0 <= j < na and 0 <= k < nh):
            raise ParseError("lambda index out of range", line)
    for i, j, k, _ in omega:
        if not (0 <= i < na and 0 <= j < na and 0 <= k < na):
            raise ParseError("omega index out of range", line)
    return ContextDocument(name, delta, h_doc, a_doc,
                           tuple(sorted(rho)), tuple(sorted(lam)), tuple(sorted(omega)))


def serialize_context_text(doc: ContextDocument) -> str:
    doc = doc.canonical()
    out = [f"context {doc.name}", f"delta {doc.delta}", "h-algebra"]
    out += serialize_algebra_lines(doc.h_doc)
    out.append("a-algebra")
    out += serialize_algebra_lines(doc.a_doc)
    out += [f"rho {x} {r} {c} {format_scalar(v)}" for x, r, c, v in doc.rho]
    out += [f"lambda {i} {j} {k} {format_scalar(v)}" for i, j, k, v in doc.lam]
    out += [f"omega {i} {j} {k} {format_scalar(v)}" for i, j, k, v in doc.omega]
    out.append("end context")
    return "\n".join(out) + "\n"


def parse_ideal_text(text: str) -> IdealDocument:
    cur = _Cursor(text)
    line, fields = cur.next()
    if fields[0] != "ideal" or len(fields) != 2:
        raise ParseError("expected 'ideal NAME'", line)
    name = fields[1]
    vectors: list[Vector] = []
    width: int | None = None
    while True:
        line, fields = cur.next()
        if fields == ["end", "ideal"]:
            break
        if fields[0] != "vector":
            raise ParseError("expected 'vector C0 C1 ...' or 'end ideal'", line)
        v = tuple(parse_scalar(t, line) for t in fields[1:])
        if width is None:
            width = len(v)
        elif len(v) != width:
            raise ParseError("ideal vectors have inconsistent lengths", line)
        vectors.append(v)
    if not cur.done():
        raise ParseError("trailing content after 'end ideal'", cur.peek()[0])
    return IdealDocument(name, tuple(vectors))


def serialize_ideal_text(doc: IdealDocument) -> str:
    out = [f"ideal {doc.name}"]
    out += ["vector " + " ".join(format_scalar(c) for c in v) for v in doc.vectors]
    out.append("end ideal")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON rendering with identical content


def _algebra_obj(doc: AlgebraDocument) -> dict:
    doc = doc.canonical()
    obj = {
        "kind": "algebra",
        "name": doc.name,
        "basis": [[lab, p] for lab, p in doc.basis],
        "bracket": [[i, j, k, format_scalar(c)] for i, j, k, c in doc.bracket],
    }
    if doc.metric_degree is not None:
        obj["metric"] = {
            "degree": doc.metric_degree,
            "entries": [[i, j, format_scalar(c)] for i, j, c in doc.metric],
        }
    return obj


def _dedup(entries, what: str):
    out = []
    seen = set()
    for entry in entries:
        key = entry[:-1]
        if key in seen:
            raise ParseError(f"duplicate {what} entry {key}")
        seen.add(key)
        if entry[-1]:
            out.append(entry)
    return tuple(sorted(out))


def _json_int(x, what: str = "index") -> int:
    """A JSON integer; bools and floats are rejected."""
    if type(x) is not int:
        raise ParseError(f"{what} must be a JSON integer, got {json.dumps(x)}")
    return x


def _json_token(x, what: str) -> str:
    """A name or basis label: a JSON string that is one text-format token,
    so that the document can be written as text and read back."""
    if not isinstance(x, str):
        raise ParseError(f"{what} must be a JSON string, got {json.dumps(x)}")
    if not is_token(x):
        raise ParseError(f"{what} {json.dumps(x)} must be nonempty, without whitespace or '#'")
    return x


def _json_scalar(c) -> Fraction:
    """A rational string or a JSON integer; never a float, whose binary value
    would be silently inexact."""
    if isinstance(c, str):
        return parse_scalar(c)
    if type(c) is not int:
        raise ParseError(f"coefficient must be a rational string or a JSON integer, got {json.dumps(c)}")
    return Fraction(c)


def _json_entry(*fields) -> tuple:
    """JSON integer indices followed by a coefficient."""
    return tuple(_json_int(i) for i in fields[:-1]) + (_json_scalar(fields[-1]),)


def _check_ranges(entries, bounds, what: str):
    for entry in entries:
        for index, bound in zip(entry, bounds):
            if not 0 <= index < bound:
                raise ParseError(f"{what} index {index} out of range", field_name=what)


def _algebra_from_obj(obj: dict) -> AlgebraDocument:
    try:
        basis = tuple((_json_token(l, "basis label"), _json_int(p, "parity")) for l, p in obj["basis"])
        bracket = _dedup([_json_entry(i, j, k, c) for i, j, k, c in obj["bracket"]], "bracket")
        degree = None
        metric = ()
        if "metric" in obj:
            degree = _json_int(obj["metric"]["degree"], "metric degree")
            metric = _dedup([_json_entry(i, j, c) for i, j, c in obj["metric"]["entries"]], "metric")
        if degree is not None and degree not in (0, 1):
            raise ParseError("metric degree must be 0 or 1")
        for _, p in basis:
            if p not in (0, 1):
                raise ParseError("parity must be 0 or 1")
        dim = len(basis)
        _check_ranges(bracket, (dim, dim, dim), "bracket")
        _check_ranges(metric, (dim, dim), "metric")
        return AlgebraDocument(_json_token(obj["name"], "name"), basis, bracket, degree, metric)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed algebra object: {exc}") from exc


def document_to_obj(doc: Document) -> dict:
    if isinstance(doc, AlgebraDocument):
        return _algebra_obj(doc)
    if isinstance(doc, ContextDocument):
        doc = doc.canonical()
        return {
            "kind": "context",
            "name": doc.name,
            "delta": doc.delta,
            "h": _algebra_obj(doc.h_doc),
            "a": _algebra_obj(doc.a_doc),
            "rho": [[x, r, c, format_scalar(v)] for x, r, c, v in doc.rho],
            "lambda": [[i, j, k, format_scalar(v)] for i, j, k, v in doc.lam],
            "omega": [[i, j, k, format_scalar(v)] for i, j, k, v in doc.omega],
        }
    return {
        "kind": "ideal",
        "name": doc.name,
        "vectors": [[format_scalar(c) for c in v] for v in doc.vectors],
    }


def document_from_obj(obj: dict) -> Document:
    kind = obj.get("kind")
    if kind == "algebra":
        return _algebra_from_obj(obj)
    if kind == "context":
        try:
            doc = ContextDocument(
                _json_token(obj["name"], "name"), _json_int(obj["delta"], "delta"),
                _algebra_from_obj(obj["h"]), _algebra_from_obj(obj["a"]),
                _dedup([_json_entry(x, r, c, v) for x, r, c, v in obj["rho"]], "rho"),
                _dedup([_json_entry(i, j, k, v) for i, j, k, v in obj["lambda"]], "lambda"),
                _dedup([_json_entry(i, j, k, v) for i, j, k, v in obj["omega"]], "omega"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed context object: {exc}") from exc
        if doc.delta not in (0, 1):
            raise ParseError("delta must be 0 or 1")
        na, nh = len(doc.a_doc.basis), len(doc.h_doc.basis)
        _check_ranges(doc.rho, (na, nh, nh), "rho")
        _check_ranges(doc.lam, (na, na, nh), "lambda")
        _check_ranges(doc.omega, (na, na, na), "omega")
        return doc
    if kind == "ideal":
        try:
            doc = IdealDocument(_json_token(obj["name"], "name"),
                                tuple(tuple(_json_scalar(c) for c in v) for v in obj["vectors"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed ideal object: {exc}") from exc
        if len({len(v) for v in doc.vectors}) > 1:
            raise ParseError("ideal vectors have inconsistent lengths")
        return doc
    raise ParseError(f"unknown document kind {kind!r}")


def serialize_document(doc: Document, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(document_to_obj(doc), sort_keys=True, separators=(",", ":")) + "\n"
    if isinstance(doc, AlgebraDocument):
        return serialize_algebra_text(doc)
    if isinstance(doc, ContextDocument):
        return serialize_context_text(doc)
    return serialize_ideal_text(doc)


def parse_document(text: str) -> Document:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.lineno) from exc
        except ValueError as exc:  # int's digit limit, the only other ValueError of json.loads
            raise ParseError("bad JSON: an integer literal has too many digits") from exc
        except RecursionError as exc:
            raise ParseError("bad JSON: nested too deeply") from exc
        return document_from_obj(obj)
    cur = _Cursor(text)
    line, fields = cur.peek()
    if fields is None:
        raise ParseError("empty document")
    head = fields[0]
    if head == "algebra":
        return parse_algebra_text(text)
    if head == "context":
        return parse_context_text(text)
    if head == "ideal":
        return parse_ideal_text(text)
    raise ParseError(f"unknown document head {head!r}", line)


# ---------------------------------------------------------------------------
# Documents <-> structures


def document_to_raw(doc: AlgebraDocument):
    """(space, bracket, form-or-None) without running any axiom checks."""
    try:
        space = SuperSpace(doc.basis)
    except ValueError as exc:
        raise ParseError(f"{exc} in {doc.name!r}") from exc
    bracket = SuperBracket.from_entries(space, doc.bracket)
    form = None
    if doc.metric_degree is not None:
        form = GradedBilinearForm.from_entries(space, doc.metric_degree, doc.metric)
    return space, bracket, form


def document_to_algebra(doc: AlgebraDocument) -> LieSuperAlgebra | QuadraticLieSuperAlgebra:
    """Construct and fully validate; ValidationError carries equation and witness."""
    _, bracket, form = document_to_raw(doc)
    algebra = LieSuperAlgebra(bracket)
    if form is None:
        return algebra
    return QuadraticLieSuperAlgebra(algebra, form)


def algebra_to_document(g: LieSuperAlgebra | QuadraticLieSuperAlgebra, name: str) -> AlgebraDocument:
    if isinstance(g, QuadraticLieSuperAlgebra):
        return AlgebraDocument(name, g.space.basis, tuple(g.bracket.entries()),
                               g.metric.degree, tuple(g.metric.entries())).canonical()
    return AlgebraDocument(name, g.space.basis, tuple(g.bracket.entries())).canonical()


def document_to_context(doc: ContextDocument) -> DeltaContext:
    h = document_to_algebra(doc.h_doc)
    if not isinstance(h, QuadraticLieSuperAlgebra):
        raise ValidationError(Violation("h-metric", (), None,
                                        "the embedded h-algebra must carry a metric"))
    if doc.a_doc.metric_degree is not None:
        raise ValidationError(Violation("a-metric", (), None,
                                        "the embedded a-algebra must not carry a metric"))
    a = document_to_algebra(doc.a_doc)
    entries = [[] for _ in range(a.dim)]  # entries[x]: the (row, col, coeff) of rho(x)
    for x, r, c, v in doc.rho:
        entries[x].append((r, c, v))
    rho = tuple(GradedLinearMap.from_entries(h.space, h.space, a.space.parity(x), e)
                for x, e in enumerate(entries))
    lam = GradedBilinearMap.from_entries(a.space, a.space, h.space, doc.lam)
    dual = p_delta_dual(a.space, doc.delta)
    omega = GradedBilinearMap.from_entries(a.space, a.space, dual, doc.omega)
    try:
        return DeltaContext(doc.delta, a, h, rho, lam, omega)
    except ValueError as exc:
        raise ParseError(f"{exc} in {doc.name!r}") from exc


def context_to_document(ctx: DeltaContext, name: str) -> ContextDocument:
    h_doc = algebra_to_document(ctx.h, "h")
    a_doc = algebra_to_document(ctx.a, "a")
    rho = tuple((i, r, c, v) for i, t in enumerate(ctx.rho) for r, c, v in t.entries())
    return ContextDocument(name, ctx.delta, h_doc, a_doc, rho,
                           tuple(ctx.lam.entries()), tuple(ctx.omega.entries())).canonical()
