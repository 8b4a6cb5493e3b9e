"""Bit-exact document formats for algebras, contexts and ideals.

The text format is line-oriented: whitespace-separated fields, explicit
0-based integer indices, canonical rational coefficients ("p/q" with q > 0
and reduced, plain "p" for integers). Serialisers emit entries in sorted
order and never emit zero coefficients, so serialise(parse(text)) is the
canonical form of text and parse(serialise(doc)) == doc exactly. A JSON
rendering with identical content is available for machine consumers; inputs
are auto-detected by their first character. A document's layout is written
once, as its JSON object (``document_to_obj``); the text is rendered from
that object (``_text``). An algebra document without a metric section
describes a plain Lie superalgebra.

Each reader tokenises a document in its own loop, the text reader reading
every table line by one entry rule (``_entry``), then applies the document
rules, written once for both: parity, metric degree and delta are 0 or 1,
every index read is inside its bound, a zero coefficient's too, and an
ideal's vectors have one length. A broken rule reads the same in both
syntaxes after its location: the entry's line in text, ``input`` in JSON.
JSON has two rules of its own: an object has each key of its kind, once,
and no other (an algebra's metric may be left out), and a table's entries
are arrays of the fields a text line of it holds after its key, spelt once
for both readers (``_FIELDS``). A leading byte order mark is ignored. A
document built by hand meets the range rule once made a structure.
``document_to_context`` adds that the h-algebra has a metric, the a-algebra none.

The readers keep each table as integers, ``(d, {indices: n})``; the
``Fraction`` entry tuples of the document classes are built only when read,
so a passing ``verify`` builds no ``Fraction``. Maps are made from those
integers (``from_ints``), documents made from structures keep the maps'
integer states, and the writer formats every coefficient from integers,
after one ``normalize`` per table, which refuses a float or a bool
coefficient with TypeError.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import LieSuperAlgebra, QuadraticLieSuperAlgebra, SuperBracket
from .errors import ParseError
from .extension import DeltaContext
from .linalg import Vector
from .spaces import (
    GradedBilinearForm,
    GradedBilinearMap,
    GradedLinearMap,
    SuperSpace,
    common_scale,
    is_token,
    normalize,
    out_of_range,
    p_delta_dual,
)


def format_scalar(c: Fraction) -> str:
    """An exact rational as the formats write it, "p/q" in lowest terms or
    "p"; a float or a bool raises TypeError (``linalg.scalar``)."""
    return str(linalg.scalar(c))


def _ratio_text(n: int, d: int) -> str:
    """n/d as ``format_scalar`` writes it."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def parse_scalar(text: str, line: int = 0, field_name: str = "") -> Fraction:
    """``_ratio`` as a Fraction."""
    return Fraction(*_ratio(text, line, field_name))


def _ratio(text: str, line: int = 0, field_name: str = "") -> tuple[int, int]:
    """(n, q), q > 0, of a coefficient in the one grammar (``linalg._ratio``);
    other text is a ParseError at line, exponent notation with its own message."""
    ratio = linalg._ratio(text)
    if ratio is None:
        exponent = ": exponent notation is not accepted" if "e" in text or "E" in text else ""
        raise ParseError(f"bad rational {_shown(text, repr)}{exponent}", line, field_name)
    return ratio


class _Tables:
    """A document whose coefficient tables may be kept as integers.

    A document read from text or JSON, or made from a structure, keeps each
    table named in ``_ints`` as ``(d, {indices: n})``, coefficient n/d,
    zeros allowed; the field of that name, a tuple of (*indices, Fraction)
    entries, sorted and without zeros, is built from it on first read. A
    document made with the tuples keeps them as given. Equality, hashing
    and ``repr`` read the fields. The document classes write their own
    ``__init__`` so that no field has a class-level default, which would
    hide a table not yet built from ``__getattr__``."""

    def __getattr__(self, name):
        ints = vars(self).get("_ints")
        if ints is None or name not in ints:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        d, table = ints[name]
        value = tuple(key + (Fraction(table[key], d),) for key in sorted(table) if table[key])
        object.__setattr__(self, name, value)
        return value

    def _fill(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_ints(cls, tables: dict, **fields):
        """The document with these fields and these integer tables, ``{name: (d, {indices: n})}``."""
        self = object.__new__(cls)
        self._fill(_ints=tables, **fields)
        return self

    def ints(self, key: str, bounds=None) -> tuple[int, dict]:
        """The table written under ``key`` as ``(d, {indices: n})``: as kept, its indices
        checked by its reader, or from its entries, held to the range rule if ``bounds``
        are given, through ``normalize``, where a float or bool raises TypeError."""
        name = _FIELD.get(key, key)
        ints = vars(self).get("_ints")
        if ints is not None and name in ints:
            return ints[name]
        entries = getattr(self, name)
        if bounds is not None:
            _in_range([e[:-1] for e in entries], bounds, key, self.name, _input)
        return normalize(entries, None, key)


@dataclass(frozen=True, init=False)
class AlgebraDocument(_Tables):
    name: str
    basis: tuple[tuple[str, int], ...]
    bracket: tuple[tuple[int, int, int, Fraction], ...]
    metric_degree: int | None
    metric: tuple[tuple[int, int, Fraction], ...]

    def __init__(self, name, basis, bracket, metric_degree=None, metric=()):
        self._fill(name=name, basis=basis, bracket=bracket, metric_degree=metric_degree, metric=metric)

    def canonical(self) -> "AlgebraDocument":
        return AlgebraDocument(
            self.name, self.basis,
            tuple(sorted((i, j, k, c) for i, j, k, c in self.bracket if c)),
            self.metric_degree,
            tuple(sorted((i, j, c) for i, j, c in self.metric if c)),
        )


@dataclass(frozen=True, init=False)
class ContextDocument(_Tables):
    name: str
    delta: int
    h_doc: AlgebraDocument
    a_doc: AlgebraDocument
    rho: tuple[tuple[int, int, int, Fraction], ...]     # (a-index, row, col, coeff)
    lam: tuple[tuple[int, int, int, Fraction], ...]     # (i, j, h-index, coeff)
    omega: tuple[tuple[int, int, int, Fraction], ...]   # (i, j, dual-index, coeff)

    def __init__(self, name, delta, h_doc, a_doc, rho, lam, omega):
        self._fill(name=name, delta=delta, h_doc=h_doc, a_doc=a_doc, rho=rho, lam=lam, omega=omega)

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

# the document field of each table written under another key
_FIELD = {"lambda": "lam"}

# the fields of each table's entry: a text line is the table's key and these, a JSON entry an
# array of these, and both readers' messages spell them so
_FIELDS = {"basis": ("LABEL", "PARITY"), "metric": ("I", "J", "COEFF"),
           **dict.fromkeys(("bracket", "rho", "lambda", "omega"), ("I", "J", "K", "COEFF"))}


class _Cursor:
    """The non-blank lines of a text document, comments removed, as
    (line number, fields); ``lines`` hands them out in order."""

    def __init__(self, text: str):
        lines = text.splitlines()
        if "#" in text:
            lines = [raw.split("#", 1)[0] for raw in lines]
        self.rows = [(num, fields) for num, raw in enumerate(lines, start=1) if (fields := raw.split())]
        self.lines = iter(self.rows)

    def end_of_input(self) -> ParseError:
        return ParseError("unexpected end of input", self.rows[-1][0] if self.rows else 0)

    def next(self):
        row = next(self.lines, None)
        if row is None:
            raise self.end_of_input()
        return row

    def line_of(self, head: int, end: int, keyword: str, key) -> int:
        """The line, between lines head and end, of the ``keyword`` entry with
        the indices key, or of the key-th ``keyword`` line if key is an int."""
        rows = [num for num, fields in self.rows if head < num < end and fields[0] == keyword
                and (isinstance(key, int) or tuple(map(int, fields[1:-1])) == key)]
        return rows[key if isinstance(key, int) else 0]


def _int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise ParseError(f"bad integer {_shown(tok, repr)}", line, what) from exc


def _entry(table: dict, fields: list[str], line: int, width: int) -> None:
    """The entry rule of a text table line, ``KEY I J [K] COEFF``: ``width`` fields after
    the key, integer indices not read before in ``table`` (a bad one is named i, j or k),
    then a coefficient (``_ratio``), kept in ``table`` as {indices: (n, q)}, zeros included."""
    if len(fields) != width + 1:
        raise ParseError(f"expected '{' '.join((fields[0],) + _FIELDS[fields[0]])}'", line)
    try:
        key = (int(fields[1]), int(fields[2]), int(fields[3])) if width == 4 else (int(fields[1]), int(fields[2]))
    except ValueError:
        key = tuple(_int(tok, line, what) for tok, what in zip(fields[1:-1], "ijk"))
    if key in table:
        raise ParseError(f"duplicate {fields[0]} entry {key}", line)
    table[key] = linalg._ratio(fields[-1]) or _ratio(fields[-1], line)  # the second call only raises


def _written(doc: _Tables, key: str) -> list[list]:
    """The table written under ``key`` as the writer lays it out: [*indices, text]
    in sorted order, zeros dropped, each coefficient as ``format_scalar``
    writes it; a float or bool coefficient raises TypeError (``normalize``)."""
    d, table = doc.ints(key)
    d, table = normalize(table, None, key, d)
    return [[*indices, _ratio_text(n, d)] for indices, n in table.items()]


# ---------------------------------------------------------------------------
# The document rules; ``locate(keyword, key)`` is the line a broken one names


def _input(keyword: str, key) -> int:
    """``locate`` of a JSON document: its errors point at the whole input."""
    return 0


def _bits(values, what: str, locate, keyword: str) -> None:
    """Parity, metric degree and delta are 0 or 1; value k is on the k-th ``keyword`` line."""
    if not {0, 1}.issuperset(values):
        k = next(k for k, value in enumerate(values) if value not in (0, 1))
        raise ParseError(f"{what} must be 0 or 1, got {values[k]}", locate(keyword, k))


def _in_range(keys, bounds, what: str, owner: str, locate) -> None:
    """Refuse the first index tuple of keys, in index order, outside its bounds."""
    bad = out_of_range(keys, bounds)
    if bad is not None:  # an index of None: a hand-built entry with too few or too many indices
        key, index = bad
        text = f"entry {key} needs {len(bounds)} indices" if index is None else f"index {index} out of range"
        raise ParseError(f"{what} {text} in {owner!r}", locate(what, key))


def _table(table: dict, bounds, what: str, owner: str, locate) -> tuple[int, dict]:
    """(d, {indices: n}), d the lcm of the denominators, zeros kept, of a table
    {indices: (n, q)} whose indices are all inside their bounds (``_in_range``)."""
    _in_range(table, bounds, what, owner, locate)
    d = math.lcm(*{q for _, q in table.values()})
    if d == 1:
        return 1, {key: n for key, (n, _) in table.items()}
    return d, {key: n * (d // q) for key, (n, q) in table.items()}


def _algebra_document(name: str, basis: list, degree, bracket: dict, metric: dict, locate) -> AlgebraDocument:
    _bits([p for _, p in basis], "parity", locate, "basis")
    if degree is not None:
        _bits((degree,), "metric degree", locate, "metric-degree")
    dim = len(basis)
    tables = {"bracket": _table(bracket, (dim, dim, dim), "bracket", name, locate),
              "metric": _table(metric, (dim, dim), "metric", name, locate)}
    return AlgebraDocument.from_ints(tables, name=name, basis=tuple(basis), metric_degree=degree)


def _context_document(name: str, delta: int, h_doc, a_doc, tables: dict, locate) -> ContextDocument:
    """``tables``: rho, lambda and omega, in that order, as {indices: (n, q)}."""
    _bits((delta,), "delta", locate, "delta")
    na, nh = len(a_doc.basis), len(h_doc.basis)
    bounds = {"rho": (na, nh, nh), "lambda": (na, na, nh), "omega": (na, na, na)}
    ints = {_FIELD.get(key, key): _table(table, bounds[key], key, name, locate) for key, table in tables.items()}
    return ContextDocument.from_ints(ints, name=name, delta=delta, h_doc=h_doc, a_doc=a_doc)


def _ideal_document(name: str, vectors: list, locate) -> IdealDocument:
    for k, v in enumerate(vectors):
        if len(v) != len(vectors[0]):
            raise ParseError("ideal vectors have inconsistent lengths", locate("vector", k))
    return IdealDocument(name, tuple(vectors))


def _head(cur: _Cursor, kind: str, value: str = "NAME") -> tuple[int, str]:
    """The next line, which must read ``kind value``: its number and its value."""
    line, fields = cur.next()
    if fields[0] != kind or len(fields) != 2:
        raise ParseError(f"expected '{kind} {value}'", line)
    return line, fields[1]


def _parse_algebra(cur: _Cursor) -> AlgebraDocument:
    head, name = _head(cur, "algebra")
    basis: list[tuple[str, int]] = []
    metric_degree: int | None = None
    bracket: dict[tuple[int, ...], tuple[int, int]] = {}
    metric: dict[tuple[int, ...], tuple[int, int]] = {}
    for line, fields in cur.lines:
        key = fields[0]
        if key == "bracket":
            _entry(bracket, fields, line, 4)
        elif key == "metric":
            if metric_degree is None:
                raise ParseError("'metric' entries must follow 'metric-degree'", line)
            _entry(metric, fields, line, 3)
        elif key == "basis":
            if len(fields) != 3:
                raise ParseError(f"expected 'basis {' '.join(_FIELDS['basis'])}'", line)
            basis.append((fields[1], _int(fields[2], line, "parity")))
        elif key == "metric-degree":
            if len(fields) != 2 or metric_degree is not None:
                raise ParseError("expected a single 'metric-degree D'", line)
            metric_degree = _int(fields[1], line, "degree")
        elif key == "end":
            if fields != ["end", "algebra"]:
                raise ParseError("expected 'end algebra'", line)
            break
        else:
            raise ParseError(f"unknown algebra line {_shown(key, repr)}", line)
    else:
        raise cur.end_of_input()
    return _algebra_document(name, basis, metric_degree, bracket, metric, functools.partial(cur.line_of, head, line))


def _parse_context(cur: _Cursor) -> ContextDocument:
    head, name = _head(cur, "context")
    line, text = _head(cur, "delta", "D")
    delta = _int(text, line, "delta")
    parts = []
    for part in ("h-algebra", "a-algebra"):
        line, fields = cur.next()
        if fields != [part]:
            raise ParseError(f"expected '{part}'", line)
        parts.append(_parse_algebra(cur))
    h_doc, a_doc = parts
    tables: dict[str, dict] = {"rho": {}, "lambda": {}, "omega": {}}
    for line, fields in cur.lines:
        key = fields[0]
        table = tables.get(key)
        if table is None:
            if key != "end":
                raise ParseError(f"unknown context line {_shown(key, repr)}", line)
            if fields != ["end", "context"]:
                raise ParseError("expected 'end context'", line)
            break
        _entry(table, fields, line, 4)
    else:
        raise cur.end_of_input()
    return _context_document(name, delta, h_doc, a_doc, tables, functools.partial(cur.line_of, head, line))


def _parse_ideal(cur: _Cursor) -> IdealDocument:
    head, name = _head(cur, "ideal")
    vectors: list[Vector] = []
    for line, fields in cur.lines:
        if fields == ["end", "ideal"]:
            break
        if fields[0] != "vector":
            raise ParseError("expected 'vector C0 C1 ...' or 'end ideal'", line)
        vectors.append(tuple([parse_scalar(t, line) for t in fields[1:]]))
    else:
        raise cur.end_of_input()
    return _ideal_document(name, vectors, functools.partial(cur.line_of, head, line))


# ---------------------------------------------------------------------------
# JSON rendering with identical content


# the keys of each kind of JSON object, each required but an algebra's "metric"; any
# other is refused, as the text reader refuses a line it does not know
_JSON_KEYS = {"algebra": ("kind", "name", "basis", "bracket", "metric"), "metric": ("degree", "entries"),
              "context": ("kind", "name", "delta", "h", "a", "rho", "lambda", "omega"),
              "ideal": ("kind", "name", "vectors")}


def _dedup(pairs: list, message: str) -> dict:
    """dict(pairs), whose keys must differ: the first repeated one is refused, formatted into ``message``."""
    table = dict(pairs)
    if len(table) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(message.format(_shown(key, repr)))
            seen.add(key)
    return table


# json alone would keep the last value of a key written twice in an object
_DECODER = json.JSONDecoder(object_pairs_hook=functools.partial(_dedup, message="duplicate key {} in a JSON object"))


def _shown(x, form=json.dumps) -> str:
    """A value as a message echoes it: ``form(x)``, its JSON unless given, cut after 60 characters to end in '...'."""
    text = form(x)
    return text if len(text) <= 60 else text[:57] + "..."


def _json_object(x, kind: str) -> dict:
    """The object rule: a JSON object with each key of its kind, once (``_DECODER``), and no other."""
    if type(x) is not dict:
        raise ParseError(f"{kind} must be a JSON object, got {_shown(x)}")
    keys = _JSON_KEYS[kind]
    for key in x:
        if key not in keys:
            raise ParseError(f"unknown {kind} key {_shown(key, repr)}")
    for key in keys:
        if key not in x and key != "metric":
            raise ParseError(f"missing {kind} key {key!r}")
    return x


def _json_int(x, what: str = "index") -> int:
    """A JSON integer; bools and floats are rejected."""
    if type(x) is not int:
        raise ParseError(f"{what} must be a JSON integer, got {_shown(x)}")
    return x


def _json_array(x, what: str) -> list:
    """A JSON array; a string or an object, which would iterate as one, is rejected."""
    if type(x) is not list:
        raise ParseError(f"{what} must be a JSON array, got {_shown(x)}")
    return x


def _json_token(x, what: str) -> str:
    """A name or basis label: a JSON string that is one text-format token,
    so that the document can be written as text and read back."""
    if not isinstance(x, str):
        raise ParseError(f"{what} must be a JSON string, got {_shown(x)}")
    if not is_token(x):
        raise ParseError(f"{what} {_shown(x)} must be nonempty, without whitespace or '#'")
    return x


def _json_ratio(c) -> tuple[int, int]:
    """A rational string or a JSON integer, as ``_ratio`` gives it; never a
    float, whose binary value would be silently inexact."""
    if isinstance(c, str):
        return _ratio(c)
    if type(c) is not int:
        raise ParseError(f"coefficient must be a rational string or a JSON integer, got {_shown(c)}")
    return c, 1


def _json_entry(indices: tuple, c) -> tuple:
    """(indices, (n, q)) of one JSON entry: integer indices, then an
    exact coefficient."""
    for i in indices:
        if type(i) is not int:
            _json_int(i)  # raises, naming the value
    return indices, _ratio(c) if type(c) is str else _json_ratio(c)  # the writer's strings without a second call


def _json_table(x, name: str, what: str = ""):
    """The entry rule: table ``name`` (``what`` if given) is a JSON array of arrays of its width.
    The rows are unpacked as they are read; the first that breaks the rule is looked for only when
    that fails. The basis reads as (label, parity) pairs, any other table as {indices: (n, q)},
    a repeated index tuple refused."""
    rows = _json_array(x, what or name)
    if set(map(type, rows)) <= {list}:  # a string or an object would unpack as an entry
        try:
            if name == "basis":
                return [(_json_token(l, "basis label"), _json_int(p, "parity")) for l, p in rows]
            entries = ([_json_entry((i, j), c) for i, j, c in rows] if name == "metric" else
                       [_json_entry((i, j, k), c) for i, j, k, c in rows])
        except ValueError:  # an entry of another width
            pass
        else:
            return _dedup(entries, f"duplicate {name} entry {{}}")
    fields = _FIELDS[name]
    k = next(k for k, row in enumerate(rows) if type(row) is not list or len(row) != len(fields))
    raise ParseError(f"{name} entry {k} must be [{', '.join(fields)}], got {_shown(rows[k])}")


def _algebra_from_obj(obj, field: str = "") -> AlgebraDocument:
    """An algebra object: the document, or the field ``field`` of a context
    object, which every error raised while reading it then names."""
    try:
        if type(obj) is not dict:
            raise ParseError(f"expected an algebra object, got {_shown(obj)}")
        if obj.get("kind", "algebra") != "algebra":  # a missing kind is the object rule's to name
            raise ParseError(f"expected an algebra object, got kind {_shown(obj['kind'])}")
        _json_object(obj, "algebra")
        name = _json_token(obj["name"], "name")
        basis = _json_table(obj["basis"], "basis")
        bracket = _json_table(obj["bracket"], "bracket")
        degree, metric = None, {}
        if "metric" in obj:
            m = _json_object(obj["metric"], "metric")
            degree = _json_int(m["degree"], "metric degree")
            metric = _json_table(m["entries"], "metric", "metric entries")
        return _algebra_document(name, basis, degree, bracket, metric, _input)
    except ParseError as exc:
        exc.field_name = exc.field_name or field
        raise


def document_to_obj(doc: Document) -> dict:
    """The one layout of a document: its JSON object, whose keys are in the
    order of the text lines that ``_text`` renders from it."""
    if isinstance(doc, AlgebraDocument):
        obj = {"kind": "algebra", "name": doc.name, "basis": [[lab, p] for lab, p in doc.basis],
               "bracket": _written(doc, "bracket")}
        if doc.metric_degree is not None:
            obj["metric"] = {"degree": doc.metric_degree, "entries": _written(doc, "metric")}
        return obj
    if isinstance(doc, ContextDocument):
        return {"kind": "context", "name": doc.name, "delta": doc.delta, "h": document_to_obj(doc.h_doc),
                "a": document_to_obj(doc.a_doc), **{key: _written(doc, key) for key in ("rho", "lambda", "omega")}}
    return {"kind": "ideal", "name": doc.name, "vectors": [[format_scalar(c) for c in v] for v in doc.vectors]}


def _lines(key: str, rows: list) -> list[str]:
    """A text line per entry of table ``key``: the key, then the entry's fields."""
    line = key + " %s" * len(_FIELDS[key])
    return [line % tuple(row) for row in rows]


def _text(obj: dict) -> list[str]:
    """The text lines of a document object, in its keys' order: ``KIND NAME``;
    a line per table entry, its key (``vector`` for ``vectors``) then its
    fields; ``delta D``; ``metric-degree D`` before the metric's entries;
    ``h-algebra`` or ``a-algebra`` before that algebra's lines; ``end KIND``."""
    out = [f"{obj['kind']} {obj['name']}"]
    for key, value in obj.items():
        if key in ("h", "a"):
            out.append(f"{key}-algebra")
            out += _text(value)
        elif key == "metric":
            out.append(f"metric-degree {value['degree']}")
            out += _lines("metric", value["entries"])
        elif key == "vectors":
            out += ["vector " + " ".join(v) for v in value]
        elif key in _FIELDS:
            out += _lines(key, value)
        elif key == "delta":
            out.append(f"delta {value}")
    out.append(f"end {obj['kind']}")
    return out


def document_from_obj(obj: dict) -> Document:
    kind = obj.get("kind")
    if kind == "algebra":
        return _algebra_from_obj(obj)
    if kind == "context":
        _json_object(obj, "context")
        name, delta = _json_token(obj["name"], "name"), _json_int(obj["delta"], "delta")
        h_doc, a_doc = _algebra_from_obj(obj["h"], "h"), _algebra_from_obj(obj["a"], "a")
        tables = {key: _json_table(obj[key], key) for key in ("rho", "lambda", "omega")}
        return _context_document(name, delta, h_doc, a_doc, tables, _input)
    if kind == "ideal":
        _json_object(obj, "ideal")
        name = _json_token(obj["name"], "name")
        vectors = [tuple(Fraction(*_json_ratio(c)) for c in _json_array(v, f"ideal vector {r}"))
                   for r, v in enumerate(_json_array(obj["vectors"], "vectors"))]
        return _ideal_document(name, vectors, _input)
    if "kind" not in obj:
        raise ParseError("missing document key 'kind'")
    raise ParseError(f"unknown document kind {_shown(kind)}")


def serialize_document(doc: Document, fmt: str = "text") -> str:
    obj = document_to_obj(doc)
    if fmt == "json":
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    return "\n".join(_text(obj)) + "\n"


def parse_document(text: str) -> Document:
    text = text.removeprefix("\ufeff")  # the byte order mark that some editors write first
    if text.lstrip().startswith(("{", "[")):
        try:
            obj = _DECODER.decode(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.lineno) from exc
        except ValueError as exc:  # int's digit limit, the only other ValueError of decode
            raise ParseError("bad JSON: an integer literal has too many digits") from exc
        except RecursionError as exc:
            raise ParseError("bad JSON: nested too deeply") from exc
        if not isinstance(obj, dict):
            raise ParseError("bad JSON: a document must be a JSON object")
        return document_from_obj(obj)
    cur = _Cursor(text)
    if not cur.rows:
        raise ParseError("empty document")
    line, fields = cur.rows[0]
    parse = {"algebra": _parse_algebra, "context": _parse_context, "ideal": _parse_ideal}.get(fields[0])
    if parse is None:
        raise ParseError(f"unknown document head {_shown(fields[0], repr)}", line)
    doc = parse(cur)
    row = next(cur.lines, None)
    if row is not None:
        raise ParseError(f"trailing content after 'end {fields[0]}'", row[0])
    return doc


# ---------------------------------------------------------------------------
# Documents <-> structures


def document_to_raw(doc: AlgebraDocument):
    """(space, bracket, form-or-None) without running any axiom checks; the
    maps are built from the document's integer tables."""
    try:
        space = SuperSpace(doc.basis)
    except ValueError as exc:
        raise ParseError(f"{exc} in {doc.name!r}") from exc
    bracket = SuperBracket.from_ints(space, *doc.ints("bracket", (space.dim,) * 3))
    form = None
    if doc.metric_degree is not None:
        form = GradedBilinearForm.from_ints(space, doc.metric_degree, *doc.ints("metric", (space.dim,) * 2))
    return space, bracket, form


def document_to_algebra(doc: AlgebraDocument) -> LieSuperAlgebra | QuadraticLieSuperAlgebra:
    """Construct and fully validate; ValidationError carries equation and witness."""
    _, bracket, form = document_to_raw(doc)
    algebra = LieSuperAlgebra(bracket)
    if form is None:
        return algebra
    return QuadraticLieSuperAlgebra(algebra, form)


def algebra_to_document(g: LieSuperAlgebra | QuadraticLieSuperAlgebra, name: str) -> AlgebraDocument:
    if g.proof is None:  # not an assert: the refusal holds under python -O
        raise AssertionError("an algebra with no record is not written")
    if isinstance(g, QuadraticLieSuperAlgebra):
        return AlgebraDocument.from_ints({"bracket": g.bracket.scaled_table(), "metric": g.metric.scaled_table()},
                                         name=name, basis=g.space.basis, metric_degree=g.metric.degree)
    return AlgebraDocument.from_ints({"bracket": g.bracket.scaled_table(), "metric": (1, {})},
                                     name=name, basis=g.space.basis, metric_degree=None)


def document_to_context(doc: ContextDocument) -> DeltaContext:
    """The context of doc, whose h-algebra has a metric and whose a-algebra has none."""
    if doc.h_doc.metric_degree is None or doc.a_doc.metric_degree is not None:
        raise ParseError("a context needs a metric-degree on its h-algebra and none on its a-algebra")
    h, a = document_to_algebra(doc.h_doc), document_to_algebra(doc.a_doc)
    d, table = doc.ints("rho", (a.dim, h.dim, h.dim))
    tables = [{} for _ in range(a.dim)]  # tables[x]: the {(row, col): n} of rho(x)
    for (x, r, c), n in table.items():
        tables[x][r, c] = n
    rho = tuple(GradedLinearMap.from_ints(h.space, h.space, a.space.parity(x), d, t)
                for x, t in enumerate(tables))
    lam = GradedBilinearMap.from_ints(a.space, a.space, h.space, *doc.ints("lambda", (a.dim, a.dim, h.dim)))
    dual = p_delta_dual(a.space, doc.delta)
    omega = GradedBilinearMap.from_ints(a.space, a.space, dual, *doc.ints("omega", (a.dim,) * 3))
    try:
        return DeltaContext(doc.delta, a, h, rho, lam, omega)
    except ValueError as exc:
        raise ParseError(f"{exc} in {doc.name!r}") from exc


def context_to_document(ctx: DeltaContext, name: str) -> ContextDocument:
    d, cols = common_scale(t.scaled_columns for t in ctx.rho)
    rho = {(x, r, c): n for x, t in enumerate(cols) for c, col in enumerate(t) for r, n in col.items()}
    tables = {"rho": (d, rho), "lam": ctx.lam.scaled_table(), "omega": ctx.omega.scaled_table()}
    return ContextDocument.from_ints(tables, name=name, delta=ctx.delta, h_doc=algebra_to_document(ctx.h, "h"),
                                     a_doc=algebra_to_document(ctx.a, "a"))
