"""Every module of the package except ``__init__`` uses each name it
imports, every definition in it is reached from the package itself, and
no handler in it catches Python's KeyError or TypeError."""

import ast
import re
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superquad"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_is_reported():
    source = "from .algebra import cyclic_residual, is_derivation\n\nis_derivation(1)\n"
    assert unused_imports(source) == ["line 1: cyclic_residual"]


def python_error_handlers(source: str) -> list[str]:
    """The ``except`` clauses of source that name KeyError or TypeError, as
    ``line N``: such a handler turns a Python error into a result or a
    parse error whose text is Python's, where each refusal should be a rule
    of the package's own."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and {"KeyError", "TypeError"} & {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}]


def test_no_handler_catches_key_or_type_errors():
    found = {p.name: python_error_handlers(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_python_error_handler_is_reported():
    source = ("try:\n    f()\nexcept (KeyError, ValueError):\n    pass\n"
              "try:\n    f()\nexcept ValueError:\n    pass\nexcept TypeError as exc:\n    raise\n"
              "try:\n    f()\nexcept:\n    raise\n")
    assert python_error_handlers(source) == ["line 3", "line 9"]


# Definitions that nothing in src/ refers to, each with the file that keeps
# it there: a benchmark file that imports, traces or calls it (among them
# the central extension, Theta and the semi-direct product, whose tables
# ``extension_bracket`` assembles in one place; xi of any ideal and
# complement, which decompose fixes by the Witt pairing instead; the
# Heisenberg family's explicit-row constructor, the reference its context
# is tested against; and the structural comparison of two contexts), or
# README's "Public API" section, which names the dense view ``matrix``.
KEPT = {**dict.fromkeys(("rref", "table", "in_span", "solve", "semidirect_product", "central_extension",
                         "extension_derivations", "build_xi"), "perfbench/tracer.py"),
        **dict.fromkeys(("mat", "mat_vec", "mat_mul", "mat_add", "mat_scale", "zero_mat", "identity_mat",
                         "nullspace", "canonical"),
                        "perfbench/gen.py"),
        "heisenberg_extension": "perfbench/test_perfbench.py",
        "contexts_equal": "perfbench/run.py",
        "matrix": "README API"}


def unreached(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes of the modules other than
    ``__init__`` that no ``Name`` or ``Attribute`` outside their own
    definition refers to, and methods (dunders aside) that no ``Attribute``
    outside their own definition refers to, as ``module:name``. A method is
    resolved by owner where the receiver says which class it is on:
    ``self.m`` or ``cls.m`` in the body of class C reaches only the m of C,
    of its bases and of its subclasses, and ``C.m`` only the m of C and of
    its bases. Any other ``x.m`` matches every method m by name, so a name
    that two definitions share, such as ``rank``, counts as reached for
    both. An ``__init__`` export, which is an import, reaches nothing."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = {node.name: node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = {name: {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases} & set(classes)
             for name, node in classes.items()}

    def above(name) -> set:
        return {name}.union(*(above(b) for b in bases[name]))

    owner = {id(n): name for name, node in classes.items() for n in ast.walk(node)}
    refs = []  # (name, the classes it may resolve to or None for any, node)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                refs.append((n.id, None, n))
            elif isinstance(n, ast.Attribute):
                receiver = getattr(n.value, "id", None)
                if receiver in ("self", "cls") and id(n) in owner:
                    c = owner[id(n)]
                    owners = above(c) | {d for d in classes if c in above(d)}
                else:
                    owners = above(receiver) if receiver in classes else None
                refs.append((n.attr, owners, n))
    out = []
    for module, tree in trees.items():
        for node in tree.body if module != "__init__" else ():
            defs = []  # (qualified name, definition, the owner a method is on, None for a top-level one)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node, None))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m, node.name) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
            for name, d, cls in defs:
                inside = {id(n) for n in ast.walk(d)}
                if not any(ref == d.name and id(n) not in inside and (
                        cls is None or (isinstance(n, ast.Attribute) and (owners is None or cls in owners)))
                        for ref, owners, n in refs):
                    out.append(f"{module}:{name}")
    return out


def test_every_definition_is_reached_or_kept():
    """No function, class or method in src/ is there only for the tests."""
    found = unreached({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))})
    assert {name.split(":")[1].split(".")[-1] for name in found} == set(KEPT), found
    assert set(KEPT.values()) <= {"perfbench/gen.py", "perfbench/tracer.py", "perfbench/test_perfbench.py",
                                  "perfbench/run.py", "README API"}


def test_public_names_are_in_readme():
    """README names, in backticks, every export of the package and every
    definition ``KEPT`` for the reason "README API"."""
    import superquad

    readme = (PACKAGE.parent.parent / "README.md").read_text()
    names = [*superquad.__all__, *(name for name, reason in KEPT.items() if reason == "README API")]
    assert [name for name in names if f"`{name}`" not in readme] == []


# Names README's "Public API" section may put in backticks without the
# package defining them: Python's own, and the parity-shift notation P(T).
README_ONLY = {"Fraction", "ValueError", "P"}


def defined_names(sources) -> set[str]:
    """Every name the package binds, by AST: its modules, classes,
    functions and methods, parameters, and assigned names, among them
    fields, properties and module constants."""
    out = {"superquad"}
    for module, source in sources.items():
        out.add(module)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, ast.arg):
                out.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                out.add(node.id)
    return out


def undefined_api_names(readme: str, defined: set[str]) -> list[str]:
    """The names in backticks in README's "Public API" section that
    ``defined`` lacks: each span that is a dotted name, alone or called
    (``decompose(g, ideal)``), gives each of its parts."""
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    spans = (re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span) for span in re.findall(r"`([^`]+)`", section))
    return sorted({part for m in spans if m for part in m.group(1).split(".")} - defined)


def test_readme_api_names_are_defined():
    """No name in README's "Public API" outlives its definition."""
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    defined = defined_names({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))})
    assert undefined_api_names(readme, defined | README_ONLY) == []


def test_undefined_api_name_is_reported():
    readme = ("# t\n\n## Public API\n\n`superquad.spaces`: `GradedLinearMap`, its `apply_sparse` and `matrix`, "
              "`decompose(g, source=None)`, the claim `isometry-metric`, `P(T)` and `{k: n}`.\n\n## Next\n`gone`\n")
    defined = defined_names({"spaces": "class GradedLinearMap:\n    matrix = None\n",
                             "decompose": "def decompose(g, *, source=None):\n    pass\n"})
    assert undefined_api_names(readme, defined) == ["P", "apply_sparse"]
    assert undefined_api_names(readme, defined | README_ONLY) == ["apply_sparse"]


def test_unreached_definition_is_reported():
    sources = {
        "__init__": "from .a import f, g, C\n",
        "b": "from .a import g\n\ng()\n",
        "a": "def f():\n    return f()\n\n\ndef g():\n    return C().used()\n\n\n"
             "class C:\n    def used(self):\n        return 1\n\n    def unused(self):\n        return self.unused()\n",
    }
    assert unreached(sources) == ["a:f", "a:C.unused"]


def test_method_is_resolved_by_owner():
    """D and E share ``shared`` and ``made``. Only D calls its ``shared``,
    through ``self``, and only E's ``made`` is called, as ``E.made``; so
    E's ``shared`` and D's ``made`` are unreached. ``self.base`` in the
    subclass F reaches D's ``base``, and ``F.more`` F's own ``more``."""
    sources = {
        "a": "class D:\n    def shared(self):\n        return 1\n\n    def go(self):\n        return self.shared()\n\n"
             "    def made(self):\n        return 2\n\n    def base(self):\n        return 3\n\n\n"
             "class E:\n    def shared(self):\n        return 4\n\n    def made(self):\n        return 5\n\n\n"
             "class F(D):\n    def more(self):\n        return self.base()\n",
        "b": "from .a import D, E, F\n\nD().go() + E.made(None) + F.more(None)\n",
    }
    assert unreached(sources) == ["a:D.made", "a:E.shared"]


def test_submodules_are_not_shadowed_by_package_exports():
    """``import superquad.X as m`` and ``from superquad import X`` give the
    module for every submodule: the package binds no other value to its name."""
    import importlib
    import types

    import superquad
    import superquad.decompose as dec

    assert isinstance(dec, types.ModuleType) and dec.decompose.__module__ == "superquad.decompose"
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"superquad.{path.stem}")
            assert getattr(superquad, path.stem) is module


ALGEBRA_TYPES = {"LieSuperAlgebra", "QuadraticLieSuperAlgebra"}


def kernel_escapes(source: str) -> list[str]:
    """The builds of an algebra that skip its scans, ``object.__new__`` of
    either algebra type, and the writes of ``proof``, an assignment to the
    attribute or a ``__setattr__`` or ``setattr`` that names it, in source,
    each as ``F:line N``, F the top-level definition around it, in line order."""
    out = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func, args = node.func, node.args
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                built = (name == "__new__" and isinstance(func, ast.Attribute)
                         and getattr(func.value, "id", "") == "object"
                         and args and getattr(args[0], "id", "") in ALGEBRA_TYPES)
                written = (name in ("__setattr__", "setattr") and len(args) > 1
                           and isinstance(args[1], ast.Constant) and args[1].value == "proof")
                if built or written:
                    out.append((node.lineno, where))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in getattr(node, "targets", None) or [node.target]:
                    if (isinstance(target, ast.Attribute) and target.attr == "proof") or (
                            isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Constant)
                            and target.slice.value == "proof"):
                        out.append((node.lineno, where))
    return [f"{where}:line {line}" for line, where in sorted(out)]


def test_only_the_kernel_builds_unscanned_or_writes_a_record():
    """``algebra._admit`` is the trusted kernel: no other code builds an
    algebra without its scans or writes the record of how it was certified,
    and the kernel it replaced is gone."""
    found = {p.name: kernel_escapes(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: {line.split(":")[0] for line in lines} for name, lines in found.items() if lines} == {
        "algebra.py": {"_admit"}}
    assert len(found["algebra.py"]) == 3  # the two builds and the one write
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if "_by_transport" in p.read_text()] == []


def test_kernel_escape_is_reported():
    source = ("class A:\n    proof: tuple = None\n\n\n"
              "def f(x):\n    out = object.__new__(LieSuperAlgebra)\n    object.__setattr__(out, 'proof', 1)\n"
              "    x.proof = 2\n    vars(x)['proof'] = 3\n    setattr(x, 'proof', 4)\n    return object.__new__(C)\n\n\n"
              "g = object.__new__(QuadraticLieSuperAlgebra)\n")
    assert kernel_escapes(source) == ["f:line 6", "f:line 7", "f:line 8", "f:line 9", "f:line 10",
                                      "<module>:line 14"]
