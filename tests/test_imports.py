"""Every module of the package except ``__init__`` uses each name it imports."""

import ast
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
