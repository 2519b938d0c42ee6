"""Source hygiene: no unused imports, and no top-level definition in the
package that nothing in the package uses or exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cdstoch"
FILES = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=str,
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def unreferenced_defs(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Top-level functions and classes that no other code in sources names.

    A reference is a name or attribute read anywhere in sources outside
    the definition itself, so recursion does not count; names in exported
    (the package's ``__all__``) are kept as public API.
    """
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = stmt.name
                defined.append((module, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in used and name not in exported)


def test_scanner_flags_an_unused_import():
    src = ("from __future__ import annotations\nimport io\nimport os\n"
           "from typing import Any\n\ndef f(x: Any):\n    return os.sep\n")
    assert unused_imports(src) == ["io (line 2)"]


def test_scanner_flags_an_unreferenced_definition():
    sources = {
        "a": ("def used():\n    return 1\n\n"
              "def orphan():\n    return orphan()\n\n"
              "class Public:\n    pass\n"),
        "b": "from .a import used\n\nVALUE = used()\n",
    }
    assert unreferenced_defs(sources, set()) == ["a.Public", "a.orphan"]
    assert unreferenced_defs(sources, {"Public"}) == ["a.orphan"]


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in stmt.targets):
            return set(ast.literal_eval(stmt.value))
    return set()


def test_every_definition_is_used_or_exported():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_defs(sources, _exported()) == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
