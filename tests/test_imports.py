"""Source hygiene: every name a library module imports is used in that module,
every name in a module's ``__all__`` is defined there, and the package exports
exactly the module lists.

No linter ships with the project, so this walks each module's syntax tree
with the standard library. ``__init__.py`` is skipped because its imports are
the package's re-exports, and ``from __future__`` imports are directives.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ionseries"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_guard_flags_an_unused_name():
    source = "import os\nfrom typing import List, Optional\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["List"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_names(source: str):
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


EXPORTING = [p for p in MODULES if "__all__" in top_level_names(p.read_text(encoding="utf-8"))]


@pytest.mark.parametrize("path", EXPORTING, ids=[p.name for p in EXPORTING])
def test_module_exports_are_defined_there(path):
    module = importlib.import_module(f"ionseries.{path.stem}")
    assert set(module.__all__) <= top_level_names(path.read_text(encoding="utf-8"))


def test_package_exports_are_the_module_lists():
    import ionseries

    modules = ("errors", "model", "series", "rwa", "oracle", "states")
    expected = ["__version__"]
    for name in modules:
        expected += importlib.import_module(f"ionseries.{name}").__all__
    assert [p.stem for p in EXPORTING] == sorted(modules)
    assert ionseries.__all__ == expected
    assert all(hasattr(ionseries, name) for name in ionseries.__all__)
