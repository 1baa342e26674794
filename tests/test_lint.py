"""Lint: every module-level import is used by some name in its file,
every private module-level name of the library is read somewhere in it,
and the library imports nothing inside a function.

Covers the library modules (``__init__.py`` only re-exports) and the test
files, with the stdlib ``ast`` module alone: a name bound by a top-level
``import`` or ``from ... import`` must be read somewhere in the file, and a
function, class or constant that a library module defines at top level
under a ``_`` name must be read, as a name or an attribute, somewhere in
``src/iufst``.  ``src/iufst`` has no function-level import: each module
imports only modules it builds on, at the top.  No test file imports through
a ``tests.`` package path, which only resolves with the checkout on
``sys.path``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "iufst").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by ``source``'s top-level imports that no name in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, os.path as osp\nfrom re import match\nmatch\n"
    assert unused_imports(source) == ["os", "osp"]


def unused_private(sources: list[str]) -> list[str]:
    """The ``_`` names that ``sources`` define at top level (``def``,
    ``class``, assignment) and that no name or attribute in any of them reads."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for tgt in targets for n in ast.walk(tgt) if isinstance(n, ast.Name)]
    read = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return [name for name in defined if name.startswith("_") and not name.startswith("__")
            and name not in read]


def test_no_unused_private_names():
    library = sorted((ROOT / "src" / "iufst").glob("*.py"))
    assert unused_private([p.read_text(encoding="utf-8") for p in library]) == []


def test_finds_an_unused_private_name():
    sources = ["_A = 1\n_B: int = 2\ndef _f(): return _A\nclass _C: pass\n__all__ = []\n",
               "from m import _f\n_f()\n"]
    assert unused_private(sources) == ["_B", "_C"]


def function_imports(source: str) -> list[str]:
    """The imports of ``source`` made inside a function or lambda, as
    ``ast.unparse`` writes them, in sorted order."""
    tree = ast.parse(source)
    inner = {node for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted(map(ast.unparse, inner))


def test_one_function_level_import():
    # the lane route lives in core, which imports no module of the library,
    # so every import of the library is at the top
    library = sorted((ROOT / "src" / "iufst").glob("*.py"))
    found = {p.name: function_imports(p.read_text(encoding="utf-8")) for p in library}
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_finds_function_level_imports():
    source = ("import os\ndef f():\n    def g():\n        from re import match\n"
              "    if os:\n        import sys\nclass C:\n    def m(self):\n        import json\n")
    assert function_imports(source) == ["from re import match", "import json", "import sys"]


def from_tests_package(source: str) -> list[str]:
    """The imports of ``source``, at any depth, from the ``tests`` package,
    as ``ast.unparse`` writes them, in sorted order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.partition(".")[0] == "tests" for name in names):
            found.append(node)
    return sorted(map(ast.unparse, found))


def test_no_tests_package_imports():
    # the ``pytest`` entry point puts tests/ on sys.path, not the checkout:
    # a test imports another as a top-level module (``from test_core import ...``)
    tests = sorted((ROOT / "tests").glob("*.py"))
    found = {p.name: from_tests_package(p.read_text(encoding="utf-8")) for p in tests}
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_finds_tests_package_imports():
    source = ("import tests.conftest\nfrom test_core import m\nfrom . import n\n"
              "def f():\n    from tests.test_core import g\n")
    assert from_tests_package(source) == ["from tests.test_core import g", "import tests.conftest"]
