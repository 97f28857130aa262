"""Every name a module of the package imports is used in that module,
every name a module defines is read somewhere in the repository, and no
module but `pipeline.py` imports `gc`.

`__init__.py` is left out of both: its imports are the package's
re-exports, and a re-export is not a read.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import precursor

INIT = Path(precursor.__file__)
MODULES = sorted(path for path in INIT.parent.glob("*.py") if path != INIT)
ROOT = Path(__file__).resolve().parents[1]
# the package's modules and every script that may read what they define
READERS = MODULES + sorted(
    path for folder in ("demos", "perfbench", "tests")
    for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The imported names that no expression of the module reads, each as
    "name (line n)"; a dotted `import a.b` binds, and is read as, `a`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field, fields\n"
              "from typing import Sequence\n\n"
              "@dataclass\nclass A:\n    x: Sequence = field(default=())\n"
              "print(np.pi)\n")
    assert unused_imports(source) == ["os (line 2)", "fields (line 4)"]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules the source imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", [INIT] + MODULES, ids=lambda path: path.name)
def test_only_the_pipeline_touches_the_collector(path):
    # run_pipeline pauses it once per run; library code leaves process-wide
    # state alone
    imports_gc = "gc" in imported_modules(path.read_text(encoding="utf-8"))
    assert imports_gc == (path.name == "pipeline.py")


def test_imported_modules_are_found():
    source = ("import gc, os.path\nfrom json import dumps\nfrom . import x\n"
              "from .corpus import y\ndef f():\n    from gc import collect\n")
    assert imported_modules(source) == {"gc", "os", "json"}


def definitions(source: str) -> dict[str, int]:
    """The names the module's top-level statements define (functions,
    classes and assigned names), each with its line; dunder names such as
    `__version__` are read by tools, not code, and are left out."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined.update((name.id, node.lineno) for target in targets
                           for name in ast.walk(target)
                           if isinstance(name, ast.Name))
    return {name: line for name, line in defined.items()
            if not (name.startswith("__") and name.endswith("__"))}


def names_read(source: str) -> set[str]:
    """The names an expression of the module reads: a bare name, or an
    attribute taken from anything (`module.name`)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """The names the module defines that are not in `read`, each as
    "name (line n)"."""
    return [f"{name} (line {line})"
            for name, line in definitions(source).items() if name not in read]


@pytest.fixture(scope="module")
def read_anywhere():
    read = set()
    for path in READERS:
        read |= names_read(path.read_text(encoding="utf-8"))
    return read


@pytest.mark.parametrize("path", [INIT] + MODULES, ids=lambda path: path.name)
def test_module_defines_only_names_read_somewhere(path, read_anywhere):
    assert unread_definitions(path.read_text(encoding="utf-8"),
                              read_anywhere) == []


def test_unread_definitions_are_found():
    source = ("import os\n"
              "LIMIT = 3\nA, (B, C) = 1, (2, 3)\nD: int = 4\n"
              "__version__ = '1'\n"
              "def used():\n    return LIMIT + os.sep\n"
              "def unused(x=B):\n    return used()\n"
              "class Kept:\n    attr = 1\n"
              "class Dropped:\n    pass\n"
              "print(Kept.attr, C)\n")
    read = names_read(source) | names_read("import m\nm.D\n")
    assert unread_definitions(source, read) == [
        "A (line 3)", "unused (line 8)", "Dropped (line 12)"]


@pytest.mark.parametrize("name", ["checks", "tracing", "oracle"])
def test_benchmark_modules_import(name, monkeypatch):
    # the benchmark's modules read names such as `build_dyad_context`,
    # `scoring.EXACT_LIMIT`, `read_topics_artifact` and `LoadReport` when
    # imported; otherwise only a benchmark run would see one of them go
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, name, raising=False)
    importlib.import_module(name)
