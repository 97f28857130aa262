"""Every name a module of the package imports is used in that module.

`__init__.py` is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import precursor

MODULES = sorted(path for path in Path(precursor.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


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
