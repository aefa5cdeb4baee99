"""Every name a module of the package imports is read in that module.

No linter is a dependency of the package, so this is the check of unused
imports: each ``src/qme/*.py`` is parsed with ``ast``, and a name bound by an
import statement must appear as a name somewhere in the module.  The
re-exports of ``__init__.py`` and the lines marked ``# noqa: F401`` are the
exceptions.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qme"


def unused_imports(source: str) -> list[str]:
    """The names that import statements in ``source`` bind and no other part
    of it reads, less ``from __future__`` features and the names
    imported on a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from math import pi, tau  # noqa: F401\n"
              "from sys import argv, exit as leave\n"
              "leave(np.pi)\n")
    assert unused_imports(source) == ["os", "argv"]
