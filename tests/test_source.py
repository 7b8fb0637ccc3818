"""Static checks over the package source, run without a linter."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "meshsim"


def unused_imports(source):
    """(line, name) of every name a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_check_finds_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .util import (\n    TWO_PI,\n    wrap_phase,\n)\n"
        "x = np.pi * TWO_PI\n"
    )
    assert unused_imports(source) == [(3, "os"), (5, "wrap_phase")]


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py"))
)
def test_module_imports_only_names_it_uses(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
