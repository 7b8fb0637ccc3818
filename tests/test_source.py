"""Static checks over the package source, run without a linter."""

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "meshsim"


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


# the orphan check below counts an import as a read, so an unused import in
# a test or bench file could keep a dead package name alive
@pytest.mark.parametrize(
    "path",
    sorted(
        str(path.relative_to(ROOT))
        for folder in ("tests", "bench")
        for path in (ROOT / folder).glob("*.py")
    ),
)
def test_test_and_bench_files_import_only_names_they_use(path):
    assert unused_imports((ROOT / path).read_text()) == []


def top_level_names(source):
    """(line, name) of every top-level function, class and UPPER_CASE
    constant a module defines."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(
                (node.lineno, target.id)
                for target in targets
                if isinstance(target, ast.Name) and target.id.lstrip("_").isupper()
            )
    return names


def read_names(source):
    """Every name a module reads, as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def orphan_names(defining, read):
    """(line, name) of the names `defining` defines at top level that are
    not in the set `read`."""
    return [
        (line, name) for line, name in top_level_names(defining) if name not in read
    ]


@functools.lru_cache(maxsize=None)
def names_read_in_repo():
    return set().union(
        *(
            read_names(path.read_text())
            for folder in ("src", "tests", "bench")
            for path in (ROOT / folder).rglob("*.py")
        )
    )


def test_orphan_check_finds_unread_names():
    defining = (
        "LIMIT = 3\n"
        "_SCALE: float = 2.0\n"
        "lower = 1\n"
        "def used():\n    return LIMIT\n"
        "def unused():\n    pass\n"
        "class Kept:\n    pass\n"
        "class Dropped:\n    pass\n"
    )
    reader = "from m import used\nimport m\nm.Kept()\n"
    read = read_names(defining) | read_names(reader)
    assert orphan_names(defining, read) == [
        (2, "_SCALE"), (6, "unused"), (10, "Dropped")
    ]


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py"))
)
def test_module_defines_only_names_something_reads(module):
    assert orphan_names((PACKAGE / module).read_text(), names_read_in_repo()) == []


# util.seeded_rng and util.child_seed check every part of a seed key, so no
# other module builds a generator or a SeedSequence of its own
RNG_CONSTRUCTORS = {"default_rng", "SeedSequence"}


def rng_constructor_calls(source):
    """(line, name) of every call of a function named default_rng or
    SeedSequence, reached as an attribute (np.random.default_rng) or as an
    imported name."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in RNG_CONSTRUCTORS:
                calls.append((node.lineno, name))
    return sorted(calls)


def test_rng_constructor_check_finds_calls():
    source = (
        "import numpy as np\n"
        "from numpy.random import SeedSequence\n"
        "rng = np.random.default_rng(3)\n"
        "seq = SeedSequence([1, 2])\n"
        "other = seeded_rng(1, 2)\n"
        "nested = f(np.random.default_rng(\n    np.random.SeedSequence(4)))\n"
    )
    assert rng_constructor_calls(source) == [
        (3, "default_rng"), (4, "SeedSequence"), (6, "default_rng"),
        (7, "SeedSequence"),
    ]


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "util.py")
)
def test_only_util_builds_generators(module):
    assert rng_constructor_calls((PACKAGE / module).read_text()) == []
