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


# util.as_int is the one whole-number rule for counts, sizes and indices, so
# no other module reaches operator.index or asks isinstance(x, int)
def integer_rule_uses(source):
    """(line, what) of every import or call of operator.index and of every
    isinstance call whose class argument is the bare name int; a tuple such
    as (int, float), a number check, is not counted."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            if any(alias.name == "index" for alias in node.names):
                uses.append((node.lineno, "operator.index"))
        elif isinstance(node, ast.Attribute) and node.attr == "index":
            if getattr(node.value, "id", "") == "operator":
                uses.append((node.lineno, "operator.index"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "isinstance":
            if len(node.args) == 2 and getattr(node.args[1], "id", "") == "int":
                uses.append((node.lineno, "isinstance int"))
    return sorted(uses)


def test_integer_rule_check_finds_uses():
    source = (
        "import operator\n"
        "from operator import index, mul\n"
        "a = operator.index(3)\n"
        "b = isinstance(a, int)\n"
        "c = isinstance(a, (int, float))\n"
        "d = isinstance(a, bool) or [a].index(a)\n"
        "e = f(isinstance(\n    a, int))\n"
    )
    assert integer_rule_uses(source) == [
        (2, "operator.index"), (3, "operator.index"), (4, "isinstance int"),
        (7, "isinstance int"),
    ]


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "util.py")
)
def test_only_util_checks_integers(module):
    assert integer_rule_uses((PACKAGE / module).read_text()) == []


# util.as_real is the one real-number rule, so no other module compares a
# value with an infinity to decide whether it is finite
def infinity_comparisons(source):
    """Line of every comparison with an operand np.inf, math.inf, numpy.inf
    or a bare inf, a sign in front included."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                while isinstance(operand, ast.UnaryOp):
                    operand = operand.operand
                if isinstance(operand, ast.Attribute):
                    name = operand.attr
                else:
                    name = getattr(operand, "id", "")
                if name == "inf":
                    lines.append(node.lineno)
                    break
    return sorted(lines)


def test_infinity_comparison_check_finds_comparisons():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from math import inf\n"
        "a = 0 <= x < np.inf\n"
        "b = lower == -np.inf\n"
        "c = x < math.inf and y > 0\n"
        "d = np.where(x, 1.0, np.inf)\n"
        "e = np.isfinite(x)\n"
        "f = x != inf\n"
        "g = (\n    x\n    < np.inf)\n"
    )
    assert infinity_comparisons(source) == [4, 5, 6, 9, 11]


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "util.py")
)
def test_only_util_compares_with_infinity(module):
    assert infinity_comparisons((PACKAGE / module).read_text()) == []


# util.as_real and util.as_reals are the finiteness rules, so no other module
# raises from an `if` that asks isfinite; a mask of failures that names the
# failing item (gain_defect, the fit polishers) is no such `if`
def finiteness_checks(source):
    """Line of every `if` whose test calls a function named isfinite and
    whose body raises."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and any(
            isinstance(call, ast.Call)
            and "isfinite" in (getattr(call.func, "attr", None), getattr(call.func, "id", None))
            for call in ast.walk(node.test)
        ):
            if any(isinstance(inner, ast.Raise) for part in node.body for inner in ast.walk(part)):
                lines.append(node.lineno)
    return sorted(lines)


def test_finiteness_check_finds_raising_ifs():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from numpy import isfinite\n"
        "if not np.isfinite(x).all():\n    raise ValueError(x)\n"
        "if not (math.isfinite(y) and y > 0):\n    raise ValueError(y)\n"
        "if isfinite(z):\n    pass\nelif np.all(\n    np.isfinite(w)):\n"
        "    log(w)\n    raise ValueError(w)\n"
        "bad = ~np.isfinite(x)\n"
        "if bad.any():\n    raise ValueError(x)\n"
        "if np.isfinite(x).all():\n    return x\n"
        "y = np.where(np.isfinite(x), x, 0.0) if x.size else x\n"
    )
    assert finiteness_checks(source) == [4, 6, 10]


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "util.py")
)
def test_only_util_checks_finiteness(module):
    assert finiteness_checks((PACKAGE / module).read_text()) == []


# util.as_reals is the one array rule, so no other module converts a value
# to a float or complex array of its own: np.asarray(x, dtype=float) takes a
# string or bool array without a word
ARRAY_CONVERTERS = {"array", "asarray", "asanyarray", "ascontiguousarray"}
NUMBER_DTYPES = {"float", "complex", "float64", "complex128"}


def number_array_conversions(source):
    """Line of every call of np.array, np.asarray and their kin whose dtype,
    by keyword or as the second argument, is float or complex."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
            if name in ARRAY_CONVERTERS and any(
                getattr(d, "attr", getattr(d, "id", "")) in NUMBER_DTYPES for d in dtypes
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_number_array_check_finds_conversions():
    source = (
        "import numpy as np\n"
        "from numpy import asarray\n"
        "a = np.asarray(x, dtype=float)\n"
        "b = np.array(x, complex)\n"
        "c = asarray(\n    x, dtype=np.float64)\n"
        "d = np.asarray(x)\n"
        "e = np.zeros(3, dtype=float)\n"
        "f = np.array([1, 2], dtype=int)\n"
        "g = x.astype(float)\n"
        "h = np.ascontiguousarray(x, dtype=np.complex128)\n"
    )
    assert number_array_conversions(source) == [3, 4, 5, 11]


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "util.py")
)
def test_only_util_converts_number_arrays(module):
    assert number_array_conversions((PACKAGE / module).read_text()) == []


# the fit core and its two models solve their small systems by elementwise
# elimination; a batched np.linalg.solve or a BLAS product there would change
# a column's bits with its stack and with the CPU dispatch, which the
# goldens of `calibration` and `hom-map` are checked under
FIT_FUNCTIONS = {
    "util.py": {"product_sums", "_solve", "_lower", "_projection", "variable_projection"},
    "quantum.py": {"_dip_model"},
    "hardware.py": {"_fringe_model"},
}
LINEAR_ALGEBRA = {"linalg", "dot", "matmul", "einsum"}


def linear_algebra_uses(source, names):
    """(line, what) of every @ and every name or attribute linalg, dot,
    matmul or einsum inside the top-level functions `names`, and the names
    that no top-level function of the source has, as (0, name)."""
    uses = []
    functions = {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }
    uses.extend((0, name) for name in sorted(names - functions.keys()))
    for name in names & functions.keys():
        for node in ast.walk(functions[name]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                uses.append((node.lineno, "@"))
            elif getattr(node, "attr", getattr(node, "id", None)) in LINEAR_ALGEBRA:
                uses.append((node.lineno, getattr(node, "attr", getattr(node, "id", None))))
    return sorted(uses)


def test_linear_algebra_check_finds_uses():
    source = (
        "import numpy as np\n"
        "from numpy import einsum\n"
        "def fit(a, b):\n"
        "    x = np.linalg.solve(a, b)\n"
        "    y = a @ b\n"
        "    y @= a\n"
        "    return np.dot(a, b) + einsum('ij,j', a, b) + np.matmul(a, b)\n"
        "def other(a, b):\n"
        "    return a @ b\n"
    )
    assert linear_algebra_uses(source, {"fit", "gone"}) == [
        (0, "gone"), (4, "linalg"), (5, "@"), (6, "@"), (7, "dot"), (7, "einsum"),
        (7, "matmul"),
    ]


@pytest.mark.parametrize("module", sorted(FIT_FUNCTIONS))
def test_fit_core_uses_no_batched_linear_algebra(module):
    source = (PACKAGE / module).read_text()
    assert linear_algebra_uses(source, FIT_FUNCTIONS[module]) == []


# hardware.CHUNK bounds the realized transfers a campaign holds at once, so
# only the two loops that realize them read it (README, "Fidelity
# campaigns"); every fit takes its whole stack in one pass
CHUNK_READERS = {"experiments.py": {"_run_fidelity"}, "quantum.py": {"_routed_scans"}}


def chunk_reads(source):
    """(line, where) of every read or import of a name or attribute CHUNK,
    `where` the top-level function or class it sits in, "" at module level."""
    reads = []
    for node in ast.parse(source).body:
        where = getattr(node, "name", "")
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Attribute) and inner.attr == "CHUNK"
                or isinstance(inner, ast.Name) and inner.id == "CHUNK"
                and not isinstance(inner.ctx, ast.Store)
                or isinstance(inner, ast.ImportFrom)
                and any(alias.name == "CHUNK" for alias in inner.names)
            ):
                reads.append((inner.lineno, where))
    return sorted(reads)


def test_chunk_read_check_finds_reads():
    source = (
        "from .hardware import CHUNK\n"
        "CHUNK = 64\n"
        "def loop(k):\n"
        "    for start in range(0, k, hardware.CHUNK):\n"
        "        def inner():\n            return CHUNK\n"
        "def other():\n    return 'CHUNK', hardware.chunk\n"
        "class Fit:\n    size = CHUNK\n"
    )
    assert chunk_reads(source) == [(1, ""), (4, "loop"), (6, "loop"), (10, "Fit")]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_only_the_campaign_loops_read_chunk(module):
    readers = {where for _, where in chunk_reads((PACKAGE / module).read_text())}
    assert readers == CHUNK_READERS.get(module, set())


def test_readme_library_quick_start_runs(capsys):
    # the README's library example is documented API; run it as written
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    fidelity = float(capsys.readouterr().out)
    assert 0.9 < fidelity <= 1.0
