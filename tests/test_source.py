"""Source guards over src/bforest: no asserts, no process pools, no import
beyond the stdlib, no private name taken from counting, one catch of every
BforestError, and at most 2000 lines in all."""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tomllib

import pytest

from bforest import cli

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
SOURCES = sorted((SRC / "bforest").glob("*.py"))


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts; invariants raise typed errors instead
    assert not [node.lineno for node in _nodes(path) if isinstance(node, ast.Assert)]


def _imports(path):
    names = []
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_runtime_dependencies(path):
    # every module, the float layer too, imports only the stdlib
    assert [name for name in _imports(path) if name not in sys.stdlib_module_names] == []


def test_there_are_no_runtime_dependencies():
    # the float layer's arithmetic is decimal; mpmath is a test-only reference
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(dep.startswith("mpmath") for dep in project["optional-dependencies"]["test"])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_process_pools(path):
    # rows run in the calling process: a pool comes back only with a benchmark
    # workload that shows it pays
    assert [name for name in _imports(path) if name in {"concurrent", "multiprocessing"}] == []


def _names_from(path, module):
    """Names ``path`` imports from the bforest module ``module``."""
    names = []
    for node in _nodes(path):
        if isinstance(node, ast.ImportFrom) and node.module in {module, f"bforest.{module}"}:
            names += [alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_from_counting(path):
    # the order and root maps are reached through SpectralSystem, so every
    # module folds the same (m, prefactor) and the same outer roots
    assert [name for name in _names_from(path, "counting") if name.startswith("_")] == []


def _broad_handlers(path):
    """(module, enclosing function) of each ``except`` that names BforestError,
    Exception or BaseException, or names nothing."""
    broad = {"BforestError", "Exception", "BaseException"}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(child.type or ast.Pass())}
                if child.type is None or names & broad:
                    found.append((path.stem, scope))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_only_run_tells_a_refusal_from_a_bug():
    # a row or a report section catches Refusal; only cli.run catches every
    # BforestError, to print a refusal's class or "internal error", so the
    # split cannot drift back into a second site
    assert [site for path in SOURCES for site in _broad_handlers(path)] == [("cli", "run")]


def test_source_stays_within_its_line_budget():
    # src/bforest stays at or under 2000 lines: a change that needs more
    # deletes code first
    lines = {path.name: len(path.read_text().splitlines()) for path in SOURCES}
    assert sum(lines.values()) <= 2000, lines


PRISM = '{"n": 3, "alphas": [1], "betas": [1], "gammas": [0]}'
EXACT_COMMANDS = ["count", "compare", "arithmetic", "genfun", "validate"]
# prints, as JSON: each exact command's exit code and stdout, the mpmath and
# numpy modules loaded by then, and the module a float name resolves to after
EXACT_RUN = f"""
import contextlib, io, json, sys
import bforest
from bforest import cli
outputs = []
for command in {EXACT_COMMANDS!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([command, "--spec", {PRISM!r}])
    outputs.append([code, out.getvalue()])
loaded = sorted(name for name in sys.modules if name.split(".")[0] in ("mpmath", "numpy"))
print(json.dumps([outputs, loaded, bforest.growth_base.__module__]))
"""


def _python(*args):
    """A fresh interpreter on this checkout's sources: its parsed JSON stdout."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_exact_paths_load_neither_mpmath_nor_numpy_under_O():
    # -O strips asserts: the exact answers must not depend on them either
    outputs, loaded, home = _python("-O", "-c", EXACT_RUN)
    assert loaded == []
    assert home == "bforest.mahler"
    expected = []
    for command in EXACT_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run([command, "--spec", PRISM])
        expected.append([code, out.getvalue()])
    assert outputs == expected
    assert json.loads(outputs[0][1])["rows"] == [{"n": 3, "tau": 75}]
    assert json.loads(outputs[1][1])["all_equal"] is True


# prints, as JSON: the exit codes of the float commands on the prism and
# whether numpy and mpmath are loaded by then
FLOAT_RUN = f"""
import contextlib, io, json, sys
from bforest import cli
codes = []
for command in ["asymptotics", "report"]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run([command, "--spec", {PRISM!r}]))
print(json.dumps([codes, "numpy" in sys.modules, "mpmath" in sys.modules]))
"""


def test_float_paths_load_neither_mpmath_nor_numpy():
    # the quadrature sums exactly and the roots are found in decimal, so the
    # float layer needs the standard library alone
    assert _python("-c", FLOAT_RUN) == [[0, 0], False, False]
