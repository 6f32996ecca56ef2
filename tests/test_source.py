"""Source guards over src/bforest: no asserts, no process pools, no import
beyond the runtime dependencies, no private name taken from counting, and
at most 2000 lines in all."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "bforest").glob("*.py"))
RUNTIME = {"numpy", "mpmath"}  # the [project] dependencies of pyproject.toml


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
    allowed = set(sys.stdlib_module_names) | RUNTIME
    assert [name for name in _imports(path) if name not in allowed] == []


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


def test_source_stays_within_its_line_budget():
    # src/bforest stays at or under 2000 lines: a change that needs more
    # deletes code first
    assert sum(len(path.read_text().splitlines()) for path in SOURCES) <= 2000
