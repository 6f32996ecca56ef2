"""Source guards over src/bforest: no asserts, and no import beyond the runtime dependencies."""

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_runtime_dependencies(path):
    allowed = set(sys.stdlib_module_names) | RUNTIME
    names = []
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    assert [name for name in names if name.split(".")[0] not in allowed] == []
