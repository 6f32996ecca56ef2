"""Every exported name resolves, so a deleted function leaves no stale export,
and the package's export list is its modules' own lists."""

import importlib
import pkgutil

import pytest

import bforest

MODULES = ["bforest"] + [f"bforest.{info.name}" for info in pkgutil.iter_modules(bforest.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_package_exports_each_modules_names_once():
    # every module but the CLI contributes its own list, each name once
    modules = [info.name for info in pkgutil.iter_modules(bforest.__path__) if info.name != "cli"]
    own = {name for m in modules for name in importlib.import_module(f"bforest.{m}").__all__}
    assert len(bforest.__all__) == len(set(bforest.__all__))
    assert set(bforest.__all__) == own
