"""Every exported name resolves, so a deleted function leaves no stale export."""

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
