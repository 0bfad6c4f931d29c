"""Every exported name of the package and its modules resolves."""

import importlib
import pkgutil

import pytest

import mtl_affinity

MODULES = ["mtl_affinity"] + [f"mtl_affinity.{info.name}"
                              for info in pkgutil.iter_modules(mtl_affinity.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} has no __all__"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
