import importlib
import pkgutil

import pytest

import shotfuse

MODULES = ["shotfuse"] + [
    f"shotfuse.{m.name}" for m in pkgutil.iter_modules(shotfuse.__path__) if not m.name.startswith("_")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []
