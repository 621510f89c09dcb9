import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_only_numpy_and_the_standard_library():
    # A fresh interpreter, so that only the modules `import shotfuse` loads are counted.
    probe = (
        "import sys; before = set(sys.modules); import shotfuse; "
        "print(*{m.split('.')[0] for m in set(sys.modules) - before})"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(shotfuse.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert set(out.stdout.split()) - set(sys.stdlib_module_names) <= {"numpy", "shotfuse"}
