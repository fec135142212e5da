"""Every exported name resolves, and package re-exports are the module objects."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rlbfgsb

SUBMODULES = ["baseline", "cli", "gcd", "geometry", "linesearch", "memory", "problems", "solver"]


@pytest.mark.parametrize("name", ["rlbfgsb"] + [f"rlbfgsb.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ has duplicates"


def test_reexports_are_module_objects():
    wrong = []
    for name in rlbfgsb.__all__:
        obj = getattr(rlbfgsb, name)
        owner = sys.modules[obj.__module__]
        if name not in getattr(owner, "__all__", ()) or getattr(owner, name) is not obj:
            wrong.append(f"{name} ({owner.__name__})")
    assert not wrong, f"package re-exports not exported as-is by their module: {wrong}"


def test_import_leaves_scipy_unloaded():
    # scipy.linalg alone adds about 27 MB of resident memory; the package
    # and all its submodules must run on numpy.
    src = str(Path(rlbfgsb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    modules = ["rlbfgsb"] + [f"rlbfgsb.{m}" for m in SUBMODULES]
    code = (
        f"import importlib, sys; [importlib.import_module(m) for m in {modules!r}]; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
