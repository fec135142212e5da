"""Every exported name resolves, and package re-exports are the module objects."""

import importlib
import sys

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
