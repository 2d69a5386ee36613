"""Every name the package and its modules export resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mhdwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(mhdwave.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"mhdwave.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_public_names():
    # the package imports its names from the modules: each must be in that
    # module's __all__, so a name dropped there cannot linger here
    tree = ast.parse(Path(mhdwave.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"mhdwave.{node.module}")
            for alias in node.names:
                assert hasattr(mhdwave, alias.name)
                assert alias.name in module.__all__, (node.module, alias.name)
