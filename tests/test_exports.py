"""Every exported name exists, and the package imports only exported names,
so a deletion cannot leave a stale export behind."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import fidur

MODULES = [m.name for m in pkgutil.iter_modules(fidur.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"fidur.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_the_package_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(fidur.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        module = importlib.import_module(f"fidur.{node.module}")
        # A module without __all__ exports its public names.
        exported = getattr(module, "__all__", [n for n in dir(module) if not n.startswith("_")])
        unexported = [a.name for a in node.names if a.name not in exported]
        assert not unexported, node.module
