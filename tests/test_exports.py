"""Every name that the package and its modules export in __all__ resolves."""

import importlib
import pkgutil

import pytest

import smith_tate

MODULES = ["smith_tate"] + [f"smith_tate.{m.name}" for m in pkgutil.iter_modules(smith_tate.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports)
    assert [x for x in exports if not hasattr(module, x)] == []
