"""Every name the package and its modules export in ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import l2x

# ``__main__`` runs the command line when imported, and exports nothing
MODULES = sorted(m.name for m in pkgutil.iter_modules(l2x.__path__, "l2x.") if m.name != "l2x.__main__")


@pytest.mark.parametrize("module_name", ["l2x", *MODULES])
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports), f"{module_name}.__all__ lists a name twice"
    missing = [name for name in exports if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names {missing}, which do not resolve"
