"""Every name the package and its modules export in ``__all__`` resolves, and the package needs numpy alone."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_the_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy", "l2x"}
    seen = set()
    for path in sorted(Path(l2x.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative import is l2x itself
                roots = [node.module.split(".")[0]]
            else:
                continue
            seen.update(roots)
            bad = [root for root in roots if root not in allowed]
            assert not bad, f"{path.name}, line {node.lineno}, imports {bad}"
    assert "numpy" in seen
