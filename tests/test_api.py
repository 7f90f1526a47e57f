"""Every name the package and its modules export in ``__all__`` resolves, the package needs numpy alone, and
training runs array kernels, not the tape."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import l2x
from l2x import autodiff as ad

SOURCES = sorted(Path(l2x.__file__).parent.glob("*.py"))

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
    for path in SOURCES:
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


def test_only_autodiff_reads_a_vjp():
    for path in SOURCES:
        if path.name != "autodiff.py":
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                assert not (isinstance(node, ast.Attribute) and node.attr == "_vjp"), f"{path.name}, line {node.lineno}"


def test_training_builds_a_tensor_only_in_the_reference_objective():
    # a Tensor comes from its constructor, ``ad.node`` or an op of ``ad.__all__`` (leaves included)
    builders = set(ad.__all__) | {"node"}
    path = Path(l2x.__file__).parent / "training.py"
    tree = ast.parse(path.read_text(), str(path))
    functions = [node for scope in (tree, *(n for n in tree.body if isinstance(n, ast.ClassDef)))
                 for node in scope.body if isinstance(node, ast.FunctionDef)]
    assert {"_head_step", "_selector_step", "train_l2x", "l2x_objective"} <= {f.name for f in functions}
    for function in functions:
        if function.name == "l2x_objective":
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                f = node.func
                builds = (isinstance(f, ast.Name) and f.id == "Tensor") or (
                    isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "ad"
                    and f.attr in builders)
                assert not builds, f"training.{function.name}, line {node.lineno}, builds a Tensor"
