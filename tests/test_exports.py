"""Every exported name resolves: each porohom module's __all__ and every
name the package __init__ imports.  No porohom module imports another's
private (underscore) names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import porohom

MODULES = sorted(m.name for m in pkgutil.iter_modules(porohom.__path__, "porohom."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_init_imports_resolve():
    tree = ast.parse(Path(porohom.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        mod = importlib.import_module(f"porohom.{module}")
        assert hasattr(mod, name), f"porohom.{module} has no {name}"
        assert getattr(porohom, name) is getattr(mod, name)


def test_no_module_imports_a_private_name_of_another():
    root = Path(porohom.__file__).parent
    offenders = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "porohom"
            offenders += [f"{path.name}: {alias.name}" for alias in node.names
                          if internal and alias.name.startswith("_")
                          and not alias.name.endswith("__")]  # dunders such as __version__
    assert not offenders, f"private names imported across modules: {offenders}"
