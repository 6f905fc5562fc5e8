"""Every exported name resolves: each porohom module's __all__, every
name the package __init__ imports and every layer that bench/tracer.py
traces.  No porohom module imports another's private (underscore) names,
and each solver building block is called only from the scopes that own it
(ALLOWED_CALLERS)."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
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


def test_bench_tracer_layers_resolve(monkeypatch):
    # resolved as Tracer.install does; the two layers named here have been
    # absent since their targets were deleted, and a benchmark change that
    # retires them shrinks the set
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("porohom_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    unresolved = set()
    for layer in tracer.LAYERS:
        try:
            owner = importlib.import_module(layer.module)
            for part in layer.target.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            unresolved.add(layer.name)
    assert unresolved == {"microsim.run_to_steady", "microsim.splu"}


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


# callee -> the only src/porohom scopes (module.function or
# module.Class.method) that may call it: splu through spd_factor, and every
# vector-form solve through solvers.form_solver.
ALLOWED_CALLERS = {
    "splu": ["solvers.spd_factor"],
    "spd_factor": ["solvers.VCycle.__init__", "solvers.form_solver"],
    "nested_dissection": ["solvers.form_solver"],
    "coarse_vector_forms": ["solvers.form_solver"],
    "VCycle": ["solvers.form_solver"],
}


class _Calls(ast.NodeVisitor):
    """Every call of a function named callee, as module.scope:line."""

    def __init__(self, module, callee):
        self.scope = [module]
        self.callee = callee
        self.found = []

    def _visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _visit_scope

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == self.callee:
            self.found.append(f"{'.'.join(self.scope)}:{node.lineno}")
        self.generic_visit(node)


@pytest.mark.parametrize("callee", sorted(ALLOWED_CALLERS))
def test_only_the_allowed_scopes_call(callee):
    root = Path(porohom.__file__).parent
    calls = []
    for path in sorted(root.glob("*.py")):
        visitor = _Calls(path.stem, callee)
        visitor.visit(ast.parse(path.read_text()))
        calls += visitor.found
    assert sorted(c.split(":")[0] for c in calls) == ALLOWED_CALLERS[callee], calls
