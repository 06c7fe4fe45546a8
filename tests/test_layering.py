"""Import layering of the package modules, read from their source with ast.

A module may import only modules in a lower layer.  The members of one
layer do not import each other: symbol, quadrature and grids are
independent, and so are the solver and the pressure reconstruction.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vortexfront"

LAYERS = [
    {"domain"},
    {"symbol", "quadrature", "grids"},
    {"transforms"},
    {"solver", "pressure"},
    {"cli"},
]
RANK = {name: i for i, layer in enumerate(LAYERS) for name in layer}


def package_imports(tree: ast.Module) -> set[str]:
    """Names of the sibling modules a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("vortexfront."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("vortexfront."))
    return found


def test_modules_import_only_lower_layers():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(RANK), "every module needs a layer"
    breaches = []
    for name in sorted(modules):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for dep in sorted(package_imports(tree)):
            if RANK[dep] >= RANK[name]:
                breaches.append(f"{name} imports {dep}")
    assert not breaches, breaches


def test_benchmark_wrapped_globals_exist():
    # bench/workloads.py traces these stages by wrapping the module globals
    # of these names; a rename would break its traced pass.
    import vortexfront.pressure
    import vortexfront.solver

    for module, name in ((vortexfront.solver, "estimate_constants"),
                         (vortexfront.solver, "symbol_grid"),
                         (vortexfront.pressure, "exp_weighted_integral"),
                         (vortexfront.pressure, "exp_weighted_segment")):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
