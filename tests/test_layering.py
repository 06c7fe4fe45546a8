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


def test_benchmark_wrapped_globals_exist(monkeypatch):
    # bench/workloads.py traces these stages by wrapping the module globals
    # of these names, and bench/selfcheck.py fails unless the wrapped calls
    # happen: a pressure profile calls pressure.exp_weighted_segment, and
    # verify_estimate calls solver.estimate_constants, which calls
    # solver.symbol_grid.  A rename or a bypass would break its traced pass.
    import numpy as np

    import vortexfront as vf
    import vortexfront.pressure
    import vortexfront.solver
    from conftest import smooth_field

    calls, inside = [], []
    for module, name in ((vortexfront.solver, "estimate_constants"),
                         (vortexfront.solver, "symbol_grid"),
                         (vortexfront.pressure, "exp_weighted_integral"),
                         (vortexfront.pressure, "exp_weighted_segment")):
        fn = getattr(module, name, None)
        assert callable(fn), f"{module.__name__}.{name}"

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            calls.append((_name, tuple(inside)))
            inside.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(module, name, wrapper)

    medium = vf.Medium.symmetric(2.0, 1.0)
    zero = np.zeros(16, dtype=complex)
    freq = vf.Frequency(1.0, 0.5, 1.0)
    vf.reconstruct_profile(freq, medium, vf.BoundaryState(
        0j, 0j, 0j, 0j, vf.decay_root_pair(freq, medium)), zero, zero, 0.1)
    assert ("exp_weighted_segment", ()) in calls
    calls.clear()
    vf.verify_estimate(smooth_field(n_t=8, n_x1=8, n_x2=16), medium, [1.0], 0.0)
    assert ("estimate_constants", ()) in calls
    assert ("symbol_grid", ("estimate_constants",)) in calls
