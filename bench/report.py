"""End-to-end statistics and the per-layer metrics made from spans."""

from __future__ import annotations

import math
import statistics

# Every span the traced run records, named layer.call after the modules.
SPANS = (
    "transforms.spectral_slices", "transforms.halfspace_norm",
    "transforms.sobolev_norm", "transforms.weighted_inverse",
    "quadrature.halfline_integral", "quadrature.scalar",
    "symbol.symbol_grid", "symbol.scalar", "symbol.boundary_grid",
    "solver.build_system", "solver.solve_front", "solver.verify_estimate",
    "solver.estimate_constants",
    "pressure.solve_boundary_system", "pressure.reconstruct_profile",
    "pressure.ode_residual", "pressure.front_equation_residual",
    "grids.write_field", "grids.read_field",
    "cli.import", "cli.solve", "cli.verify", "cli.reconstruct", "cli.grid",
)
CLI_COMMANDS = ("solve", "verify", "reconstruct", "grid")
MB = 1e6


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile above the median with at
    least ten ops beyond it, by nearest rank; None when fewer than 22 ops
    leave none.  Rank n - 10 of n ops is percentile 100 (n - 10) / n, and
    the nearest-rank median is rank ceil(n / 2)."""
    n = len(times)
    rank = n - 10
    if rank <= math.ceil(n / 2):
        return None
    return 100.0 * rank / n, sorted(times)[rank - 1]


def end_to_end(times: list[float], units: list[float], attempted: int,
               failed: int, setups: list[float], setup_walls: list[float],
               peak_rss_bytes: int) -> dict:
    """The six end-to-end metrics, and op_p50_ref: the median op time in
    reference-kernel units (see workloads.Clock).  setup_s is the median
    setup at the reference kernels' nominal speed, beside the median wall
    seconds.  op_tail_s is left out when too few ops ran."""
    out = {
        "op_p50_ref": {"value": statistics.median(units), "unit": "ref",
                       "ops": len(units)},
        "op_p50_s": {"value": statistics.median(times), "unit": "s",
                     "ops": len(times)},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_bytes / MB, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "setups": len(setups),
                    "wall_s": statistics.median(setup_walls)},
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
    }
    t = tail(times)
    if t is not None:
        out["op_tail_s"] = {"value": t[1], "unit": "s", "percentile": t[0],
                            "ops": len(times)}
    return out


def per_layer(tracer, mem_tracer, n_ops: int, field_bytes: int,
              traced_p50: float, untraced_p50: float) -> dict:
    """Per-op layer metrics from the traced loop and the memory pass."""
    by_name: dict[str, list] = {name: [] for name in SPANS}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        by_name.setdefault(span.name, []).append((span, self_s))
    peak = {name: 0 for name in SPANS}
    for span in mem_tracer.spans:
        peak[span.name] = max(peak.get(span.name, 0), span.alloc_peak or 0)

    def busy(name):
        return sum(s.duration for s, _ in by_name[name]) / n_ops

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s, _ in by_name[name])

    def mean_duration(name):
        spans = by_name[name]
        return sum(s.duration for s, _ in spans) / len(spans) if spans else 0.0

    def rate(name):
        seconds = sum(s.duration for s, _ in by_name[name])
        return attr_sum(name, "bytes") / MB / seconds if seconds else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        m[f"{name}.calls"] = (len(by_name[name]) / n_ops, "count")
        m[f"{name}.failed"] = (sum(s.failed for s, _ in by_name[name]), "count")
    for name in ("transforms.spectral_slices", "transforms.halfspace_norm",
                 "transforms.sobolev_norm", "transforms.weighted_inverse",
                 "quadrature.halfline_integral", "symbol.symbol_grid",
                 "symbol.boundary_grid", "solver.build_system",
                 "solver.solve_front", "solver.verify_estimate", "solver.estimate_constants",
                 "pressure.reconstruct_profile", "pressure.solve_boundary_system",
                 "pressure.ode_residual", "pressure.front_equation_residual",
                 "grids.write_field", "grids.read_field"):
        m[f"{name}.busy_s"] = (busy(name), "s")
    m["transforms.spectral_slices.out_mb"] = (
        attr_sum("transforms.spectral_slices", "out_bytes") / MB / n_ops, "MB")
    m["quadrature.halfline_integral.alloc_peak_mb"] = (
        peak["quadrature.halfline_integral"] / MB, "MB")
    scalar = by_name["symbol.scalar"]
    m["symbol.scalar.call_us"] = (
        1e6 * sum(s.duration for s, _ in scalar) / len(scalar) if scalar else 0.0,
        "us")
    m["solver.solve_front.self_s"] = (
        sum(x for _, x in by_name["solver.solve_front"]) / n_ops, "s")
    m["solver.solve_front.alloc_peak_mb"] = (peak["solver.solve_front"] / MB, "MB")
    m["solver.alloc_peak_ratio"] = (peak["solver.solve_front"] / field_bytes,
                                    "ratio")
    for name in ("grids.write_field", "grids.read_field"):
        m[f"{name}.mb_per_s"] = (rate(name), "MB/s")
    writes = by_name["grids.write_field"]
    m["grids.file_mb"] = (attr_sum("grids.write_field", "bytes") / MB / len(writes)
                          if writes else 0.0, "MB")
    imports = by_name["cli.import"]
    m["cli.import_s"] = (attr_sum("cli.import", "import_s") / len(imports)
                         if imports else 0.0, "s")
    for cmd in CLI_COMMANDS:
        spans = by_name[f"cli.{cmd}"]
        m[f"cli.{cmd}.wall_s"] = (mean_duration(f"cli.{cmd}"), "s")
        m[f"cli.{cmd}.rss_mb"] = (max((s.attrs.get("rss_bytes", 0)
                                       for s, _ in spans), default=0) / MB, "MB")
    m["cli.output_mb"] = (sum(attr_sum(f"cli.{cmd}", "out_bytes")
                              for cmd in CLI_COMMANDS) / MB / n_ops, "MB")
    m["trace.op_p50_s"] = (traced_p50, "s")
    m["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
