"""The four benchmark workloads.

Each workload is a closed loop with one client: the runner calls
``prepare(i)`` (untimed), ``op(inputs, tracer)`` (timed) and
``check(inputs, result)`` (the oracle, untimed) for op i = 0, 1, 2, ...
The package sees only the arrays and files made from the seed.  Replays of
composite calls use only names exported by the ``vortexfront`` package, so
the benchmark keeps running while the modules behind them are reworked.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import vortexfront as vf
import vortexfront.pressure
import vortexfront.solver
from fields import make_field

MEDIUM = vf.Medium.symmetric(2.0, 1.0)
SWEEP_GAMMAS = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]

# Relative agreement of the FFT solve with a direct weighted DFT fed through
# the scalar path; the bound of test_solve_front_single_mode.
DFT_RTOL = 1e-12
# Bins whose |f_hat| is below this share of the largest carry only rounding
# noise and are not used by the oracles.
CONTENT_FLOOR = 1e-3
# Acceptance criterion 9 bounds.
CLOSURE_RTOL = 1e-10
DECAY_ROW_RTOL = 1e-10
REF_CALLS = 600  # calls in the scalar reference kernel (~2 ms)
# Nominal seconds of each reference kernel: typical medians on the 2-vCPU
# host the benchmark was tuned on.  Only the scale of setup_s depends on
# them (see Reference.at_nominal).
NOMINAL_S = {"bulk": 5e-3, "scalar": 2e-3}


def _content_bins(f_hat: np.ndarray) -> np.ndarray:
    """(it, ix) of the non-Nyquist bins that carry forcing content."""
    n_t, n_x1 = f_hat.shape
    mags = np.abs(f_hat)
    keep = mags >= CONTENT_FLOOR * mags.max()
    keep[n_t // 2, :] = False
    keep[:, n_x1 // 2] = False
    return np.argwhere(keep)


def _freq(grid, gamma, it, ix) -> vf.Frequency:
    return vf.Frequency(gamma, float(grid.delta_axis[it]),
                        float(grid.eta_axis[ix]))


def _scalar_f_hat(field, gamma, it, ix) -> complex:
    """f_hat at one bin from a direct weighted DFT and the scalar path."""
    grid = field.grid
    freq = _freq(grid, gamma, it, ix)
    phase = (np.exp(-(gamma + 1j * freq.delta) * grid.t_nodes)[:, None]
             * np.exp(-1j * freq.eta * grid.x1_nodes)[None, :]
             * (grid.dt * grid.dx1))
    mus, ints = [], []
    for v1, side in ((MEDIUM.v1_plus, field.f_plus),
                     (MEDIUM.v1_minus, field.f_minus)):
        sl = (np.tensordot(phase.real, side, axes=([0, 1], [0, 1]))
              + 1j * np.tensordot(phase.imag, side, axes=([0, 1], [0, 1])))
        mu = vf.decay_root(freq, v1, MEDIUM.c)
        mus.append(mu)
        ints.append(complex(vf.halfline_integral(sl, mu, grid.dx2)))
    mu_p, mu_m = mus
    m = ints[0] / mu_p - ints[1] / mu_m
    return -(mu_p * mu_m / (mu_p + mu_m)) * m / vf.symbol(freq, MEDIUM)


# ---------------------------------------------------------------------------
# Replays of composite calls: their public sub-stages on the same inputs.

def replay_build_system(tr, field, system, gamma):
    grid = field.grid
    with tr.span("transforms.spectral_slices") as rec:
        sp, sm = vf.spectral_slices(field, gamma)
        rec["out_bytes"] = sp.nbytes + sm.nbytes
    for arr in (sp, sm):  # build_system drops the unpaired Nyquist rows
        arr[grid.n_t // 2, :, :] = 0.0
        arr[:, grid.n_x1 // 2, :] = 0.0
    tau = gamma + 1j * grid.delta_axis[:, None]
    tr.call("symbol.symbol_grid", vf.symbol_grid, tau,
            grid.eta_axis[None, :], MEDIUM)
    tr.call("quadrature.halfline_integral", vf.halfline_integral, sp,
            system.mu_plus, grid.dx2)
    tr.call("quadrature.halfline_integral", vf.halfline_integral, sm,
            system.mu_minus, grid.dx2)


def replay_solve_front(tr, field, sol):
    tr.call("solver.build_system", vf.build_system, field, MEDIUM, sol.gamma,
            replay=lambda system: replay_build_system(tr, field, system,
                                                      sol.gamma))
    tr.call("transforms.weighted_inverse", vf.weighted_inverse, sol.f_hat,
            sol.grid, sol.gamma)
    for idx in sorted({0.0, sol.s, sol.s + 1.0}):
        tr.call("transforms.sobolev_norm", vf.sobolev_norm, sol.f_hat, idx,
                sol.gamma, sol.grid)


def replay_verify_estimate(tr, field, gammas, s):
    grid = field.grid
    for g in gammas:
        sol = tr.call("solver.solve_front", vf.solve_front, field, MEDIUM, g, s,
                      replay=lambda sol: replay_solve_front(tr, field, sol))
        system = sol.system
        tr.call("transforms.sobolev_norm", vf.sobolev_norm, system.g_hat, s, g,
                grid)
        for side in (field.f_plus, field.f_minus):
            tr.call("transforms.halfspace_norm", vf.halfspace_norm, side, grid,
                    s, g)
        g1_hat = -(system.mu_minus / (system.mu_plus + system.mu_minus)
                   ) * system.i_plus
        tr.call("transforms.sobolev_norm", vf.sobolev_norm, g1_hat, s, g, grid)


def replay_roots(tr, freq, with_symbol=False):
    for v1 in (MEDIUM.v1_plus, MEDIUM.v1_minus):
        tr.call("symbol.scalar", vf.decay_root, freq, v1, MEDIUM.c)
    if with_symbol:
        tr.call("symbol.scalar", vf.symbol, freq, MEDIUM)


@contextlib.contextmanager
def wrap_globals(tr, module, spans: dict, inner: dict | None = None):
    """Route calls to functions that module holds as globals through spans.

    Some stages run inside a composite call through module globals that are
    not package exports (the per-node quadrature of pressure, the
    estimate_constants call of verify_estimate).  Replaying them would copy
    private code, so the traced pass wraps them instead: ``spans`` maps a
    global's name to its span name, and the ``inner`` globals are wrapped
    only while one of those calls runs.  The globals found are recorded in
    ``tr.wrapped`` by span, and those not found in ``tr.missing``, so a
    renamed global shows as a broken trace rather than as a drop in a
    count.  Nothing is wrapped when tracing is off.
    """
    saved = {}
    if tr.active:
        for name, span in spans.items():
            fn = getattr(module, name, None)
            qualname = f"{module.__name__}.{name}"
            if not callable(fn):
                tr.missing.add(qualname)
                continue
            saved[name] = fn
            tr.wrapped.setdefault(span, set()).add(qualname)

            def wrapper(*args, _fn=fn, _span=span, **kwargs):
                with (wrap_globals(tr, module, inner) if inner
                      else contextlib.nullcontext()):
                    return tr.call(_span, _fn, *args, **kwargs)
            setattr(module, name, wrapper)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


# Per-node quadrature inside pressure.reconstruct_profile.
PER_NODE_QUADRATURE = {"exp_weighted_integral": "quadrature.scalar",
                       "exp_weighted_segment": "quadrature.scalar"}


# ---------------------------------------------------------------------------

class Reference:
    """A fixed kernel timed at both ends of each op segment (see Clock).

    The shared 2-vCPU host this was tuned on switches between a fast and a
    slow state every 1-10 s, which moves 20-s medians of raw op times by
    10-45% from run to run.  Dividing op time by the kernel's time around
    it removes most of that drift, provided the kernel leans on the same
    resources as the op: ``scalar`` (small numpy calls driven from Python)
    for ops made of many small calls, ``bulk`` (FFT and exp over a 2 MB
    array) for ops made of large array passes.  Neither touches vortexfront.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        if kind == "bulk":
            rng = np.random.default_rng(0)
            self.data = rng.standard_normal((64, 64, 32)) + 0j
        else:
            self.data = np.arange(48, dtype=complex) / 48.0

    def seconds(self) -> float:
        a = self.data
        t0 = time.perf_counter()
        if self.kind == "bulk":
            np.fft.fft2(a * np.exp(-0.01 * a.real), axes=(0, 1))
        else:
            z = 0.3 + 0.1j
            for k in range(REF_CALLS):
                z += complex(np.exp(-z * a[k % 8:])[0]) * 1e-9
        return time.perf_counter() - t0

    def at_nominal(self, fn) -> tuple[object, float, float]:
        """Run fn() between two kernel samples.

        fn returns (value, seconds).  The result is (value, seconds, the
        seconds at the kernel's nominal speed): seconds times the nominal
        kernel time over the mean of the two samples.
        """
        before = self.seconds()
        value, seconds = fn()
        ref = 0.5 * (before + self.seconds())
        return value, seconds, seconds * self.nominal_s / ref


class Clock:
    """Times one op in segments and in reference-kernel units.

    ``start`` opens the first segment, and ``lap`` closes one and opens the
    next.  The runner calls ``lap`` when the op returns; a long op with
    several steps also calls it between them, so that the kernel samples
    the host speed near every step.  A segment in reference units is its
    seconds over the mean kernel time at its two ends.  Replay time in a
    traced run is left out.
    """

    def __init__(self, kind: str):
        self.ref = Reference(kind)
        self.tr = None

    def start(self, tr):
        self.tr, self.seconds, self.units = tr, 0.0, 0.0
        self._ref = self.ref.seconds()
        self._replay = tr.replay_s
        self._t0 = time.perf_counter()

    def lap(self):
        if self.tr is None:
            return
        dt = time.perf_counter() - self._t0 - (self.tr.replay_s - self._replay)
        ref = self.ref.seconds()
        self.seconds += dt
        self.units += dt / (0.5 * (self._ref + ref))
        self._ref, self._replay = ref, self.tr.replay_s
        self._t0 = time.perf_counter()


class Workload:
    name = ""
    why = ""
    shape = (0, 0, 0)
    tiny_shape = (16, 16, 48)
    reference = "bulk"  # the Reference kernel of the op Clock

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.shape = self.tiny_shape if tiny else self.shape
        self.workdir = workdir
        self.clock = Clock(self.reference)

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def setup(self) -> None:
        self.field = make_field(self.seed, self.shape)

    def prepare(self, i: int):
        return i

    def working_set_bytes(self) -> int:
        """Field plus the two complex slice stacks of one transform."""
        return 3 * (self.field.f_plus.nbytes + self.field.f_minus.nbytes)

    def vfgrid_bytes(self) -> int | None:
        return None

    def peak_rss_bytes(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    def close(self) -> None:
        pass


class SolveLarge(Workload):
    name = "solve_large"
    why = ("largest arrays (two 67 MB complex slice stacks, far above L2): "
           "bulk FFT, bulk quadrature and the memory peak at one gamma")
    shape = (128, 128, 256)
    gamma, s = 1.0, 0.0
    oracle_bins = 4

    def op(self, i, tr):
        f = self.field
        sol = tr.call("solver.solve_front", vf.solve_front, f, MEDIUM,
                      self.gamma, self.s,
                      replay=lambda sol: replay_solve_front(tr, f, sol))
        nfp = tr.call("transforms.halfspace_norm", vf.halfspace_norm, f.f_plus,
                      f.grid, self.s, self.gamma)
        nfm = tr.call("transforms.halfspace_norm", vf.halfspace_norm,
                      f.f_minus, f.grid, self.s, self.gamma)
        r = self.gamma ** 3 * sol.norms[self.s + 1.0] ** 2 / (nfp ** 2 + nfm ** 2)
        return sol, r

    def check(self, i, result):
        sol, r = result
        problems = []
        if not np.all(np.isfinite(sol.f_phys)):
            problems.append("f_phys is not finite")
        if not (math.isfinite(r) and r > 0.0):
            problems.append(f"r(gamma) = {r!r} is not finite and positive")
        bins = _content_bins(sol.f_hat)
        pick = self.rng(i).choice(len(bins), replace=False,
                                  size=min(self.oracle_bins, len(bins)))
        for it, ix in bins[pick]:
            want = _scalar_f_hat(self.field, self.gamma, it, ix)
            got = complex(sol.f_hat[it, ix])
            if not abs(got - want) <= DFT_RTOL * abs(want):
                problems.append(f"f_hat[{it},{ix}] = {got!r}, direct DFT "
                                f"gives {want!r}")
        return problems


class GammaSweep(Workload):
    name = "gamma_sweep"
    why = ("the same transforms seven times per op at one eighth the size: "
           "reuse across gammas, the s=1 weight and the symbol vector path")
    shape = (64, 64, 192)
    s = 1.0

    def op(self, i, tr):
        f = self.field
        # estimate_constants and its symbol_grid call are traced in place.
        with wrap_globals(tr, vortexfront.solver,
                          {"estimate_constants": "solver.estimate_constants"},
                          inner={"symbol_grid": "symbol.symbol_grid"}):
            return tr.call("solver.verify_estimate", vf.verify_estimate, f,
                           MEDIUM, SWEEP_GAMMAS, self.s,
                           replay=lambda _: replay_verify_estimate(
                               tr, f, SWEEP_GAMMAS, self.s))

    def check(self, i, report):
        """Acceptance criterion 7's row invariants."""
        rs = [row.r for row in report.rows]
        problems = []
        if len(rs) != len(SWEEP_GAMMAS):
            problems.append(f"{len(rs)} rows for {len(SWEEP_GAMMAS)} gammas")
        if not all(math.isfinite(r) and r > 0 for r in rs):
            problems.append(f"r not finite and positive: {rs}")
        elif max(rs) > 10.0 * rs[-1]:
            problems.append(f"max r = {max(rs):.3e} > 10 r(64) = {10 * rs[-1]:.3e}")
        for row in report.rows:
            if not row.pointwise_ok:
                problems.append(f"pointwise inequality fails at gamma={row.gamma}")
            if row.g1_ratio > report.rhs_constant * (1 + 1e-9):
                problems.append(f"g1 ratio {row.g1_ratio:.6e} above "
                                f"{report.rhs_constant:.6e} at gamma={row.gamma}")
        return problems


class PressureBins(Workload):
    name = "pressure_bins"
    why = ("one (delta, eta) bin per op: the per-node pressure loop and "
           "scalar root, symbol and quadrature calls; bulk kernels idle")
    shape = (64, 64, 192)
    gamma = 1.0
    reference = "scalar"

    def setup(self):
        super().setup()
        self.sol = vf.solve_front(self.field, MEDIUM, self.gamma)
        self.slices = vf.spectral_slices(self.field, self.gamma)
        self.bins = _content_bins(self.sol.f_hat)

    def working_set_bytes(self):
        """Two complex slices in, two complex profiles out, per bin."""
        n_x2 = self.field.grid.n_x2
        return 16 * (2 * n_x2 + 2 * (n_x2 + 1))

    def prepare(self, i):
        it, ix = self.bins[self.rng(i).integers(len(self.bins))]
        system = self.sol.system
        return {"freq": _freq(self.field.grid, self.gamma, it, ix),
                "f_hat": complex(self.sol.f_hat[it, ix]),
                "i_plus": complex(system.i_plus[it, ix]),
                "i_minus": complex(system.i_minus[it, ix]),
                "m": complex(system.m[it, ix]),
                "slices": (self.slices[0][it, ix, :], self.slices[1][it, ix, :])}

    def op(self, x, tr):
        freq, slp, slm = x["freq"], *x["slices"]
        dx2 = self.field.grid.dx2
        pair = tr.call("symbol.scalar", vf.decay_root_pair, freq, MEDIUM)
        sigma = tr.call("symbol.scalar", vf.symbol, freq, MEDIUM)
        state = tr.call("pressure.solve_boundary_system", vf.solve_boundary_system,
                        freq, MEDIUM, x["f_hat"], x["i_plus"], x["i_minus"],
                        replay=lambda _: replay_roots(tr, freq))
        with wrap_globals(tr, vortexfront.pressure, PER_NODE_QUADRATURE):
            prof = tr.call("pressure.reconstruct_profile", vf.reconstruct_profile,
                           freq, MEDIUM, state, slp, slm, dx2,
                           replay=lambda _: replay_roots(tr, freq))
        ode = tr.call("pressure.ode_residual", vf.ode_residual, prof, freq,
                      MEDIUM, slp, slm)
        closure = tr.call("pressure.front_equation_residual",
                          vf.front_equation_residual, freq, MEDIUM, state,
                          x["f_hat"], x["m"],
                          replay=lambda _: replay_roots(tr, freq, True))
        return {"pair": pair, "sigma": sigma, "state": state, "profile": prof,
                "ode": ode, "closure": closure}

    def check(self, x, out):
        """Acceptance criterion 9's closure and decay rows at the bin."""
        freq, state = x["freq"], out["state"]
        c2 = MEDIUM.c ** 2
        problems = []
        tol = CLOSURE_RTOL * freq.magnitude_sq * abs(x["f_hat"])
        for label, res in (("op", out["closure"]),
                           ("state", vf.front_equation_residual(
                               freq, MEDIUM, state, x["f_hat"], x["m"]))):
            if not res <= tol:
                problems.append(f"{label} closure residual {res:.3e} > {tol:.3e}")
        mu_p, mu_m = out["pair"].mu_plus, out["pair"].mu_minus
        if not (mu_p.real > 0 and mu_m.real > 0):
            problems.append(f"decay roots {mu_p!r}, {mu_m!r} do not decay")
        if not cmath.isfinite(out["sigma"]) or out["sigma"] == 0:
            problems.append(f"symbol {out['sigma']!r} at the bin")
        dx2 = self.field.grid.dx2
        i_p = complex(vf.halfline_integral(x["slices"][0], mu_p, dx2))
        i_m = complex(vf.halfline_integral(x["slices"][1], mu_m, dx2))
        row_p = state.p_plus0 + state.dp_plus0 / mu_p - i_p / (c2 * mu_p)
        row_m = state.p_minus0 - state.dp_minus0 / mu_m - i_m / (c2 * mu_m)
        scale = (abs(state.p_plus0) + abs(state.dp_plus0 / mu_p)
                 + abs(i_p / (c2 * mu_p)))
        for side, row in (("plus", row_p), ("minus", row_m)):
            if not abs(row) <= DECAY_ROW_RTOL * scale:
                problems.append(f"{side} decay row {abs(row):.3e} > "
                                f"{DECAY_ROW_RTOL * scale:.3e}")
        prof = out["profile"]
        if prof.growing_plus or prof.growing_minus:
            problems.append("profile keeps a growing mode")
        if not all(np.all(np.isfinite(r)) for r in out["ode"]):
            problems.append("ODE residual is not finite")
        return problems


class CliFiles(Workload):
    name = "cli_files"
    why = ("a subprocess pipeline on a fresh 9 MB VFGRID file: import, text "
           "parsing and writing, CSV output and the gamma=0 boundary path")
    shape = (32, 32, 192)
    tiny_shape = (16, 16, 32)
    gamma = 1.0
    reference = "scalar"
    # (min, max, count) of gamma, delta and eta for the grid command; the
    # gamma range starts on the boundary plane, and no node is the origin.
    window = ((0.0, 2.0, 5), (-6.0, 6.3, 101), (-6.1, 6.2, 101))
    tiny_window = ((0.0, 2.0, 3), (-6.0, 6.3, 11), (-6.1, 6.2, 11))
    medium_args = ["--v", "2", "--c", "1"]

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.window = self.tiny_window
        self.env = child_env()
        self.opdir = workdir / "op"
        self._vfgrid_bytes = None
        self.digests: dict[int, dict[str, str]] = {}

    def setup(self):
        pass

    def working_set_bytes(self):
        return self._vfgrid_bytes or 0

    def vfgrid_bytes(self):
        return self._vfgrid_bytes

    def peak_rss_bytes(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024

    def prepare(self, i):
        shutil.rmtree(self.opdir, ignore_errors=True)
        self.opdir.mkdir(parents=True)
        self.field = make_field([self.seed, i], self.shape)
        grid = self.field.grid
        n_t, n_x1 = grid.n_t, grid.n_x1
        rng = self.rng(i)
        it = int(rng.choice([k for k in range(n_t) if k != n_t // 2]))
        ix = int(rng.choice([k for k in range(n_x1) if k != n_x1 // 2]))
        return {"i": i, "field": self.field, "dir": self.opdir,
                "delta": float(grid.delta_axis[it]),
                "eta": float(grid.eta_axis[ix])}

    def _cli(self, tr, cmd, args, outputs, replay=None):
        with tr.span(f"cli.{cmd}") as rec:
            rec.update(run_child([sys.executable, "-m", "vortexfront.cli", cmd,
                                  *self.medium_args, *args], self.env,
                                 self.opdir / f"{cmd}.log"))
            rec["out_bytes"] = sum(p.stat().st_size for p in outputs)
        if replay is not None and tr.active:
            with tr.replaying(tr.last):
                return replay()

    def op(self, x, tr):
        d = x["dir"]
        path = d / "field.vfgrid"
        with tr.span("grids.write_field") as rec:
            vf.write_field(path, x["field"])
        self._vfgrid_bytes = rec["bytes"] = path.stat().st_size
        self.clock.lap()
        src = ["--in", str(path)]
        field = self._cli(tr, "solve", [*src, "--gamma", "1", "--s", "0",
                                        "--out", str(d / "solve")],
                          [d / "solve" / "front.csv", d / "solve" / "norms.json"],
                          replay=lambda: self._replay_read(tr, path))
        self.clock.lap()
        self._cli(tr, "verify", [*src, "--gammas", ",".join(
            f"{g:g}" for g in SWEEP_GAMMAS), "--out", str(d / "verify.csv")],
            [d / "verify.csv"])
        self.clock.lap()
        self._cli(tr, "reconstruct", [*src, "--delta", repr(x["delta"]),
                                      "--eta", repr(x["eta"]),
                                      "--out", str(d / "reconstruct.csv")],
                  [d / "reconstruct.csv"],
                  replay=lambda: self._replay_reconstruct(tr, field, x))
        self.clock.lap()
        window = ",".join(f"{lo!r}:{hi!r}:{n}" for lo, hi, n in self.window)
        self._cli(tr, "grid", ["--window", window,
                               "--out", str(d / "grid.csv")],
                  [d / "grid.csv"], replay=lambda: self._replay_grid(tr))
        return d

    def _replay_read(self, tr, path):
        with tr.span("cli.import") as rec:
            rec["import_s"] = measure_import(self.env)
        with tr.span("grids.read_field") as rec:
            field = vf.read_field(path, gamma=self.gamma)
            rec["bytes"] = path.stat().st_size
        return field

    def _replay_reconstruct(self, tr, field, x):
        freq = vf.Frequency(self.gamma, x["delta"], x["eta"])
        grid = field.grid
        it = int(np.argmin(np.abs(grid.delta_axis - x["delta"])))
        ix = int(np.argmin(np.abs(grid.eta_axis - x["eta"])))
        sol = tr.call("solver.solve_front", vf.solve_front, field, MEDIUM)
        sp, sm = tr.call("transforms.spectral_slices", vf.spectral_slices,
                         field, self.gamma)
        state = tr.call("pressure.solve_boundary_system", vf.solve_boundary_system,
                        freq, MEDIUM, complex(sol.f_hat[it, ix]),
                        complex(sol.system.i_plus[it, ix]),
                        complex(sol.system.i_minus[it, ix]))
        tr.call("pressure.reconstruct_profile", vf.reconstruct_profile, freq,
                MEDIUM, state, sp[it, ix, :], sm[it, ix, :], grid.dx2)

    def _replay_grid(self, tr):
        """The gamma=0 plane of the grid command's window."""
        deltas, etas = (np.linspace(*axis) for axis in self.window[1:])
        dd, ee = np.meshgrid(deltas, etas, indexing="ij")
        tr.call("symbol.boundary_grid", vf.symbol_grid, 0.0 + 1j * dd, ee,
                MEDIUM, boundary=True)

    def check(self, x, d):
        problems = []
        field = vf.read_field(d / "field.vfgrid", gamma=self.gamma)
        sol = vf.solve_front(field, MEDIUM)
        grid = field.grid
        lines = ["t,x1,f"]
        for i, t in enumerate(grid.t_nodes):
            for j, x1 in enumerate(grid.x1_nodes):
                lines.append(f"{float(t):.17g},{float(x1):.17g},"
                             f"{float(sol.f_phys[i, j]):.17g}")
        want = ("\n".join(lines) + "\n").encode()
        if (d / "solve" / "front.csv").read_bytes() != want:
            problems.append("front.csv differs from the in-process solve")
        self.digests[x["i"]] = {str(p.relative_to(d)): hashlib.sha256(
            p.read_bytes()).hexdigest() for p in sorted(d.rglob("*"))
            if p.is_file() and p.suffix in (".csv", ".json")}
        return problems

    def close(self):
        shutil.rmtree(self.opdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SolveLarge, GammaSweep, PressureBins, CliFiles)}


def child_env() -> dict:
    """This process's environment (thread counts included) plus the source
    tree the package was imported from."""
    src = str(Path(vf.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src)


def run_child(argv, env, log: Path) -> dict:
    """Run one child to completion; its exit code and own peak RSS.

    Raises CalledProcessError on a non-zero exit, so the op fails.
    """
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(
            proc.returncode, argv, log.read_text(errors="replace")[-2000:])
    return {"exit": proc.returncode, "rss_bytes": usage.ru_maxrss * 1024}


IMPORT_PROBE = ("import time; t = time.perf_counter(); import vortexfront.cli; "
                "print(repr(time.perf_counter() - t))")


def measure_import(env) -> float:
    """Seconds to import the CLI module in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         check=True, capture_output=True, text=True)
    return float(out.stdout.strip())
