"""The bulk stages give the same bytes whatever the number of cores.

`domain._workers` is patched to 1, 2 and 3, and the work floor of
`domain._split` to 0 so that these small grids are split; every split stage
must write each output entry by the same arithmetic whatever the partition.
"""

import math
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest

import vortexfront as vf
from vortexfront import GridSpec, domain, solver, transforms
from vortexfront.solver import mu_symbol_grid
from vortexfront.transforms import (_depth_pass, _depth_rule, _half_spectrum,
                                    _x2_norm)

from conftest import bump, smooth_field

WORKERS = (1, 2, 3)


def each_worker_count(monkeypatch, fn):
    """fn() once per worker count, its results as lists of bytes."""
    results = []
    monkeypatch.setattr(domain, "_SPLIT_MIN_ENTRIES", 0)
    for k in WORKERS:
        monkeypatch.setattr(domain, "_workers", lambda k=k: k)
        results.append([np.ascontiguousarray(a).tobytes() for a in fn()])
    return results


@pytest.mark.parametrize("n_t", [2, 16])
def test_half_spectrum_is_independent_of_the_core_count(monkeypatch, n_t):
    # The x1 rfft and the depth pass on it.  n_t = 2 leaves one of three
    # workers without a t-plane; blocks of 2 levels (block_entries 8)
    # and one block for the whole stack.  One pass per side, copying, and
    # then in place on x1_hat.
    grid = GridSpec(n_t, 8, 21, 1.0, 1.0, 2.0)
    samples = np.random.default_rng(n_t).standard_normal((2, n_t, 8, 21))
    tau = 1.5 + 1j * grid.delta_axis[:, None]
    mus = [mu[:, :5] for mu in mu_symbol_grid(tau, grid.eta_axis[None, :],
                                              vf.Medium.symmetric(2.0, 1.0))[:2]]

    def run():
        out = []
        for block_entries in (8, 1 << 16):
            monkeypatch.setattr(vf.quadrature, "_LEVEL_BLOCK_ENTRIES", block_entries)
            spectra = [_half_spectrum(f, grid) for f in samples]
            out += [spec.copy() for spec in spectra]
            for in_place in (False, True):
                for spec, mu in zip(spectra, mus):
                    ints, norm = _depth_pass(spec, grid, 1.5,
                                             _depth_rule(grid, mu), 0.7, in_place)
                    out += [*ints, np.array(norm)]
        return out

    first, *rest = each_worker_count(monkeypatch, run)
    assert all(r == first for r in rest)
    for lo in (0, 14):  # copying and in-place passes, per block size
        assert first[lo + 2:lo + 8] == first[lo + 8:lo + 14]


def test_halfspace_norm_is_independent_of_the_core_count(monkeypatch):
    # At s = 0 the per-level sums split over t-planes, each entry summing
    # its x1 terms in order: bitwise the former one-call einsum.  At s = 1
    # the x1 rfft and the depth pass split.  n_t = 2 leaves one of three
    # workers without a t-plane; n_x2 is odd.
    def run():
        out = []
        for n_t in (2, 16):
            grid = GridSpec(n_t, 8, 21, 1.0, 1.0, 2.0)
            samples = np.random.default_rng(n_t).standard_normal((n_t, 8, 21))
            out += [np.array([vf.halfspace_norm(samples, grid, s, 1.5)
                              for s in (0.0, 1.0)])]
            whole = (np.exp(-3.0 * grid.t_nodes)
                     @ np.einsum("ijk,ijk->ik", samples, samples))
            assert out[-1][0] == _x2_norm((grid.dt * grid.dx1) * whole, grid, 0.0, 1.5)
        return out

    first, *rest = each_worker_count(monkeypatch, run)
    assert all(r == first for r in rest)


@pytest.mark.parametrize("n_t", [2, 16])
@pytest.mark.parametrize("chunks_per_core", [1, 4])
def test_build_system_is_independent_of_the_core_count_and_chunks(
        monkeypatch, n_t, chunks_per_core):
    # The x1 transform splits over t-planes and the depth pass over level
    # blocks: on one worker one chunk takes every plane, on three some take
    # fewer or none (n_t = 2).  Every array of the system is the same bytes.
    monkeypatch.setattr(domain, "_CHUNKS_PER_CORE", chunks_per_core)
    grid = GridSpec(n_t, 8, 21, 1.0, 1.0, 2.0)
    taper = bump(grid.x2_nodes / grid.L_x2)
    f = np.random.default_rng(n_t).standard_normal((2, n_t, 8, 21)) * taper
    field = vf.FieldGrid(f[0], f[1], grid)
    medium = vf.Medium.symmetric(2.0, 1.0)
    first, *rest = each_worker_count(
        monkeypatch, lambda: astuple(vf.build_system(field, medium, 1.5)))
    assert all(r == first for r in rest)


def test_one_solve_transforms_both_sides_into_one_array(monkeypatch):
    # The roots are formed once, before either transform.  Side + is then
    # transformed, its rule built from mu+, and passed in place (joined into
    # I+) before side - is transformed into the array side +'s transform
    # returned; side -'s rule, from mu-, is built after that transform, and
    # side +'s rule is dead by then.
    import weakref
    field = smooth_field(n_t=16, n_x1=32, n_x2=24, y_width=0.5)
    medium = vf.Medium.symmetric(2.0, 1.0)
    events, rules = [], []
    real_half, real_roots, real_pass, real_rule = (
        solver._half_spectrum, solver.mu_symbol_grid, solver._depth_pass,
        transforms._DepthSum)

    def half_spectrum(samples, grid, x1_hat=None):
        events.append(("transform",))
        out = real_half(samples, grid, x1_hat)
        events.append(("transformed", samples, x1_hat, out))
        return out

    def roots_at(*args):
        events.append(("roots",))
        return real_roots(*args)

    def depth_pass(x1_hat, grid, gamma, rule, s, in_place):
        built = [ref() is rule for ref in rules].index(True)
        events.append(("pass", x1_hat, built, in_place))
        return real_pass(x1_hat, grid, gamma, rule, s, in_place)

    def depth_sum(mu, *args):
        rule = real_rule(mu, *args)
        events.append(("rule", mu, [ref() is not None for ref in rules]))
        rules.append(weakref.ref(rule))
        return rule

    monkeypatch.setattr(solver, "_half_spectrum", half_spectrum)
    monkeypatch.setattr(solver, "mu_symbol_grid", roots_at)
    monkeypatch.setattr(solver, "_depth_pass", depth_pass)
    monkeypatch.setattr(transforms, "_DepthSum", depth_sum)
    sol = vf.solve_front(field, medium, 1.5)
    assert [kind for kind, *_ in events] == [
        "roots", "transform", "transformed", "rule", "pass",
        "transform", "transformed", "rule", "pass"]
    (_, _, (plus, given, x1_hat), (mu_p, alive_p), (into_p, rule_p, in_p),
     _, (minus, reused, out), (mu_m, alive_m), (into_m, rule_m, in_m)) = [
        data for _, *data in events]
    assert plus is field.f_plus and minus is field.f_minus
    assert given is None and reused is x1_hat and out is x1_hat
    assert into_p is x1_hat and into_m is x1_hat and in_p and in_m
    assert (alive_p, alive_m) == ([], [False])
    assert (rule_p, rule_m, len(rules)) == (0, 1, 2)
    for mu, want in ((mu_p, sol.system.mu_plus), (mu_m, sol.system.mu_minus)):
        assert mu.tobytes() == np.ascontiguousarray(want[:, :17]).tobytes()


def test_solve_and_estimate_are_independent_of_the_core_count(monkeypatch):
    # An even and an odd n_x2, with s = 0 and 1; the sweep's three gammas
    # and its constants are items of one split, and every number of the
    # report is compared.  The constants, merged from the items, are also
    # those of the gammas in reverse order.
    medium = vf.Medium.symmetric(2.0, 1.0)

    def run():
        out = []
        for n_x2, s in ((24, 0.0), (25, 1.0)):
            field = smooth_field(n_t=16, n_x1=32, n_x2=n_x2, y_width=0.5)
            sol = vf.solve_front(field, medium, 1.5, s)
            report = vf.verify_estimate(field, medium, [1.0, 3.0, 10.0], s)
            reverse = vf.verify_estimate(field, medium, [10.0, 3.0, 1.0], s)
            assert (np.array(astuple(reverse.constants)).tobytes()
                    == np.array(astuple(report.constants)).tobytes())
            out += [sol.f_hat, sol.f_phys, sol.system.i_plus, sol.system.i_minus,
                    np.array([astuple(r) for r in report.rows]),
                    np.array(astuple(report.constants)),
                    np.array([report.ratio_sup_sq, report.rhs_constant,
                              *report.norm_f_plus.values(),
                              *report.norm_f_minus.values()])]
        return out

    first, *rest = each_worker_count(monkeypatch, run)
    assert all(r == first for r in rest)


def test_estimate_constants_in_chunks_are_the_one_shot_constants(monkeypatch):
    # The chunked evaluation against the former whole-array body, kept here
    # as the reference: bitwise equal, in the weakly stable and the
    # elliptic regime, and with chunks that divide nothing (7) and that
    # take the whole sample (1 << 20).
    for medium in (vf.Medium.symmetric(2.0, 1.0), vf.Medium.symmetric(1.2, 1.0)):
        want = astuple(one_shot_constants(medium))
        for chunk in (solver._CONSTANTS_CHUNK, 7, 1 << 20):
            monkeypatch.setattr(solver, "_CONSTANTS_CHUNK", chunk)
            got = astuple(solver.estimate_constants(medium))
            assert np.array(got).tobytes() == np.array(want).tobytes(), chunk


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("mach", [1.5, 2.0, 3.0])
def test_sweep_constants_are_those_of_the_projected_bins(mach, c):
    # A sweep merges the hemisphere's constants with each gamma's extrema of
    # its own Sigma, scaled by Lambda.  The reference evaluates Sigma again
    # at every bin projected onto the unit hemisphere, as sweeps once did;
    # homogeneity makes the two agree to rounding.
    medium = vf.Medium(mach * c, c)
    field = smooth_field(n_t=16, n_x1=32, n_x2=24, y_width=0.5)
    gammas = [1.0, 3.0, 10.0]
    bins = np.meshgrid(np.array(gammas), field.grid.delta_axis,
                       field.grid.eta_axis, indexing="ij")
    got = astuple(vf.verify_estimate(field, medium, gammas, 0.0).constants)
    want = astuple(one_shot_constants(medium, bins))
    for a, b in zip(got, want):
        assert a == b or abs(a - b) <= 1e-13 * abs(b), (got, want)


def one_shot_constants(medium, extra_points=None):
    """estimate_constants as one evaluation over every point, with the
    (gamma, delta, eta) arrays extra_points projected onto the hemisphere."""
    report = vf.classify(medium)
    n_polar, n_azimuth, radius = solver._N_POLAR, solver._N_AZIMUTH, solver._RAY_RADIUS
    psi = (np.arange(n_polar) + 0.5) * (0.5 * np.pi / n_polar)
    theta = (np.arange(n_azimuth) + 0.5) * (2.0 * np.pi / n_azimuth)
    g = (np.cos(psi)[:, None] * np.ones_like(theta)[None, :]).ravel()
    d = (np.sin(psi)[:, None] * np.cos(theta)[None, :]).ravel()
    e = (np.sin(psi)[:, None] * np.sin(theta)[None, :]).ravel()
    if extra_points is not None:
        ge, de, ee = (np.asarray(a, dtype=float).ravel() for a in extra_points)
        lam = np.sqrt(ge * ge + de * de + ee * ee)
        g = np.concatenate((g, ge / lam))
        d = np.concatenate((d, de / lam))
        e = np.concatenate((e, ee / lam))
    keep = g > 0.0
    g, d, e = g[keep], d[keep], e[keep]
    tau = g + 1j * d
    sigma = vf.symbol_grid(tau, e, medium)
    abs_sigma = np.abs(sigma)
    c_bound = float(abs_sigma.max())
    c_pointwise = float(((abs_sigma / g) ** 2).min()) * (1.0 - 1e-9)
    if report.stability_class is vf.StabilityClass.WEAKLY_STABLE:
        c, y2 = medium.c, report.y2
        to_upper = np.abs(tau - 1j * c * y2 * e)
        to_lower = np.abs(tau + 1j * c * y2 * e)
        near = np.minimum(to_upper, to_lower) < radius
        c_elliptic = float(abs_sigma[~near].min())
        sign = np.where(to_upper <= to_lower, 1.0, -1.0)
        cof = np.abs(sigma[near] / (tau[near] - sign[near] * 1j * c * y2 * e[near]))
        c_cofactor = float(cof.min()) if near.any() else math.inf
    else:
        c_elliptic = float(abs_sigma.min())
        c_cofactor = math.inf
    return solver.EstimateConstants(c_elliptic, c_cofactor, c_pointwise, c_bound)


def test_small_grids_start_no_thread(monkeypatch):
    # A 16x16x32 solve and verify stay below the work floor of every split:
    # no thread starts, and the results are bitwise those of a split run.
    field = smooth_field(n_t=16, n_x1=16, n_x2=32)
    medium = vf.Medium.symmetric(2.0, 1.0)

    def run():
        sol = vf.solve_front(field, medium, 1.5, 1.0)
        report = vf.verify_estimate(field, medium, [1.0, 3.0], 1.0)
        rows = [[getattr(r, k) for k in ("r", "r_prime", "g1_ratio", "norm_f")]
                for r in report.rows]
        return [np.ascontiguousarray(a).tobytes()
                for a in (sol.f_hat, sol.f_phys, sol.system.i_plus, np.array(rows))]

    monkeypatch.setattr(domain, "_workers", lambda: 3)
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or real_start(self))
    alone = run()
    assert started == []
    monkeypatch.setattr(domain, "_SPLIT_MIN_ENTRIES", 0)
    assert run() == alone
    assert started


def on_three_threads(monkeypatch):
    """Three workers, each made to take one of the three chunks of range(3)."""
    monkeypatch.setattr(domain, "_workers", lambda: 3)
    monkeypatch.setattr(domain, "_CHUNKS_PER_CORE", 1)
    monkeypatch.setattr(domain, "_SPLIT_MIN_ENTRIES", 0)
    return threading.Barrier(3, timeout=30).wait


def test_split_reraises_a_worker_error(monkeypatch):
    meet = on_three_threads(monkeypatch)
    before = threading.active_count()

    def fn(lo, hi):
        meet()
        if threading.current_thread() is not threading.main_thread():
            raise ValueError(f"chunk [{lo}, {hi})")

    with pytest.raises(ValueError, match="chunk"):
        domain._split(fn, 3, 3)
    assert threading.active_count() == before


def test_split_workers_keep_the_callers_errstate(monkeypatch):
    meet = on_three_threads(monkeypatch)

    def fn(lo, hi):
        meet()
        if threading.current_thread() is not threading.main_thread():
            np.ones(1) / np.zeros(1)

    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            domain._split(fn, 3, 3)


def test_a_split_inside_a_worker_starts_no_thread(monkeypatch):
    # The sweep's items run depth passes whose own _split runs inline on
    # the item's thread: only the outer split starts threads.
    monkeypatch.setattr(domain, "_workers", lambda: 3)
    monkeypatch.setattr(domain, "_SPLIT_MIN_ENTRIES", 0)
    started, inner = [], []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or real_start(self))

    def outer(lo, hi):
        domain._split(lambda a, b: inner.append(
            (lo, a, b, threading.current_thread())), 5, 5)

    domain._split(outer, 6, 6)
    assert len(started) == 2
    assert sorted((lo, a, b) for lo, a, b, _ in inner) == [
        (lo, 0, 5) for lo in range(6)]
    outer_threads = {*started, threading.main_thread()}
    assert all(t in outer_threads for *_, t in inner)
    domain._split(lambda lo, hi: inner.append(threading.current_thread()), 6, 6)
    assert len(started) == 4  # the flag does not outlive the outer split


@pytest.mark.parametrize("k", WORKERS)
def test_split_raises_the_lowest_failing_index(monkeypatch, k):
    # Index 5 fails first in time, index 2 after it: the error raised is
    # index 2's, the one a serial loop meets first, whatever the workers.
    monkeypatch.setattr(domain, "_workers", lambda: k)
    monkeypatch.setattr(domain, "_SPLIT_MIN_ENTRIES", 0)
    five_failed = threading.Event()

    def fn(lo, hi):
        for i in range(lo, hi):
            if i == 2:
                if k > 1:
                    assert five_failed.wait(timeout=30)
                raise ValueError("index 2")
            if i == 5:
                five_failed.set()
                raise ValueError("index 5")

    with pytest.raises(ValueError, match="index 2"):
        domain._split(fn, 8, 8)


def test_split_covers_every_index_once_with_more_workers_than_cores(monkeypatch):
    # Sixteen workers with a short switch interval: each index of every
    # split is written by exactly one chunk.
    monkeypatch.setattr(domain, "_workers", lambda: 16)
    monkeypatch.setattr(domain, "_SPLIT_MIN_ENTRIES", 0)
    counts = np.zeros(1000, dtype=int)

    def fn(lo, hi):
        for i in range(lo, hi):
            counts[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            domain._split(fn, len(counts), len(counts))
    finally:
        sys.setswitchinterval(interval)
    assert np.all(counts == 20)
