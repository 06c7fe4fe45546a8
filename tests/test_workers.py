"""The bulk stages give the same bytes whatever the number of cores.

`domain._workers` is patched to 1, 2 and 3, and the work floor of
`domain._split` to 0 so that these small grids are split; every split stage
must write each output entry by the same arithmetic whatever the partition.
"""

import sys
import threading

import numpy as np
import pytest

import vortexfront as vf
from vortexfront import GridSpec, domain
from vortexfront.solver import mu_symbol_grid
from vortexfront.transforms import _depth_pass, _HalfSpectrum

from conftest import smooth_field

WORKERS = (1, 2, 3)


def each_worker_count(monkeypatch, fn):
    """fn() once per worker count, its results as lists of bytes."""
    results = []
    monkeypatch.setattr(domain, "_SPLIT_MIN_ENTRIES", 0)
    for k in WORKERS:
        monkeypatch.setattr(domain, "_workers", lambda k=k: k)
        results.append([np.ascontiguousarray(a).tobytes() for a in fn()])
    return results


@pytest.mark.parametrize("n_t", [1, 2, 16])
def test_half_spectrum_is_independent_of_the_core_count(monkeypatch, n_t):
    # The x1 rfft and the depth pass on it.  n_t = 1 and 2 leave some of
    # three workers without a t-plane; blocks of 2 levels (block_entries 8)
    # and one block for the whole stack.  Both sides in one pass, copying,
    # and then in place on x1_hat.
    grid = GridSpec(n_t, 8, 21, 1.0, 1.0, 2.0)
    samples = np.random.default_rng(n_t).standard_normal((2, n_t, 8, 21))
    tau = 1.5 + 1j * grid.delta_axis[:, None]
    mus = [mu[:, :5] for mu in mu_symbol_grid(tau, grid.eta_axis[None, :],
                                              vf.Medium.symmetric(2.0, 1.0))[:2]]

    def run():
        out = []
        for block_entries in (8, 1 << 16):
            monkeypatch.setattr(vf.quadrature, "_LEVEL_BLOCK_ENTRIES", block_entries)
            spectra = [_HalfSpectrum(f, grid) for f in samples]
            out += [spec.x1_hat.copy() for spec in spectra]
            for in_place in (False, True):
                (i_p, i_m), norms = _depth_pass(spectra, 1.5, mus, 0.7, in_place)
                out += [*i_p, *i_m, np.array(norms)]
        return out

    first, *rest = each_worker_count(monkeypatch, run)
    assert all(r == first for r in rest)
    for lo in (0, 12):  # copying and in-place passes, per block size
        assert first[lo + 2:lo + 7] == first[lo + 7:lo + 12]


def test_solve_and_estimate_are_independent_of_the_core_count(monkeypatch):
    # An even and an odd n_x2, with s = 0 and 1.
    medium = vf.Medium.symmetric(2.0, 1.0)

    def run():
        out = []
        for n_x2, s in ((24, 0.0), (25, 1.0)):
            field = smooth_field(n_t=16, n_x1=32, n_x2=n_x2, y_width=0.5)
            sol = vf.solve_front(field, medium, 1.5, s)
            report = vf.verify_estimate(field, medium, [1.0, 3.0], s)
            out += [sol.f_hat, sol.f_phys, sol.system.i_plus, sol.system.i_minus,
                    np.array([[getattr(r, k) for k in (
                        "r", "r_prime", "g1_ratio", "pointwise_min", "norm_f",
                        "norm_g")] for r in report.rows])]
        return out

    first, *rest = each_worker_count(monkeypatch, run)
    assert all(r == first for r in rest)


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
