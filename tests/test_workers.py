"""The bulk stages give the same bytes whatever the number of cores.

`domain._workers` is patched to 1, 2 and 3; every split stage must write
each output entry by the same arithmetic whatever the partition.
"""

import sys
import threading

import numpy as np
import pytest

import vortexfront as vf
from vortexfront import GridSpec, domain
from vortexfront.transforms import _HalfSpectrum

from conftest import smooth_field

WORKERS = (1, 2, 3)


def each_worker_count(monkeypatch, fn):
    """fn() once per worker count, its results as lists of bytes."""
    results = []
    for k in WORKERS:
        monkeypatch.setattr(domain, "_workers", lambda k=k: k)
        results.append([np.ascontiguousarray(a).tobytes() for a in fn()])
    return results


@pytest.mark.parametrize("n_t", [1, 2, 16])
def test_half_spectrum_is_independent_of_the_core_count(monkeypatch, n_t):
    # n_t = 1 and 2 leave some of three workers without a t-plane.
    grid = GridSpec(n_t, 8, 21, 1.0, 1.0, 2.0)
    samples = np.random.default_rng(n_t).standard_normal((n_t, 8, 21))

    def run():
        spec = _HalfSpectrum(samples, grid)
        x1_hat = spec.x1_hat.copy()
        return x1_hat, spec.slices(1.5), spec.slices(1.5, in_place=True)

    first, *rest = each_worker_count(monkeypatch, run)
    assert all(r == first for r in rest)
    assert first[1] == first[2]  # copying and in-place slices


def test_solve_and_estimate_are_independent_of_the_core_count(monkeypatch):
    field = smooth_field(n_t=16, n_x1=32, n_x2=24, y_width=0.5)
    medium = vf.Medium.symmetric(2.0, 1.0)

    def run():
        sol = vf.solve_front(field, medium, 1.5)
        report = vf.verify_estimate(field, medium, [1.0, 3.0], 0.0)
        return [sol.f_hat, sol.f_phys, sol.system.i_plus, sol.system.i_minus,
                np.array([[getattr(r, k) for k in ("r", "r_prime", "g1_ratio",
                                                   "pointwise_min", "norm_f",
                                                   "norm_g")]
                          for r in report.rows])]

    first, *rest = each_worker_count(monkeypatch, run)
    assert all(r == first for r in rest)


def on_three_threads(monkeypatch):
    """Three workers, each made to take one of the three chunks of range(3)."""
    monkeypatch.setattr(domain, "_workers", lambda: 3)
    monkeypatch.setattr(domain, "_CHUNKS_PER_CORE", 1)
    return threading.Barrier(3, timeout=30).wait


def test_split_reraises_a_worker_error(monkeypatch):
    meet = on_three_threads(monkeypatch)
    before = threading.active_count()

    def fn(lo, hi):
        meet()
        if threading.current_thread() is not threading.main_thread():
            raise ValueError(f"chunk [{lo}, {hi})")

    with pytest.raises(ValueError, match="chunk"):
        domain._split(fn, 3)
    assert threading.active_count() == before


def test_split_workers_keep_the_callers_errstate(monkeypatch):
    meet = on_three_threads(monkeypatch)

    def fn(lo, hi):
        meet()
        if threading.current_thread() is not threading.main_thread():
            np.ones(1) / np.zeros(1)

    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            domain._split(fn, 3)


def test_split_covers_every_index_once_with_more_workers_than_cores(monkeypatch):
    # Sixteen workers with a short switch interval: each index of every
    # split is written by exactly one chunk.
    monkeypatch.setattr(domain, "_workers", lambda: 16)
    counts = np.zeros(1000, dtype=int)

    def fn(lo, hi):
        for i in range(lo, hi):
            counts[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            domain._split(fn, len(counts))
    finally:
        sys.setswitchinterval(interval)
    assert np.all(counts == 20)
