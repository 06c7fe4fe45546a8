import cmath
import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import vortexfront as vf
from vortexfront import FieldGrid, Frequency, GridSpec, Medium, RegimeError, solver
from vortexfront.solver import _bin_system, _front_hat
from vortexfront.symbol import mu_grid

from conftest import (bump, exp_oracle_field, fft2_halfspace_norm, mirror_field,
                      smooth_field)


def check_hermitian_and_complex_path(sol, field, medium):
    """f_hat is Hermitian and equals the solve on the full complex slices."""
    grid = field.grid
    scale = np.max(np.abs(sol.f_hat))
    mirror = sol.f_hat[-np.arange(grid.n_t)][:, -np.arange(grid.n_x1)]
    assert np.max(np.abs(sol.f_hat - np.conj(mirror))) <= 1e-14 * scale
    sp, sm = vf.spectral_slices(field, sol.gamma)
    for arr in (sp, sm):
        arr[grid.n_t // 2, :, :] = 0.0
        arr[:, grid.n_x1 // 2, :] = 0.0
    tau = sol.gamma + 1j * grid.delta_axis[:, None]
    eta = grid.eta_axis[None, :]
    mu_p = mu_grid(tau, eta, medium.v1_plus, medium.c)
    mu_m = mu_grid(tau, eta, medium.v1_minus, medium.c)
    m = (vf.halfline_integral(sp, mu_p, grid.dx2) / mu_p
         - vf.halfline_integral(sm, mu_m, grid.dx2) / mu_m)
    ref = -(mu_p * mu_m / (mu_p + mu_m)) * m / vf.symbol_grid(tau, eta, medium)
    assert np.max(np.abs(sol.f_hat - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_halfline_integral_exponential_oracle():
    # integral_0^L exp(-(mu+1) y) dy against the closed form
    mu = 1.1 + 0.6j
    L, n = 14.0, 512
    h = L / n
    y = np.arange(1, n + 1) * h
    vals = np.exp(-y)
    got = complex(vf.halfline_integral(vals, np.asarray(mu), h))
    exact = (1.0 - cmath.exp(-(mu + 1.0) * L)) / (mu + 1.0)
    assert abs(got - exact) <= 1e-7 * abs(exact)


def test_forcing_functional_exponential_oracle():
    med = Medium.symmetric(10.0, 4.0)
    freq = Frequency(1.0, 0.0, 0.0)
    mu = vf.decay_root(freq, med.v1_plus, med.c)
    field = exp_oracle_field(512)
    spec = vf.weighted_forward(field.f_plus, field.grid, freq.gamma)
    amp = spec[0, 0, 0] / math.exp(-field.grid.x2_nodes[0])
    mv = vf.forcing_functional(field, freq, med)
    exact = amp / (mu * (mu + 1.0))
    assert abs(mv.value - exact) <= 1e-8 * abs(exact)
    assert mv.truncation_bound < 1e-6


def test_forcing_functional_cancellation_and_zero():
    grid = GridSpec(8, 4, 64, 2.0, 1.0, 15.0)
    y = grid.x2_nodes
    f = np.exp(-y)[None, None, :] * np.ones((8, 4, 1))
    both = FieldGrid(f, f.copy(), grid)
    freq = Frequency(1.0, 0.0, 0.0)  # eta = 0: mu+ = mu-, the terms cancel
    med = Medium.symmetric(2.0, 1.0)
    assert vf.forcing_functional(both, freq, med).value == 0.0
    zero = FieldGrid(np.zeros((8, 4, 64)), np.zeros((8, 4, 64)), grid)
    assert vf.forcing_functional(zero, freq, med).value == 0.0


def test_forcing_functional_requires_grid_bin():
    field = exp_oracle_field(32)
    med = Medium.symmetric(2.0, 1.0)
    with pytest.raises(ValueError, match="grid frequency"):
        vf.forcing_functional(field, Frequency(1.0, 0.123, 0.0), med)
    with pytest.raises(ValueError, match="gamma"):
        vf.forcing_functional(field, Frequency(0.5, 0.0, 0.0), med)


@pytest.mark.parametrize("gamma", [1.0, 3.0])
def test_bin_system_matches_build_system(weakly_stable, gamma):
    # The plus-side bump reaches L_x2, so the truncation bound is not zero.
    field = smooth_field(n_t=16, n_x1=16, y_width=2.05)
    grid = field.grid
    full = vf.build_system(field, weakly_stable, gamma)
    f_hat = vf.solve_front(field, weakly_stable, gamma).f_hat
    scale = {k: np.max(np.abs(v)) for k, v in
             (("m", full.m), ("g_hat", full.g_hat), ("f_hat", f_hat))}
    for it in range(grid.n_t):
        for ix in range(grid.n_x1):
            if it == grid.n_t // 2 or ix == grid.n_x1 // 2:
                continue
            freq = Frequency(gamma, float(grid.delta_axis[it]),
                             float(grid.eta_axis[ix]))
            one, _, at = _bin_system(field, freq, weakly_stable)
            assert at == freq
            got = {"m": one.m, "g_hat": one.g_hat, "f_hat": _front_hat(one)}
            want = {"m": full.m[it, ix], "g_hat": full.g_hat[it, ix],
                    "f_hat": f_hat[it, ix]}
            for k in got:
                assert abs(got[k] - want[k]) <= 1e-13 * scale[k], (it, ix, k)
            bound = full.trunc_plus[it, ix] + full.trunc_minus[it, ix]
            assert bound > 0.0
            assert abs(one.trunc_plus + one.trunc_minus - bound) \
                <= 1e-12 * bound


def test_forcing_functional_refuses_nyquist_bins(weakly_stable):
    field = smooth_field(n_t=16, n_x1=8, n_x2=24)
    grid = field.grid
    for delta, eta in ((grid.delta_axis[8], 0.0), (0.0, grid.eta_axis[4])):
        with pytest.raises(ValueError, match="Nyquist"):
            vf.forcing_functional(field, Frequency(1.0, delta, eta),
                                  weakly_stable)


def test_forcing_functional_names_the_axis_end_for_a_far_value(weakly_stable):
    # Every distance to 1e300 rounds to 1e300, so a plain argmin named bin 0.
    # Clipped to the axis first, +1e300 is nearest the top bin, off the grid,
    # and -1e300 the bottom one, the unpaired Nyquist bin.
    field = smooth_field(n_t=16, n_x1=8, n_x2=24)
    grid = field.grid
    for name, axis in (("delta", grid.delta_axis), ("eta", grid.eta_axis)):
        for value, want in (
                (1e300, f"{name} = 1e+300 is not a grid frequency "
                        f"(nearest bin {axis.max():g})"),
                (-1e300, f"{name} = {axis.min():.12g} is an unpaired Nyquist "
                         "bin, which the solver zeroes")):
            freq = Frequency(1.0, *((value, 0.0) if name == "delta" else (0.0, value)))
            with pytest.raises(ValueError) as exc:
                vf.forcing_functional(field, freq, weakly_stable)
            assert str(exc.value) == want


def test_forcing_functional_reads_one_bin(weakly_stable):
    # One bin needs its two x2 profiles, not the transform of the field.
    field = smooth_field()
    freq = Frequency(1.0, float(field.grid.delta_axis[3]),
                     float(field.grid.eta_axis[-2]))
    tracemalloc.start()
    try:
        vf.forcing_functional(field, freq, weakly_stable)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * field.f_plus.nbytes


def test_quadrature_order_under_doubling():
    med = Medium.symmetric(10.0, 4.0)
    freq = Frequency(1.0, 0.0, 0.0)
    mu = vf.decay_root(freq, med.v1_plus, med.c)
    errs = {}
    for n in (64, 128, 256, 512):
        field = exp_oracle_field(n)
        spec = vf.weighted_forward(field.f_plus, field.grid, freq.gamma)
        amp = spec[0, 0, 0] / math.exp(-field.grid.x2_nodes[0])
        exact = amp / (mu * (mu + 1.0))
        errs[n] = abs(vf.forcing_functional(field, freq, med).value - exact) / abs(exact)
    assert errs[64] > errs[128] > errs[256] > errs[512]
    mean_order = math.log2(errs[64] / errs[512]) / 3.0
    assert mean_order >= 3.5


def test_solve_front_zero_field(weakly_stable):
    grid = GridSpec(16, 8, 32, 1.0, 1.0, 2.0)
    zero = FieldGrid(np.zeros((16, 8, 32)), np.zeros((16, 8, 32)), grid)
    sol = vf.solve_front(zero, weakly_stable)
    assert np.all(sol.f_hat == 0.0)
    assert np.all(sol.f_phys == 0.0)
    assert sol.norms[1.0] == 0.0


def test_solve_front_single_mode(weakly_stable):
    grid = GridSpec(32, 16, 64, 2.0, 1.0, 12.0)
    t, x1, y = grid.t_nodes, grid.x1_nodes, grid.x2_nodes
    d0, e0 = grid.delta_axis[3], grid.eta_axis[2]
    phi = np.exp(-((y - 1.0) / 0.8) ** 2) * y
    fp = (np.exp(grid.gamma * t) * np.cos(d0 * t))[:, None, None] \
        * np.cos(e0 * x1)[None, :, None] * phi[None, None, :]
    field = FieldGrid(fp, np.zeros_like(fp), grid)
    sol = vf.solve_front(field, weakly_stable)
    mags = np.abs(sol.f_hat)
    nz = {tuple(ix) for ix in np.argwhere(mags > 1e-12 * mags.max())}
    assert nz == {(3, 2), (3, 14), (29, 2), (29, 14)}
    # hand-evaluate the four factors at the bin through the scalar path
    freq = Frequency(1.0, float(d0), float(e0))
    mu_p = vf.decay_root(freq, weakly_stable.v1_plus, 1.0)
    mu_m = vf.decay_root(freq, weakly_stable.v1_minus, 1.0)
    sp, sm = vf.spectral_slices(field, 1.0)
    i_p = complex(vf.halfline_integral(sp[3, 2, :], mu_p, grid.dx2))
    i_m = complex(vf.halfline_integral(sm[3, 2, :], mu_m, grid.dx2))
    m_val = i_p / mu_p - i_m / mu_m
    expected = -(mu_p * mu_m / (mu_p + mu_m)) * m_val / vf.symbol(freq, weakly_stable)
    assert abs(sol.f_hat[3, 2] - expected) <= 1e-12 * abs(expected)
    check_hermitian_and_complex_path(sol, field, weakly_stable)


def test_solve_front_linearity(fixture_field, fixture_solution, weakly_stable):
    doubled = vf.solve_front(fixture_field.scaled(2.0), weakly_stable)
    scale = np.max(np.abs(doubled.f_hat))
    assert np.max(np.abs(doubled.f_hat - 2.0 * fixture_solution.f_hat)) <= 1e-12 * scale
    n1 = fixture_solution.norms[1.0]
    assert doubled.norms[1.0] == pytest.approx(2.0 * n1, rel=1e-12)


def test_solve_front_superposition(weakly_stable):
    f1 = smooth_field(n_t=16, n_x1=16, n_x2=48)
    grid = f1.grid
    rng = np.random.default_rng(59)
    taper = bump(grid.x2_nodes / 0.5)
    g2 = rng.standard_normal((16, 16, 1)) * taper[None, None, :]
    f2 = FieldGrid(g2 * 1.0, 0.3 * g2, grid)
    a, b = 1.7, -0.4
    combo = FieldGrid(a * f1.f_plus + b * f2.f_plus,
                      a * f1.f_minus + b * f2.f_minus, grid)
    s_combo = vf.solve_front(combo, weakly_stable)
    s1 = vf.solve_front(f1, weakly_stable)
    s2 = vf.solve_front(f2, weakly_stable)
    lhs = s_combo.f_hat
    rhs = a * s1.f_hat + b * s2.f_hat
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_solve_front_translation_covariance(weakly_stable):
    field = smooth_field(n_t=32, n_x1=16, n_x2=48)
    grid = field.grid
    k = 5
    shifted = FieldGrid(np.roll(field.f_plus, k, axis=0),
                        np.roll(field.f_minus, k, axis=0), grid)
    sol = vf.solve_front(field, weakly_stable)
    sol_s = vf.solve_front(shifted, weakly_stable)
    dt = k * grid.dt
    phase = math.exp(-grid.gamma * dt) * np.exp(-1j * grid.delta_axis * dt)
    pred = phase[:, None] * sol.f_hat
    assert np.max(np.abs(sol_s.f_hat - pred)) <= 1e-11 * np.max(np.abs(pred))


@pytest.mark.parametrize("gamma", [1.0, 3.0])
@pytest.mark.parametrize("v", [1.6, 2.0, 4.0])
def test_mirrored_forcing_gives_an_odd_front(fixture_field, v, gamma):
    # End to end through the inverse transform: f(t, -x1) = -f(t, x1) for
    # the mirrored forcing, while the generic field's front is far from odd.
    flip = -np.arange(fixture_field.grid.n_x1) % fixture_field.grid.n_x1

    def odd_defect(field):
        f = vf.solve_front(field, Medium(v, 1.0), gamma=gamma).f_phys
        return np.max(np.abs(f + f[:, flip])) / np.max(np.abs(f))

    assert odd_defect(mirror_field(fixture_field)) <= 1e-14
    assert odd_defect(fixture_field) > 1.0


def test_solve_front_refusals(fixture_field):
    with pytest.raises(RegimeError) as exc:
        vf.solve_front(fixture_field, Medium.symmetric(1.0, 1.0))
    assert "elliptic_unstable" in str(exc.value)
    with pytest.raises(RegimeError) as exc:
        vf.solve_front(fixture_field, Medium.symmetric(math.sqrt(2.0), 1.0))
    assert "transition" in str(exc.value)
    with pytest.raises(ValueError):
        vf.solve_front(fixture_field, Medium.symmetric(2.0, 1.0), gamma=0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_gamma_and_s_overrides_are_refused(fixture_field, weakly_stable,
                                                      bad):
    # nan < 1 is False: without a finiteness check a NaN gamma passed the
    # gamma >= 1 test and a NaN or infinite s passed every test
    for call, name in ((lambda: vf.build_system(fixture_field, weakly_stable, bad), "gamma"),
                       (lambda: vf.solve_front(fixture_field, weakly_stable, gamma=bad), "gamma"),
                       (lambda: vf.solve_front(fixture_field, weakly_stable, s=bad), "s"),
                       (lambda: vf.verify_estimate(fixture_field, weakly_stable,
                                                   [1.0, bad], 0.0), "gamma"),
                       (lambda: vf.verify_estimate(fixture_field, weakly_stable,
                                                   [1.0], bad), "s")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call()


def test_overflowing_weights_are_refused(weakly_stable):
    # (gamma^2 + delta^2 + eta^2)^s overflows at s = 200 (the parent wrote
    # NaN norms), and gamma^2 itself at gamma = 1e160 (the parent blamed a
    # vanishing symbol after RuntimeWarnings): the result gate's
    # ArithmeticError naming s or gamma, with no RuntimeWarning on the way.
    field = smooth_field(n_t=16, n_x1=16, n_x2=32)
    grid = field.grid
    on_bin = Frequency(1e160, grid.delta_axis[1], grid.eta_axis[1])
    f_hat = np.ones((grid.n_t, grid.n_x1), dtype=complex)
    weight = "the Sobolev weight (gamma^2 + delta^2 + eta^2)^s at gamma = {}, s = {}"
    system = ("the decay roots, symbol and forcing integrals at gamma = 1e+160, "
              "v = 2.0, c = 1.0")
    calls = (
        (lambda: vf.solve_front(field, weakly_stable, 1.0, 200.0),
         weight.format(1.0, 201.0)),  # the norm at s + 1
        (lambda: vf.verify_estimate(field, weakly_stable, [1.0], 200.0),
         weight.format(1.0, 200.0)),
        (lambda: vf.sobolev_norm(f_hat, 200.0, 1.0, grid), weight.format(1.0, 200.0)),
        (lambda: vf.halfspace_norm(field.f_plus, grid, 200.0, 1.0),
         weight.format(1.0, 200.0)),
        (lambda: vf.build_system(field, weakly_stable, 1e160), system),
        (lambda: vf.solve_front(field, weakly_stable, 1e160), system),
        (lambda: vf.verify_estimate(field, weakly_stable, [1.0, 1e160], 0.0),
         weight.format(1e160, 0.0)),
        (lambda: vf.forcing_functional(field, on_bin, weakly_stable), system))
    for call, message in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ArithmeticError) as exc:
                call()
        assert str(exc.value) == f"{message} is not finite in double precision"


def test_verify_estimate_refuses_a_gamma_that_underflows_the_forcing(weakly_stable):
    # exp(-gamma*t) underflows every weighted sample of this field (which
    # starts at t = 0.1) at gamma = 1e4: ValueError naming that gamma, where
    # the parent raised a bare ZeroDivisionError.  It is raised inside the
    # gamma's own item of the sweep, so a lower gamma's error comes first.
    field = smooth_field(n_t=16, n_x1=16, n_x2=32)
    with pytest.raises(ValueError, match="^gamma = 10000 underflows"):
        vf.verify_estimate(field, weakly_stable, [1.0, 1e4], 0.0)
    with pytest.raises(ValueError, match="^gamma = 10000 underflows"):
        vf.verify_estimate(field, weakly_stable, [1e4, 2e4], 0.0)


@pytest.mark.parametrize("exponent", [300, -300])
def test_estimate_rows_do_not_depend_on_the_forcing_magnitude(weakly_stable,
                                                              exponent):
    # The ratios are homogeneous of degree 0 in the forcing: scaled by
    # 2^+-300 (squares 2^+-600, inside the double range) the ratio columns
    # are bitwise the unscaled ones and the norms scale with the field.
    # 2^+-540 leaves the range: the refusal (test_cli.py) reads field.peak.
    field = smooth_field(n_t=16, n_x1=16, n_x2=32)
    k = 2.0 ** exponent
    assert field.peak == max(np.abs(field.f_plus).max(), np.abs(field.f_minus).max())
    assert field.scaled(k).peak == k * field.peak
    gammas = [1, 2, 4, 8, 16, 32, 64]
    base = vf.verify_estimate(field, weakly_stable, gammas, 1.0)
    scaled = vf.verify_estimate(field.scaled(k), weakly_stable, gammas, 1.0)
    assert scaled.constants == base.constants
    for want, got in zip(base.rows, scaled.rows, strict=True):
        for name in ("gamma", "r", "r_prime", "g1_ratio", "pointwise_min",
                     "pointwise_ok"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.norm_f == pytest.approx(k * want.norm_f, rel=4e-16)
        assert got.norm_g == pytest.approx(k * want.norm_g, rel=4e-16)


def test_front_solution_norms_finite(fixture_field, fixture_solution,
                                    weakly_stable):
    for s, val in fixture_solution.norms.items():
        assert math.isfinite(val) and val > 0.0
    assert set(fixture_solution.norms) == {0.0, 1.0}
    check_hermitian_and_complex_path(fixture_solution, fixture_field,
                                     weakly_stable)


def test_solve_front_leaves_field_and_holds_one_spectrum(weakly_stable):
    # The one-gamma solve weights its x1 spectrum in place and frees each
    # side's before the next is built; the forcing itself is untouched.
    field = smooth_field()
    plus, minus = field.f_plus.tobytes(), field.f_minus.tobytes()
    tracemalloc.start()
    try:
        vf.solve_front(field, weakly_stable)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.f_plus.tobytes() == plus and field.f_minus.tobytes() == minus
    assert peak < 0.75 * (field.f_plus.nbytes + field.f_minus.nbytes)


def test_solve_front_refuses_overflowing_front(weakly_stable):
    # exp(gamma*t) overflows once gamma*L_t > ~709: solve_front raises
    # without a numpy warning; verify_estimate forms no front and is fine.
    field = smooth_field(n_t=16, n_x1=8, n_x2=24)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError) as exc:
            vf.solve_front(field, weakly_stable, gamma=800.0)
        rep = vf.verify_estimate(field, weakly_stable, [800.0], 0.0)
    assert str(exc.value) == (
        f"the front exp(gamma*t)*u at gamma = 800.0, L_t = {field.grid.L_t!r} "
        "is not finite in double precision")
    assert math.isfinite(rep.rows[0].r) and rep.rows[0].r > 0.0


def test_solve_front_inverts_through_weighted_inverse(weakly_stable):
    # f_phys is weighted_inverse of f_hat, bit for bit: the solve keeps no
    # second copy of the inverse transform's normalization and weight.
    field = smooth_field(n_t=32, n_x1=16, n_x2=48)
    for gamma in (1.0, 6.0):
        sol = vf.solve_front(field, weakly_stable, gamma)
        want = vf.weighted_inverse(sol.f_hat, field.grid, gamma)
        assert sol.f_phys.tobytes() == want.tobytes(), gamma


def test_inverse_path_wrap_around_shrinks_with_gamma_l_t(weakly_stable):
    # f_phys is a numerical inverse Laplace-Fourier transform on a periodic
    # t-box: its wrap-around error is of order exp(-gamma*L_t).  Early
    # forcing (t in [0.1, 0.5]) at dt = 1/64, against a box of L_t = 8 at
    # gamma = 2, over t < 0.6, where exp(gamma*t) amplifies rounding little.
    def front(L_t, gamma):
        field = smooth_field(n_t=int(64 * L_t), n_x1=32, n_x2=96, L_t=L_t)
        return vf.solve_front(field, weakly_stable, gamma).f_phys[:39]

    ref = front(8.0, 2.0)
    errs = [np.max(np.abs(front(2.0, gamma) - ref)) / np.max(np.abs(ref))
            for gamma in (4.0, 8.0)]
    for err, gamma_l_t in zip(errs, (8.0, 16.0)):
        assert err <= 10.0 * math.exp(-gamma_l_t) + 1e-5
    assert errs[1] < 1e-2 * errs[0]


# ---------------------------------------------------------------------------
# estimate machinery

def test_estimate_constants_report(weakly_stable):
    cst = vf.estimate_constants(weakly_stable)
    assert 0.0 < cst.c_elliptic < cst.c_bound
    assert cst.c_cofactor > 0.0
    assert 0.0 < cst.c_pointwise < math.inf
    # a sweep's bin delta = eta = 0 realizes |Sigma| = gamma*Lambda, so the
    # constants merged over its bins pin c_pointwise at (or below) one
    field = smooth_field(n_t=8, n_x1=8, n_x2=16)
    assert vf.verify_estimate(field, weakly_stable, [1.0, 3.0], 0.0
                              ).constants.c_pointwise <= 1.0
    elliptic = vf.estimate_constants(Medium.symmetric(1.0, 1.0))
    assert elliptic.c_cofactor == math.inf


def test_a_sweep_evaluates_sigma_once_per_bin(monkeypatch, weakly_stable):
    # The hemisphere's 120 x 240 sample, then each gamma's n_t x n_x1 bins:
    # the constants take every bin's Sigma from its gamma's own roots.
    points = []
    for module in (solver, importlib.import_module("vortexfront.symbol")):
        def counted(tau, eta, medium, _fn=module.mu_symbol_grid):
            points.append(np.broadcast(np.asarray(tau), np.asarray(eta)).size)
            return _fn(tau, eta, medium)
        monkeypatch.setattr(module, "mu_symbol_grid", counted)
    field = smooth_field(n_t=64, n_x1=64, n_x2=16)
    vf.verify_estimate(field, weakly_stable, [1, 2, 4, 8, 16, 32, 64], 0.0)
    assert sum(points) == 120 * 240 + 7 * 64 * 64


def test_verify_estimate_table(fixture_field, weakly_stable):
    gammas = [1.0, 2.0, 4.0, 8.0]
    rep = vf.verify_estimate(fixture_field, weakly_stable, gammas, 0.0)
    assert [row.gamma for row in rep.rows] == gammas
    rs = [row.r for row in rep.rows]
    assert all(math.isfinite(r) and r > 0 for r in rs)
    assert max(rs) / min(rs) < 1e3
    for row in rep.rows:
        assert row.pointwise_ok
        assert row.pointwise_min >= rep.constants.c_pointwise
        # g-level bound with the bin-supremum constant
        assert row.g1_ratio <= rep.rhs_constant * (1.0 + 1e-9)
        # r' bounded by the pointwise constant's reciprocal
        assert row.r_prime <= 1.0 / rep.constants.c_pointwise * (1.0 + 1e-9)


def test_verify_estimate_matches_per_gamma_solves(weakly_stable):
    # The shared-spectrum sweep equals a loop of solve_front and the
    # full-transform half-space norms.
    field = smooth_field(n_t=16, n_x1=8, n_x2=24)
    grid = field.grid
    gammas, s = [1.0, 4.0, 32.0], 1.0
    rep = vf.verify_estimate(field, weakly_stable, gammas, s)
    for g, row in zip(gammas, rep.rows):
        sol = vf.solve_front(field, weakly_stable, gamma=g, s=s)
        sys = sol.system
        nfp = fft2_halfspace_norm(field.f_plus, grid, s, g)
        nfm = fft2_halfspace_norm(field.f_minus, grid, s, g)
        nf = sol.norms[s + 1.0]
        ng = vf.sobolev_norm(sys.g_hat, s, g, grid)
        g1 = -(sys.mu_minus / (sys.mu_plus + sys.mu_minus)) * sys.i_plus
        ng1 = vf.sobolev_norm(g1, s, g, grid)
        pw = (np.abs(sys.sigma) / (g * np.sqrt(grid.lambda_sq(g)))) ** 2
        want = {"r": g ** 3 * nf ** 2 / (nfp ** 2 + nfm ** 2),
                "r_prime": g ** 2 * nf ** 2 / ng ** 2,
                "g1_ratio": g * ng1 ** 2 / nfp ** 2,
                "pointwise_min": float(pw.min()), "norm_f": nf, "norm_g": ng}
        for name, value in want.items():
            assert getattr(row, name) == pytest.approx(value, rel=1e-12), name
        assert rep.norm_f_plus[g] == pytest.approx(nfp, rel=1e-12)
        assert rep.norm_f_minus[g] == pytest.approx(nfm, rel=1e-12)


def test_verify_estimate_rejections(fixture_field):
    with pytest.raises(RegimeError):
        vf.verify_estimate(fixture_field, Medium.symmetric(1.0, 1.0), [1.0], 0.0)
    with pytest.raises(ValueError):
        vf.verify_estimate(fixture_field, Medium.symmetric(2.0, 1.0), [0.5], 0.0)
    grid = fixture_field.grid
    zero = FieldGrid(np.zeros(fixture_field.f_plus.shape),
                     np.zeros(fixture_field.f_plus.shape), grid)
    with pytest.raises(ValueError):
        vf.verify_estimate(zero, Medium.symmetric(2.0, 1.0), [1.0], 0.0)


# ---------------------------------------------------------------------------
# blowup probe

def test_blowup_probe_growth_and_fit():
    med = Medium.symmetric(1.0, 1.0)
    root = vf.classify(med).y1
    offsets = (1e-1, 1e-2, 1e-3)
    res = vf.blowup_probe(med, 1.0, [root + o for o in offsets])
    assert res.root_gamma == pytest.approx(root)
    # one decade of distance buys one decade of |1/Sigma| within 20%
    for a, b in zip(res.inv_abs_sigma, res.inv_abs_sigma[1:]):
        assert 8.0 <= b / a <= 12.0
    assert abs(res.fitted_exponent + 1.0) <= 0.05


def test_blowup_probe_far_from_root():
    # Two gammas: the fit needs two above the root.
    med = Medium.symmetric(1.0, 1.0)
    res = vf.blowup_probe(med, 1.0, [10.0, 20.0])
    assert res.inv_abs_sigma[0] < 0.05


def test_blowup_probe_rejects_weakly_stable(weakly_stable):
    with pytest.raises(RegimeError):
        vf.blowup_probe(weakly_stable, 1.0, [1.0])
