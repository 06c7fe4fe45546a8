"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import cmath
import math

import numpy as np
import pytest

import vortexfront as vf
from vortexfront import FieldGrid, Frequency, GridSpec, Medium
from vortexfront.symbol import mu_grid, symbol_grid

from conftest import bisect_real, exp_oracle_field, smooth_field

MACH_SET = (0.5, 1.0, 1.2, 1.5, 2.0, 3.0)
SQRT2 = math.sqrt(2.0)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({detail})")


def _random_frequencies(rng, n):
    gamma = 10.0 ** rng.uniform(-3, 3, n)
    delta = rng.uniform(-50, 50, n) * 10.0 ** rng.uniform(-2, 1, n)
    eta = rng.uniform(-50, 50, n) * 10.0 ** rng.uniform(-2, 1, n)
    return gamma, delta, eta


def test_criterion_01_branch_bounds():
    # Re(mu) > 0 and Re(mu) >= gamma/(sqrt(2) c) exactly, square residual
    # <= 1e-13 relative, over 1e5 random frequencies.
    rng = np.random.default_rng(101)
    n = 100_000
    gamma, delta, eta = _random_frequencies(rng, n)
    tau = gamma + 1j * delta
    worst_sq = 0.0
    for m in MACH_SET:
        c = 1.0
        for v1 in (m, -m):
            mu = mu_grid(tau, eta, v1, c)
            bound = gamma / (SQRT2 * c)
            assert np.all(mu.real > 0.0)
            assert np.all(mu.real >= bound)
            alpha = ((tau + 1j * v1 * eta) / c) ** 2 + eta ** 2
            scale = (np.abs(tau) ** 2 + eta ** 2) / (c * c)
            worst_sq = max(worst_sq, float(np.max(np.abs(mu * mu - alpha) / scale)))
    assert worst_sq <= 1e-13
    _report(1, "branch bounds", f"{n} frequencies x {2 * len(MACH_SET)} media, "
            f"max square residual {worst_sq:.2e}")


def test_criterion_02_symbol_identity():
    # |sigma - sigma_factored| <= 1e-12 * Lambda^2 over 1e4 frequencies with
    # gamma > 0, across all regimes.
    rng = np.random.default_rng(103)
    n = 10_000
    gamma = 10.0 ** rng.uniform(-3, 3, n)
    delta = rng.uniform(-10, 10, n)
    eta = rng.uniform(-10, 10, n)
    tau = gamma + 1j * delta
    lam2 = np.abs(tau) ** 2 + eta ** 2
    worst = 0.0
    for m in MACH_SET:
        med = Medium.symmetric(m, 1.0)
        direct = symbol_grid(tau, eta, med)
        factored = med.c ** 2 * (mu_grid(tau, eta, m, 1.0)
                                 * mu_grid(tau, eta, -m, 1.0) - eta ** 2)
        worst = max(worst, float(np.max(np.abs(direct - factored) / lam2)))
    assert worst <= 1e-12
    _report(2, "symbol identity", f"max |diff|/Lambda^2 = {worst:.2e} over "
            f"{n} frequencies x {len(MACH_SET)} regimes")


def test_criterion_03_root_localization():
    worst = 0.0
    for m in (1.5, 2.0, 3.0):
        med = Medium.symmetric(m, 1.0)
        y2 = vf.classify(med).y2
        up = bisect_real(lambda d: vf.symbol(Frequency(0, d, 1), med).real,
                         1e-9, (m - 1.0) * (1 - 1e-9))
        down = bisect_real(lambda d: vf.symbol(Frequency(0, d, 1), med).real,
                           -(m - 1.0) * (1 - 1e-9), -1e-9)
        assert abs(up - y2) <= 1e-12
        assert abs(down + y2) <= 1e-12
        worst = max(worst, abs(up - y2), abs(down + y2))
    for m in (0.5, 1.0, 1.2):
        med = Medium.symmetric(m, 1.0)
        y1 = vf.classify(med).y1
        found = bisect_real(lambda g: vf.symbol(Frequency(g, 0, 1), med).real,
                            1e-12, m + 1.0)
        assert abs(found - y1) <= 1e-12
        worst = max(worst, abs(found - y1))
    # the spurious dispersion candidates +-i c Y0 eta are never symbol roots
    for m in MACH_SET:
        med = Medium.symmetric(m, 1.0)
        y0 = vf.classify(med).y0
        for sgn in (1, -1):
            pair = vf.decay_root_pair(Frequency(0.0, sgn * y0, 1.0), med)
            assert (pair.mu_plus * pair.mu_minus).real < 0.0
    _report(3, "root localization", f"bisection matches Y1/Y2 to {worst:.1e}, "
            "Y0 candidates rejected in all regimes")


SIGN_TABLES = {
    "supersonic": [
        (None, "-(m+1)", "imaginary", "imaginary", -1),
        ("-(m+1)", "-(m-1)", "positive_real", "imaginary", 0),
        ("-(m-1)", "m-1", "imaginary", "imaginary", 1),
        ("m-1", "m+1", "imaginary", "positive_real", 0),
        ("m+1", None, "imaginary", "imaginary", -1),
    ],
    "subsonic": [
        (None, "-(m+1)", "imaginary", "imaginary", -1),
        ("-(m+1)", "m-1", "positive_real", "imaginary", 0),
        ("m-1", "-(m-1)", "positive_real", "positive_real", 1),
        ("-(m-1)", "m+1", "imaginary", "positive_real", 0),
        ("m+1", None, "imaginary", "imaginary", -1),
    ],
    "sonic": [
        (None, "-(m+1)", "imaginary", "imaginary", -1),
        ("-(m+1)", "m-1", "positive_real", "imaginary", 0),
        ("m-1", "m+1", "imaginary", "positive_real", 0),
        ("m+1", None, "imaginary", "imaginary", -1),
    ],
}


def test_criterion_04_sign_tables():
    def endpoint(expr, m):
        return {"-(m+1)": -(m + 1.0), "-(m-1)": -(m - 1.0),
                "m-1": m - 1.0, "m+1": m + 1.0}[expr]

    checks = 0
    for m, table in ((2.0, "supersonic"), (0.5, "subsonic"), (1.0, "sonic")):
        med = Medium.symmetric(m, 1.0)
        for lo, hi, kind_p, kind_m, psign in SIGN_TABLES[table]:
            if lo is None:
                xs = [endpoint(hi, m) - off for off in (0.5, 1.5, 3.0)]
            elif hi is None:
                xs = [endpoint(lo, m) + off for off in (0.5, 1.5, 3.0)]
            else:
                a, b = endpoint(lo, m), endpoint(hi, m)
                xs = [a + f * (b - a) for f in (0.25, 0.5, 0.75)]
            for eta in (1.3, -0.8):
                for x in xs:
                    rec = vf.boundary_root_signs(Frequency(0.0, x * eta, eta), med)
                    assert rec.mu_plus_kind == kind_p, (table, x, eta)
                    assert rec.mu_minus_kind == kind_m, (table, x, eta)
                    assert rec.sum_nonzero == (not (x == 0.0 and m >= 1.0))
                    assert rec.re_product_sign == psign, (table, x, eta)
                    checks += 1
    assert checks >= 54
    _report(4, "sign tables", f"{checks} interval checks, zero failures")


def test_criterion_05_ratio_limit():
    details = []
    for m in (1.5, 2.0):
        med = Medium.symmetric(m, 1.0)
        target = (m * m - 1.0) / (4.0 * m * m)
        errs = [abs(vf.ratio_sq(Frequency(g, 0.0, 1.0), med) - target)
                for g in (1e-2, 1e-4, 1e-6)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-4
        details.append(f"m={m}: {errs[2]:.1e}")
    sonic = Medium.symmetric(1.0, 1.0)
    errs = [abs(vf.ratio_sq(Frequency(g, 0.0, 1.0), sonic))
            for g in (1e-2, 1e-4, 1e-6)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-4
    details.append(f"sonic: {errs[2]:.1e}")
    _report(5, "ratio limit", "final errors " + ", ".join(details))


def test_criterion_06_quadrature_oracle():
    med = Medium.symmetric(10.0, 4.0)
    freq = Frequency(1.0, 0.0, 0.0)
    mu = vf.decay_root(freq, med.v1_plus, med.c)
    errs = {}
    for n in (32, 64, 128, 256, 512):
        field = exp_oracle_field(n)
        spec = vf.weighted_forward(field.f_plus, field.grid, freq.gamma)
        amp = spec[0, 0, 0] / math.exp(-field.grid.x2_nodes[0])
        exact = amp / (mu * (mu + 1.0))          # closed-form oracle
        got = vf.forcing_functional(field, freq, med).value
        errs[n] = abs(got - exact) / abs(exact)
    ns = sorted(errs)
    assert errs[512] <= 1e-8
    assert all(errs[a] > errs[b] for a, b in zip(ns, ns[1:]))
    order = math.log2(errs[32] / errs[512]) / 4.0
    assert order >= 3.5
    _report(6, "quadrature oracle", f"rel err {errs[512]:.2e} at n=512, "
            f"mean order {order:.2f}")


@pytest.fixture(scope="module")
def sweep_field():
    return smooth_field()


@pytest.fixture(scope="module")
def sweep_report(sweep_field):
    med = Medium.symmetric(2.0, 1.0)
    return vf.verify_estimate(sweep_field, med, [1, 2, 4, 8, 16, 32, 64], 0.0)


def test_criterion_07_estimate_sweep(sweep_report):
    rs = [row.r for row in sweep_report.rows]
    assert all(math.isfinite(r) and r > 0 for r in rs)
    assert max(rs) <= 10.0 * rs[-1]
    for row in sweep_report.rows:
        assert row.pointwise_ok, f"pointwise inequality failed at gamma={row.gamma}"
        assert row.g1_ratio <= sweep_report.rhs_constant * (1 + 1e-9)
    _report(7, "estimate sweep", f"max r / r(64) = {max(rs) / rs[-1]:.2f}, "
            f"pointwise constant {sweep_report.constants.c_pointwise:.3g} "
            "holds on every bin")


def test_criterion_08_blowup_probe():
    med = Medium.symmetric(1.0, 1.0)
    root = vf.classify(med).y1
    res = vf.blowup_probe(med, 1.0, [root + o for o in (1e-1, 1e-2, 1e-3, 1e-4)])
    assert abs(res.fitted_exponent + 1.0) <= 0.05
    for a, b in zip(res.inv_abs_sigma, res.inv_abs_sigma[1:]):
        assert 8.0 <= b / a <= 12.0
    _report(8, "ill-posedness probe", f"fitted exponent {res.fitted_exponent:.4f}")


def test_criterion_09_end_to_end_closure(sweep_field):
    med = Medium.symmetric(2.0, 1.0)
    sol = vf.solve_front(sweep_field, med)
    grid = sweep_field.grid
    sys = sol.system
    sp, sm = vf.spectral_slices(sweep_field, sol.gamma)
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        it = int(rng.integers(0, grid.n_t))
        ix = int(rng.integers(0, grid.n_x1))
        freq = Frequency(sol.gamma, float(grid.delta_axis[it]),
                         float(grid.eta_axis[ix]))
        f_hat = complex(sol.f_hat[it, ix])
        state = vf.solve_boundary_system(freq, med, f_hat,
                                         complex(sys.i_plus[it, ix]),
                                         complex(sys.i_minus[it, ix]))
        res = vf.front_equation_residual(freq, med, state, f_hat,
                                         complex(sys.m[it, ix]))
        tol = 1e-10 * freq.magnitude_sq * abs(f_hat)
        assert res <= tol
        if tol > 0:
            worst = max(worst, res / tol)

    # reconstructed profiles: decay row to 1e-10 and O(h^2) ODE residual
    it, ix = 2, 3
    freq = Frequency(sol.gamma, float(grid.delta_axis[it]),
                     float(grid.eta_axis[ix]))

    def profile_residual(n_x2):
        field = smooth_field(n_x2=n_x2)
        s = vf.solve_front(field, med)
        ssys = s.system
        spp, smm = vf.spectral_slices(field, s.gamma)
        state = vf.solve_boundary_system(freq, med, complex(s.f_hat[it, ix]),
                                         complex(ssys.i_plus[it, ix]),
                                         complex(ssys.i_minus[it, ix]))
        slice_p = spp[it, ix, :]
        slice_m = smm[it, ix, :]
        prof = vf.reconstruct_profile(freq, med, state, slice_p, slice_m,
                                      field.grid.dx2)
        assert not prof.growing_plus and not prof.growing_minus
        mu_p = vf.decay_root(freq, med.v1_plus, med.c)
        mu_m = vf.decay_root(freq, med.v1_minus, med.c)
        i_p = complex(vf.halfline_integral(slice_p, mu_p, field.grid.dx2))
        i_m = complex(vf.halfline_integral(slice_m, mu_m, field.grid.dx2))
        c2 = med.c ** 2
        row_p = state.p_plus0 + state.dp_plus0 / mu_p - i_p / (c2 * mu_p)
        row_m = state.p_minus0 - state.dp_minus0 / mu_m - i_m / (c2 * mu_m)
        scale = abs(state.p_plus0) + abs(state.dp_plus0 / mu_p) + abs(i_p / (c2 * mu_p))
        assert abs(row_p) <= 1e-10 * scale
        assert abs(row_m) <= 1e-10 * scale
        rp, rm = vf.ode_residual(prof, freq, med, slice_p, slice_m)
        return max(float(np.max(np.abs(rp))), float(np.max(np.abs(rm))))

    r_coarse = profile_residual(192)
    r_fine = profile_residual(384)
    ratio = r_coarse / r_fine
    assert 3.2 <= ratio <= 4.8
    _report(9, "end-to-end closure", f"100 bins, worst residual at "
            f"{worst:.3f} of tolerance; ODE refinement ratio {ratio:.2f}")


def test_criterion_10_homogeneity():
    rng = np.random.default_rng(109)
    n = 1000
    gamma = 10.0 ** rng.uniform(-2, 2, n)
    delta = rng.uniform(-10, 10, n)
    eta = rng.uniform(-10, 10, n)
    tau = gamma + 1j * delta
    med = Medium.symmetric(2.0, 1.0)
    lam2 = np.abs(tau) ** 2 + eta ** 2
    worst = 0.0
    for k in (0.5, 2.0, 10.0):
        s_scaled = symbol_grid(k * tau, k * eta, med)
        s_base = symbol_grid(tau, eta, med)
        worst = max(worst, float(np.max(np.abs(s_scaled - k * k * s_base)
                                        / (k * k * lam2))))
        for v1 in (2.0, -2.0):
            m_scaled = mu_grid(k * tau, k * eta, v1, 1.0)
            m_base = mu_grid(tau, eta, v1, 1.0)
            worst = max(worst, float(np.max(np.abs(m_scaled - k * m_base)
                                            / np.abs(m_scaled))))
    assert worst <= 1e-12
    # boundary points scale exactly as well
    for fq in (Frequency(0.0, -2.2, 0.9), Frequency(0.0, 0.4, 1.1)):
        s0 = vf.symbol(fq, med)
        for k in (0.5, 2.0, 10.0):
            sk = vf.symbol(fq.scaled(k), med)
            assert abs(sk - k * k * s0) <= 1e-12 * k * k * fq.magnitude_sq
    _report(10, "homogeneity", f"max relative defect {worst:.2e} over {n} "
            "frequencies, k in {0.5, 2, 10}")
