import cmath
import dataclasses
import importlib
import math

import numpy as np
import pytest

import vortexfront as vf
from vortexfront import Frequency, Medium
from vortexfront.pressure import _split_convolution
from vortexfront.symbol import mu_symbol_grid

from conftest import mp_moments, per_node_convolution, smooth_field

FREQ = Frequency(1.0, 0.4, 0.9)
MED = Medium.symmetric(2.0, 1.0)


def roots_at(freq, med):
    return (vf.decay_root(freq, med.v1_plus, med.c),
            vf.decay_root(freq, med.v1_minus, med.c))


def exp_slices(n, L, rate_plus=1.0, rate_minus=1.3, amp_minus=0.5):
    h = L / n
    y = np.arange(1, n + 1) * h
    return (np.exp(-rate_plus * y).astype(complex),
            amp_minus * np.exp(-rate_minus * y).astype(complex), h)


def consistent_state(freq, med, slice_plus, slice_minus, h):
    """Boundary state driven by the solved front at this frequency."""
    mu_p, mu_m = roots_at(freq, med)
    i_p = complex(vf.halfline_integral(slice_plus, mu_p, h))
    i_m = complex(vf.halfline_integral(slice_minus, mu_m, h))
    m_val = i_p / mu_p - i_m / mu_m
    f_hat = -(mu_p * mu_m / (mu_p + mu_m)) * m_val / vf.symbol(freq, med)
    state = vf.solve_boundary_system(freq, med, f_hat, i_p, i_m)
    return state, f_hat, m_val, i_p, i_m


def test_boundary_system_zero_data():
    st = vf.solve_boundary_system(FREQ, MED, 0.0, 0.0, 0.0)
    assert st.p_plus0 == st.p_minus0 == 0.0
    assert st.dp_plus0 == st.dp_minus0 == 0.0


def test_boundary_system_residuals():
    rng = np.random.default_rng(61)
    c = MED.c
    for _ in range(100):
        freq = Frequency(rng.uniform(0.2, 4), rng.uniform(-4, 4), rng.uniform(-4, 4))
        f_hat = complex(*rng.standard_normal(2))
        i_p = complex(*rng.standard_normal(2))
        i_m = complex(*rng.standard_normal(2))
        st = vf.solve_boundary_system(freq, MED, f_hat, i_p, i_m)
        mu_p, mu_m = roots_at(freq, MED)
        scale = max(abs(st.p_plus0), abs(st.dp_plus0), abs(st.dp_minus0), 1e-30)
        jump = -4j * freq.eta * (MED.v / c) * (freq.tau / c) * f_hat
        assert abs(st.p_plus0 - st.p_minus0) == 0.0
        assert abs(st.dp_plus0 - st.dp_minus0 - jump) <= 1e-12 * max(scale, abs(jump))
        assert abs(mu_p * st.p_plus0 + st.dp_plus0 - i_p / c ** 2) <= 1e-12 * scale * max(1, abs(mu_p))
        assert abs(mu_m * st.p_minus0 - st.dp_minus0 - i_m / c ** 2) <= 1e-12 * scale * max(1, abs(mu_m))


def test_boundary_system_sum_matches_closed_form():
    # with zero forcing integrals the derivative sum collapses to the
    # front-driven closed form
    for freq in (Frequency(1.0, 0.0, 1.0), FREQ):
        st = vf.solve_boundary_system(freq, MED, 1.0, 0.0, 0.0)
        mu_p, mu_m = roots_at(freq, MED)
        rhs = (-4j * freq.eta * (MED.v / MED.c) * (freq.tau / MED.c)
               * (mu_p - mu_m) / (mu_p + mu_m))
        assert abs(st.dp_plus0 + st.dp_minus0 - rhs) <= 1e-13 * abs(rhs)


def test_boundary_system_requires_interior():
    with pytest.raises(ValueError):
        vf.solve_boundary_system(Frequency(0.0, 1.0, 1.0), MED, 0.0, 0.0, 0.0)


def test_root_ratio_identity():
    # (mu+ - mu-)/(mu+ + mu-) = 4 V1 i eta tau / (c^2 (mu+ + mu-)^2)
    rng = np.random.default_rng(67)
    for _ in range(200):
        freq = Frequency(rng.uniform(0.05, 5), rng.uniform(-5, 5),
                         rng.uniform(0.01, 5) * rng.choice([-1, 1]))
        mu_p, mu_m = roots_at(freq, MED)
        lhs = (mu_p - mu_m) / (mu_p + mu_m)
        rhs = 4.0 * MED.v * 1j * freq.eta * freq.tau / (MED.c ** 2 * (mu_p + mu_m) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_reconstruct_zero_everything():
    n, L = 64, 12.0
    h = L / n
    zero = np.zeros(n, dtype=complex)
    st = vf.solve_boundary_system(FREQ, MED, 0.0, 0.0, 0.0)
    prof = vf.reconstruct_profile(FREQ, MED, st, zero, zero, h)
    assert np.all(prof.p_plus == 0.0) and np.all(prof.p_minus == 0.0)
    assert not prof.growing_plus and not prof.growing_minus


def test_reconstruct_refuses_a_non_finite_profile():
    # The command line reaches no profile that is not finite (the bin's
    # system overflows first); a slice holding inf does: the result gate's
    # ArithmeticError naming gamma, v and c.
    n, h = 32, 0.25
    zero, bad = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    bad[3] = np.inf
    st = vf.solve_boundary_system(FREQ, MED, 0.0, 0.0, 0.0)
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError) as exc:
        vf.reconstruct_profile(FREQ, MED, st, bad, zero, h)
    assert str(exc.value) == ("the profile at gamma = 1.0, v = 2.0, c = 1.0 is "
                              "not finite in double precision")


def test_reconstruct_pure_decaying_exponential():
    # zero forcing with decay-consistent data: P(x2) = P(0) exp(-mu x2)
    n, L = 128, 8.0
    h = L / n
    zero = np.zeros(n, dtype=complex)
    roots = vf.decay_root_pair(FREQ, MED)
    mu_p, mu_m = roots.mu_plus, roots.mu_minus
    p0 = 0.8 - 0.3j
    state = vf.BoundaryState(p0, p0, -mu_p * p0, mu_m * p0, roots)
    prof = vf.reconstruct_profile(FREQ, MED, state, zero, zero, h)
    nodes = prof.x2_nodes
    for q, mu in ((prof.p_plus, mu_p), (prof.p_minus, mu_m)):
        expected = p0 * np.exp(-mu * nodes)
        keep = np.abs(expected) > 1e-8 * abs(p0)
        rel = np.abs(q[keep] - expected[keep]) / np.abs(expected[keep])
        assert rel.max() <= 1e-8


def test_reconstruct_exponential_forcing_oracle():
    # Fhat+(y) = exp(-y): closed-form solution A e^{-mu y} + e^{-y}/(c^2(mu^2-1))
    n, L = 512, 16.0
    slice_p, slice_m, h = exp_slices(n, L)
    state, f_hat, m_val, i_p, i_m = consistent_state(FREQ, MED, slice_p, slice_m, h)
    prof = vf.reconstruct_profile(FREQ, MED, state, slice_p, slice_m, h)
    mu_p, _ = roots_at(FREQ, MED)
    denom = MED.c ** 2 * (mu_p ** 2 - 1.0)
    amp = state.p_plus0 - 1.0 / denom
    for k in (1, 32, 64, 128, 192):
        yk = prof.x2_nodes[k]
        exact = amp * cmath.exp(-mu_p * yk) + cmath.exp(-yk) / denom
        assert abs(prof.p_plus[k] - exact) <= 1e-6 * abs(exact)
    assert not prof.growing_plus
    # decay proxy: the profile has died off by the truncation depth
    assert abs(prof.p_plus[-1]) <= 1e-6 * np.abs(prof.p_plus).max()


def test_reconstruct_warns_on_inconsistent_data():
    n, L = 64, 8.0
    h = L / n
    zero = np.zeros(n, dtype=complex)
    roots = vf.decay_root_pair(FREQ, MED)
    mu_p, mu_m = roots.mu_plus, roots.mu_minus
    bad = vf.BoundaryState(1.0, 1.0, -mu_p * 1.0 + 0.05, mu_m * 1.0, roots)
    with pytest.warns(RuntimeWarning, match="decay condition"):
        prof = vf.reconstruct_profile(FREQ, MED, bad, zero, zero, h)
    assert prof.growing_plus and not prof.growing_minus


def test_reconstruct_warns_on_inconsistent_minus_data():
    # the minus-side mirror: only that side grows and the warning names it;
    # the plus profile is the one consistent data give, so the sides,
    # solved stacked, do not cross
    n, L = 64, 8.0
    h = L / n
    zero = np.zeros(n, dtype=complex)
    roots = vf.decay_root_pair(FREQ, MED)
    mu_p, mu_m = roots.mu_plus, roots.mu_minus
    good = vf.BoundaryState(1.0, 1.0, -mu_p * 1.0, mu_m * 1.0, roots)
    bad = vf.BoundaryState(1.0, 1.0, -mu_p * 1.0, mu_m * 1.0 + 0.05, roots)
    with pytest.warns(RuntimeWarning, match="minus side") as record:
        prof = vf.reconstruct_profile(FREQ, MED, bad, zero, zero, h)
    assert len(record) == 1
    assert prof.growing_minus and not prof.growing_plus
    want = vf.reconstruct_profile(FREQ, MED, good, zero, zero, h)
    assert np.array_equal(prof.p_plus, want.p_plus)
    assert not np.array_equal(prof.p_minus, want.p_minus)


def test_decay_row_holds_post_hoc():
    n, L = 256, 12.0
    slice_p, slice_m, h = exp_slices(n, L)
    state, *_ = consistent_state(FREQ, MED, slice_p, slice_m, h)
    mu_p, mu_m = roots_at(FREQ, MED)
    i_p = complex(vf.halfline_integral(slice_p, mu_p, h))
    i_m = complex(vf.halfline_integral(slice_m, mu_m, h))
    c2 = MED.c ** 2
    row_p = state.p_plus0 + state.dp_plus0 / mu_p - i_p / (c2 * mu_p)
    row_m = state.p_minus0 - state.dp_minus0 / mu_m - i_m / (c2 * mu_m)
    scale = abs(state.p_plus0) + abs(state.dp_plus0 / mu_p)
    assert abs(row_p) <= 1e-10 * scale
    assert abs(row_m) <= 1e-10 * scale


def test_tail_integral_vanishing():
    # the truncated analog of the convolution tail decreases over the last
    # decade of nodes for decaying forcing
    n, L = 256, 12.0
    slice_p, _, h = exp_slices(n, L)
    mu_p, _ = roots_at(FREQ, MED)
    y = np.arange(1, n + 1) * h
    full = np.concatenate(([1.0], slice_p))
    yy = np.concatenate(([0.0], y))
    tails = []
    for k in range(n - 25, n + 1, 5):
        kern = np.exp(-mu_p * (yy[k] - yy[: k + 1]))
        vals = np.abs(np.trapezoid(kern * full[: k + 1], dx=h))
        tails.append(vals)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(tails, tails[1:]))


def test_ode_residual_second_order():
    def max_residual(n):
        L = 12.0
        slice_p, slice_m, h = exp_slices(n, L)
        state, *_ = consistent_state(FREQ, MED, slice_p, slice_m, h)
        prof = vf.reconstruct_profile(FREQ, MED, state, slice_p, slice_m, h)
        rp, rm = vf.ode_residual(prof, FREQ, MED, slice_p, slice_m)
        return max(np.max(np.abs(rp)), np.max(np.abs(rm)))

    r1, r2 = max_residual(128), max_residual(256)
    ratio = r1 / r2
    assert 3.2 <= ratio <= 4.8


def test_front_equation_residual_closure_and_sensitivity():
    n, L = 256, 12.0
    slice_p, slice_m, h = exp_slices(n, L)
    state, f_hat, m_val, i_p, i_m = consistent_state(FREQ, MED, slice_p, slice_m, h)
    tol = 1e-10 * FREQ.magnitude_sq * abs(f_hat)
    res = vf.front_equation_residual(FREQ, MED, state, f_hat, m_val)
    assert res <= tol
    # a 10% perturbation of f_hat must blow the residual up to that order
    bad_state = vf.solve_boundary_system(FREQ, MED, 1.1 * f_hat, i_p, i_m)
    res_bad = vf.front_equation_residual(FREQ, MED, bad_state, 1.1 * f_hat, m_val)
    assert res_bad > 1e3 * tol


@pytest.mark.parametrize("n", [5, 6, 7, 8, 31, 32, 191, 192])
def test_split_convolution_matches_per_node_reference(n):
    # the parity-chain scan against a full quadrature at every node, from
    # the series branch of the moments (|mu h| = 1e-3) to |mu h| = 30; then
    # a (n+1, 3) stack with three mu against the three 1-D calls
    rng = np.random.default_rng(n)
    full = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    h, c = 0.05, 1.3
    for mu_h in np.geomspace(1e-3, 30.0, 10):
        for angle in (0.0, 1.2, -1.45):
            mu = mu_h / h * cmath.exp(1j * angle)
            got = _split_convolution(full, mu, h, c)
            want = per_node_convolution(full, mu, h, c)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    stack = rng.standard_normal((n + 1, 3)) + 1j * rng.standard_normal((n + 1, 3))
    mus = np.array([1e-3, 0.7 * cmath.exp(1.2j), 30.0 * cmath.exp(-1.45j)]) / h
    got = _split_convolution(stack, mus, h, c)
    assert got.shape == (n + 1, 3)
    for col, mu, conv in zip(stack.T, mus, got.T):
        for want in (_split_convolution(col, mu, h, c),
                     per_node_convolution(col, mu, h, c)):
            assert np.abs(conv - want).max() <= 1e-13 * np.abs(want).max()


def _mp_pair_tail_weights(mu, h):
    """Pair weights (the quadratic through 0, h, 2h over [0, 2h]) and tail
    weights (over [h, 2h] without its factor exp(-mu h)), 40 digits."""
    import mpmath as mp

    def weights(m):
        return np.array([complex(w) for w in (
            m[0] - 3 * m[1] / (2 * h) + m[2] / (2 * h * h),
            2 * m[1] / h - m[2] / (h * h),
            -m[1] / (2 * h) + m[2] / (2 * h * h))])

    with mp.workdps(40):
        mu = mp.mpc(mu)
        m = mp_moments(h * mu, h)
        return (weights(mp_moments(2 * h * mu, 2 * h)),
                weights([m[0], m[1] + h * m[0], m[2] + 2 * h * m[1] + h * h * m[0]]))


@pytest.mark.parametrize("batch", [1, 2, 50])
def test_split_convolution_weights_match_mpmath(batch):
    # Three nodes (n = 2) and the Lagrange basis as samples expose the
    # weights: node 0 gives the Simpson pair, node 2 the pair reversed and
    # node 1 the tail plus the tail reversed (the seeds of both chains).
    # |mu h| runs across the series cutoff 1.7, also straddled by the pair's
    # 2 mu h; batches of 2 and 50 mu mix both sides in one moments call;
    # Re(mu h) reaches 1e3, where exp(mu h) would overflow.  Worst measured
    # 1.25e-15 of each set's largest weight.
    h, c = 0.05, 1.3
    radii = np.array([1e-3, 0.3, 0.84, 0.86, 1.2, 1.69, 1.71, 3.0, 10.0, 30.0,
                      1e2, 1e3])
    mus = (np.multiply.outer(radii, np.exp(1j * np.array([0.0, 0.7, -0.7, 1.3,
                                                         -1.45]))) / h).ravel()
    basis = np.eye(3, dtype=complex)
    for lo in range(0, mus.size, batch):
        mu = mus[lo:lo + batch]
        full = np.broadcast_to(basis[:, :, None], (3, 3, mu.size))
        got = _split_convolution(full, mu, h, c) * (2.0 * c * c * mu)
        for i, m in enumerate(mu):
            pair, tail = _mp_pair_tail_weights(m, h)
            for node, want in ((0, pair), (2, pair[::-1]), (1, tail + tail[::-1])):
                assert np.all(np.abs(got[node][:, i] - want)
                              <= 4e-15 * np.abs(want).max()), (node, m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pressure_oracle_every_bin(weakly_stable):
    # every non-Nyquist bin: no growing mode, the front equation closes, both
    # decay rows hold, and the ODE residual is second order in dx2
    med, c2 = weakly_stable, weakly_stable.c ** 2

    def worst_ode_residual(n_x2):
        field = smooth_field(n_t=16, n_x1=16, n_x2=n_x2)
        grid = field.grid
        sol = vf.solve_front(field, med)
        system = sol.system
        slices = vf.spectral_slices(field, sol.gamma)
        worst, bins = 0.0, 0
        for it in set(range(grid.n_t)) - {grid.n_t // 2}:
            for ix in set(range(grid.n_x1)) - {grid.n_x1 // 2}:
                freq = Frequency(grid.gamma, float(grid.delta_axis[it]),
                                 float(grid.eta_axis[ix]))
                f_hat = complex(sol.f_hat[it, ix])
                i_p = complex(system.i_plus[it, ix])
                i_m = complex(system.i_minus[it, ix])
                sl_p, sl_m = slices[0][it, ix], slices[1][it, ix]
                state = vf.solve_boundary_system(freq, med, f_hat, i_p, i_m)
                prof = vf.reconstruct_profile(freq, med, state, sl_p, sl_m,
                                              grid.dx2)
                assert not (prof.growing_plus or prof.growing_minus)
                closure = vf.front_equation_residual(
                    freq, med, state, f_hat, complex(system.m[it, ix]))
                assert closure <= 1e-10 * freq.magnitude_sq * abs(f_hat)
                roots = vf.decay_root_pair(freq, med)
                # The state's roots are the ones a fresh root call gives.
                fresh = dataclasses.replace(state, roots=roots)
                again = vf.reconstruct_profile(freq, med, fresh, sl_p, sl_m,
                                               grid.dx2)
                assert np.array_equal(again.p_plus, prof.p_plus)
                assert np.array_equal(again.p_minus, prof.p_minus)
                assert vf.front_equation_residual(
                    freq, med, fresh, f_hat, complex(system.m[it, ix])) == closure
                for p0, b, t in (
                        (state.p_plus0, state.dp_plus0 / roots.mu_plus,
                         i_p / (c2 * roots.mu_plus)),
                        (state.p_minus0, -state.dp_minus0 / roots.mu_minus,
                         i_m / (c2 * roots.mu_minus))):
                    assert abs(p0 + b - t) <= 1e-10 * (abs(p0) + abs(b) + abs(t))
                res_p, res_m = vf.ode_residual(prof, freq, med, sl_p, sl_m)
                worst = max(worst, np.abs(res_p).max(), np.abs(res_m).max())
                bins += 1
        assert bins == 225
        return worst

    ratio = worst_ode_residual(192) / worst_ode_residual(384)
    assert 3.2 <= ratio <= 4.8


def test_one_root_evaluation_per_bin(monkeypatch):
    # solve_boundary_system is the bin's one root-kernel call: the profile
    # and the closure residual read the roots from the state.
    module = importlib.import_module("vortexfront.symbol")  # vf.symbol is a function
    calls = []
    kernel = module.mu_grid

    def counted(*args):
        calls.append(args)
        return kernel(*args)
    slice_p, slice_m, h = exp_slices(64, 8.0)
    _, f_hat, m_val, i_p, i_m = consistent_state(FREQ, MED, slice_p, slice_m, h)
    monkeypatch.setattr(module, "mu_grid", counted)
    state = vf.solve_boundary_system(FREQ, MED, f_hat, i_p, i_m)
    prof = vf.reconstruct_profile(FREQ, MED, state, slice_p, slice_m, h)
    vf.front_equation_residual(FREQ, MED, state, f_hat, m_val)
    assert len(calls) == 1 and not (prof.growing_plus or prof.growing_minus)


def test_closure_sigma_is_the_symbol_grid_sigma():
    # Sigma formed from the state's roots is mu_symbol_grid's, bit for bit:
    # the residual equals the one taken with mu_symbol_grid's roots and Sigma.
    rng = np.random.default_rng(23)
    for _ in range(200):
        freq = Frequency(rng.uniform(0.5, 40), rng.uniform(-40, 40),
                         rng.choice([0.0, rng.uniform(-40, 40)]))
        f_hat, i_p, i_m, m_val = (complex(*rng.standard_normal(2))
                                  for _ in range(4))
        state = vf.solve_boundary_system(freq, MED, f_hat, i_p, i_m)
        mu_p, mu_m, sigma = (complex(a[0]) for a in
                             mu_symbol_grid([freq.tau], [freq.eta], MED))
        assert (mu_p, mu_m) == (state.roots.mu_plus, state.roots.mu_minus)
        res1 = abs((freq.tau * freq.tau - (MED.v * freq.eta) ** 2) * f_hat
                   + 0.5 * MED.c ** 2 * (state.dp_plus0 + state.dp_minus0))
        res2 = abs(sigma * f_hat + (mu_p * mu_m / (mu_p + mu_m)) * m_val)
        assert vf.front_equation_residual(freq, MED, state, f_hat, m_val) == \
            max(float(res1), float(res2))
