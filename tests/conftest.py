import numpy as np
import pytest

from vortexfront import FieldGrid, Frequency, GridSpec, Medium
from vortexfront.quadrature import (_DepthSum, exp_weighted_integral,
                                    exp_weighted_segment, extrapolate_origin,
                                    simpson_closed)


def bump(u):
    """C-infinity bump supported on |u| < 1, value 1 at the center."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - u[m] ** 2))
    return out


def bisect_real(fn, lo, hi, iters=120):
    """Plain bisection on a sign change of a real function (the root oracle)."""
    flo, fhi = fn(lo), fn(hi)
    assert flo * fhi < 0, "root is not bracketed"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def smooth_field(n_t=64, n_x1=64, n_x2=192, L_t=1.0, L_x1=1.0, L_x2=2.0,
                 y_width=0.2, gamma=1.0, minus_scale=0.7):
    """Smooth compactly supported two-sided forcing fixture.

    Support in t and x1 is [0.1, 0.5] (width of half the box); the x2
    profile is a one-sided bump of the given width, concentrated near the
    boundary so the estimate sweep exercises both sides of the exponential
    crossover.
    """
    grid = GridSpec(n_t, n_x1, n_x2, L_t, L_x1, L_x2, gamma=gamma)
    t, x1, y = grid.t_nodes, grid.x1_nodes, grid.x2_nodes
    fp = (bump((t - 0.3) / 0.2)[:, None, None]
          * bump((x1 - 0.3) / 0.2)[None, :, None]
          * bump(y / y_width)[None, None, :])
    fm = (minus_scale * bump((t - 0.32) / 0.18)[:, None, None]
          * bump((x1 - 0.28) / 0.17)[None, :, None]
          * bump(y / (0.8 * y_width))[None, None, :])
    return FieldGrid(fp, fm, grid)


def mirror_field(field):
    """f_plus kept and f_minus[i, j, k] = f_plus[i, -j % n_x1, k].

    The forcing is then invariant under the half turn x1 -> -x1, x2 -> -x2,
    which swaps the sides and the velocities +-v, so the front is odd in x1.
    """
    flip = -np.arange(field.grid.n_x1) % field.grid.n_x1
    return FieldGrid(field.f_plus, field.f_plus[:, flip, :], field.grid)


def fft2_halfspace_norm(samples, grid, s, gamma):
    """halfspace_norm written out with the full complex (t, x1) transform."""
    w = np.exp(-gamma * grid.t_nodes)[:, None, None]
    spec = np.fft.fft2(samples * w, axes=(0, 1)) * (grid.dt * grid.dx1)
    lam2 = grid.lambda_sq(gamma)[:, :, None]
    per_level = ((lam2 ** s * np.abs(spec) ** 2).sum(axis=(0, 1))
                 / (grid.L_t * grid.L_x1))
    full = np.concatenate(([extrapolate_origin(per_level)], per_level))
    return float(np.sqrt(simpson_closed(full, grid.dx2)))


def depth_rule(mu, grid):
    """The depth rule that build_system makes for half-spectrum roots mu."""
    return _DepthSum(mu, grid.dx2, grid.n_x2, mu.size)


def per_node_convolution(full, mu, h, c):
    """pressure._split_convolution with a full quadrature at every node.

    (1/(2 c^2 mu)) integral_0^L exp(-mu*|x-y|) Fhat(y) dy: the left and
    right integrals of each node are separate exp_weighted_integral calls,
    and a side one interval long is the tail of one exp_weighted_segment.
    """
    n = full.shape[0] - 1
    out = np.empty(n + 1, dtype=complex)
    rev = full[::-1]
    for k in range(n + 1):
        left = right = 0j
        if k >= 2:
            left = complex(exp_weighted_integral(rev[n - k:], h, mu))
        elif k == 1:
            left = complex(exp_weighted_segment(full[2::-1], h, mu)[1])
        if n - k >= 2:
            right = complex(exp_weighted_integral(full[k:], h, mu))
        elif n - k == 1:
            right = complex(exp_weighted_segment(full[n - 2:], h, mu)[1])
        out[k] = left + right
    return out / (2.0 * c * c * mu)


def mp_moments(z, span):
    """m_j = integral_0^span exp(-mu*u) u^j du, j = 0, 1, 2, z = mu*span, in mpmath."""
    import mpmath as mp
    z = mp.mpc(z)
    mu, e = z / span, mp.exp(-z)
    return [(1 - e) / mu, (1 - e * (1 + z)) / mu ** 2,
            (2 - e * (2 + 2 * z + z * z)) / mu ** 3]


def exp_oracle_field(n_x2, L_x2=15.0, n_t=8, n_x1=4):
    """Separable field whose transformed slices are exactly A * exp(-y)."""
    grid = GridSpec(n_t, n_x1, n_x2, L_t=2.0, L_x1=1.0, L_x2=L_x2, gamma=1.0)
    t, y = grid.t_nodes, grid.x2_nodes
    g = 1.0 + np.cos(2.0 * np.pi * t / grid.L_t)
    fp = (g[:, None, None] * np.ones((1, grid.n_x1, 1))
          * np.exp(-y)[None, None, :])
    return FieldGrid(fp, np.zeros_like(fp), grid)


@pytest.fixture(scope="session")
def weakly_stable():
    return Medium.symmetric(2.0, 1.0)


@pytest.fixture(scope="session")
def fixture_field():
    return smooth_field()


@pytest.fixture(scope="session")
def fixture_solution(fixture_field, weakly_stable):
    from vortexfront import solve_front
    return solve_front(fixture_field, weakly_stable)


def freq(gamma, delta, eta):
    return Frequency(gamma, delta, eta)
