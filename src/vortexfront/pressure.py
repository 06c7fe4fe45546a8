"""Reconstruction of the transformed half-space pressures at one frequency.

The transformed pressure on each side solves the constant-coefficient ODE

    (tau + i*v1*eta)^2 P + c^2*eta^2 P - c^2 P'' = Fhat,

whose decaying solution is fixed by the boundary system: continuity of P,
the prescribed jump of P' driven by the front, and one decay condition per
side.  The solution is evaluated in the exponentially split form so that
the growing mode is cancelled analytically whenever the decay condition
holds; inconsistent user data keeps the growing term and emits a warning.
Its exp(-mu|x-y|) convolution, parity-chain recurrences to the right and (on
the reversed samples) to the left, is one log-depth scan for both sides,
with the pair and single-interval rules of the depth quadrature.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .domain import Frequency, Medium, RootPair, _require_finite
# exp_weighted_integral is only a name here: bench/workloads.py wraps it by
# name.  ROADMAP item 3 deletes it together with its pin in test_layering.py.
from .quadrature import (exp_weighted_integral, exp_weighted_segment,
                         extrapolate_origin)
from .symbol import _sigma, decay_root_pair

__all__ = ["BoundaryState", "PressureProfile", "solve_boundary_system",
           "reconstruct_profile", "front_equation_residual", "ode_residual"]

# Relative size of the decay-condition defect below which the growing
# exponential is dropped as pure rounding noise.
GROWTH_DEFECT_RTOL = 1e-8


@dataclass(frozen=True)
class BoundaryState:
    """Boundary values P(0) and P'(0) of the two transformed pressures, with
    the decay roots they were solved with: made by :func:`solve_boundary_system`,
    a state is only valid at that call's freq and medium."""

    p_plus0: complex
    p_minus0: complex
    dp_plus0: complex
    dp_minus0: complex
    roots: RootPair


@dataclass
class PressureProfile:
    """Sampled transformed pressures, x2_nodes[0] = 0 included."""

    x2_nodes: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    growing_plus: bool
    growing_minus: bool


def solve_boundary_system(freq: Frequency, medium: Medium, f_hat: complex,
                          i_plus: complex, i_minus: complex) -> BoundaryState:
    """Solve the 4x4 boundary system for P(0), P'(0) on both sides.

    i_plus and i_minus are the forcing integrals
    integral_0^inf exp(-mu_pm*y) Fhat_pm(., +-y) dy.  The system determinant
    equals mu_plus + mu_minus, nonzero for gamma > 0.
    """
    if freq.gamma <= 0.0:
        raise ValueError("the boundary system requires gamma > 0")
    c, roots = medium.c, decay_root_pair(freq, medium)
    mu_p, mu_m = roots.mu_plus, roots.mu_minus
    s = mu_p + mu_m
    if abs(s) <= 1e-13 * (abs(mu_p) + abs(mu_m)):
        raise ArithmeticError("boundary system is singular: mu_plus + mu_minus "
                              "vanishes (possible only as gamma/c -> 0 with v >= c)")
    jump = -4j * freq.eta * (medium.v / c) * (freq.tau / c) * f_hat
    p0 = ((i_plus + i_minus) / (c * c) - jump) / s
    dp_p = i_plus / (c * c) - mu_p * p0
    dp_m = mu_m * p0 - i_minus / (c * c)
    return BoundaryState(p0, p0, dp_p, dp_m, roots)


def _split_convolution(full: np.ndarray, mu, h: float, c: float) -> np.ndarray:
    """(1/(2 c^2 mu)) integral_0^L exp(-mu*|x-y|) Fhat(y) dy at every node.

    `full` holds Fhat at 0, h, ..., L on its first axis; `mu` broadcasts
    over any trailing axes.  The kink at y = x splits the kernel: R_k =
    integral_{x_k}^L exp(-mu*(y - x_k)) Fhat dy, and L_k is R on the
    reversed samples, reversed back at the end.  Both obey X_k = pair_k +
    s*X_{k+2}, s = exp(-2 mu h), from X_n = 0 and X_n-1 = tail(x_n-2,
    x_n-1, x_n), the pair and tail rules of the depth quadrature (one
    exp_weighted_segment call).  The chains, stacked on a second axis, are
    summed by a Hillis-Steele scan, X[:-d] += s^(d/2) X[d:] for d = 2, 4,
    8, ...: nonnegative powers only, which may underflow.
    """
    mu = np.asarray(mu, dtype=complex)
    n = full.shape[0] - 1
    both = np.array((full, full[::-1])).swapaxes(0, 1)  # node, direction, ...
    pair, tail = exp_weighted_segment(both, h, mu)
    step = np.exp(-2.0 * h * mu)
    chains = np.zeros(both.shape, dtype=complex)  # X_n = 0
    chains[:n - 1] = pair
    chains[n - 1] = tail
    for d in (2 ** k for k in range(1, n.bit_length())):
        chains[:-d] += step * chains[d:]
        step = step * step
    return (chains[::-1, 1] + chains[:, 0]) / (2.0 * c * c * mu)


def reconstruct_profile(freq: Frequency, medium: Medium, state: BoundaryState,
                        slice_plus: np.ndarray, slice_minus: np.ndarray,
                        dx2: float) -> PressureProfile:
    """Evaluate both transformed pressures on [0, L_x2].

    slice_plus / slice_minus hold Fhat at the stored nodes dx2..L_x2 (the
    origin value is extrapolated).  Written as
    (decaying exponential) + (exp(-mu|x-y|) convolution) + (growing defect),
    the last term nonzero only when the decay condition fails.  Both sides
    are solved in one call on the stacked samples, with the decay roots of
    `state` (from :func:`solve_boundary_system` at the same freq and medium).
    A profile that is not finite is refused, naming gamma, v and c.
    """
    sl = np.array((slice_plus, slice_minus), dtype=complex)
    full = np.concatenate((extrapolate_origin(sl)[:, None], sl), axis=1).T
    nodes = np.arange(len(full)) * dx2
    mu = np.array([state.roots.mu_plus, state.roots.mu_minus])
    conv = _split_convolution(full, mu, dx2, medium.c)
    profs, grew = conv.T.copy(), []
    # t_side = R_0/(c^2 mu) = 2 conv(0): the left chain vanishes at x2 = 0.
    for side, prof, decay, mu_s, t_side, p0, dp0 in zip(
            ("plus", "minus"), profs, np.exp(-mu[:, None] * nodes),
            mu.tolist(), (2.0 * conv[0]).tolist(),
            (state.p_plus0, state.p_minus0), (state.dp_plus0, -state.dp_minus0)):
        b = dp0 / mu_s
        defect = p0 + b - t_side
        scale = abs(p0) + abs(b) + abs(t_side)
        prof += 0.5 * (p0 - b) * decay
        growing = scale > 0 and abs(defect) > GROWTH_DEFECT_RTOL * scale
        if growing:
            warnings.warn(
                f"boundary data on the {side} side violate the decay "
                f"condition (relative defect {abs(defect) / scale:.3e}); "
                "the growing exponential is retained", RuntimeWarning)
            prof += 0.5 * defect * np.exp(mu_s * nodes)
        grew.append(growing)
    _require_finite("the profile", profs, gamma=freq.gamma, v=medium.v, c=medium.c)
    return PressureProfile(nodes, *profs, *grew)


def front_equation_residual(freq: Frequency, medium: Medium,
                            state: BoundaryState, f_hat: complex,
                            m_value: complex) -> float:
    """Residual closing the loop between the front equation and the solver.

    Returns the larger of the residual of

        tau^2 f - v^2*eta^2 f + (c^2/2)(dP+ + dP-)(0) = 0

    with the boundary-state derivatives, and of the equivalent spectral form
    Sigma*f + (mu_plus*mu_minus/(mu_plus + mu_minus))*M = 0, with the roots
    of `state` (from :func:`solve_boundary_system` at the same freq and medium).
    """
    c, tau = medium.c, freq.tau
    res1 = abs((tau * tau - (medium.v * freq.eta) ** 2) * f_hat
               + 0.5 * c * c * (state.dp_plus0 + state.dp_minus0))
    mu_p, mu_m = state.roots.mu_plus, state.roots.mu_minus
    # One-entry arrays round Sigma as mu_symbol_grid does.
    sigma = complex(_sigma(np.array([freq.tau]), np.array([freq.eta]),
                           *np.array([[mu_p], [mu_m]]), medium)[0])
    res2 = abs(sigma * f_hat + (mu_p * mu_m / (mu_p + mu_m)) * m_value)
    return max(float(res1), float(res2))


def ode_residual(profile: PressureProfile, freq: Frequency, medium: Medium,
                 slice_plus: np.ndarray, slice_minus: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Centered second-difference residual of the pressure ODE, both sides.

    Returned at the interior nodes dx2..(L_x2 - dx2); O(h^2) for profiles
    built from consistent data.
    """
    h, c = float(profile.x2_nodes[1] - profile.x2_nodes[0]), medium.c
    out = []
    for q, v1, sl in zip((profile.p_plus, profile.p_minus),
                         (medium.v1_plus, medium.v1_minus), (slice_plus, slice_minus)):
        coef = (freq.tau + 1j * v1 * freq.eta) ** 2 + (c * freq.eta) ** 2
        second = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / (h * h)
        out.append(coef * q[1:-1] - c * c * second - np.asarray(sl, dtype=complex)[:-1])
    return out[0], out[1]
