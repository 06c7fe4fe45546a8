"""Quadrature rules for half-line integrals against decaying exponentials.

The forcing integrals have the form integral_0^L exp(-mu*y) f(y) dy with
Re(mu) > 0 possibly large.  Plain product quadrature loses accuracy once
mu*h is not small, so the rules here integrate the exponential factor
exactly against a piecewise-quadratic interpolant of f (Simpson-type
nodes): order 4 in the smoothness of f, uniformly in mu.  The half-line
integral and the pressure profile share two rules (exp_weighted_segment):
the Simpson pair and the last interval without its factor exp(-mu*h).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["extrapolate_origin", "simpson_closed", "exp_weighted_integral",
           "exp_weighted_segment", "halfline_integral"]

# Below this |z| = |mu*span| the closed-form moments cancel (3e-15 relative at 1,
# 1e-13 at 0.25); the series, coefficient 1/(k! (k+j+1)) at row k, column j, is used.
_SERIES_CUTOFF = 1.7
_SERIES_TERMS = 21
_SERIES_COEFFS = np.array([[1.0 / (math.factorial(k) * (k + j + 1)) for j in range(3)]
                           for k in range(_SERIES_TERMS)], dtype=complex)
# Entries per block of series powers in _moments.
_BLOCK_ENTRIES = 4096


def extrapolate_origin(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Value at y = 0 from samples at h, 2h, ..., by a degree-4 polynomial.

    Error O(h^5) for smooth data, below the O(h^4) of the integration rules
    that consume it.
    """
    v = np.asarray(values)
    v = v if axis in (-1, v.ndim - 1) else np.moveaxis(v, axis, -1)
    if v.shape[-1] < 5:
        raise ValueError("need at least five samples to extrapolate the origin")
    return (5.0 * v[..., 0] - 10.0 * v[..., 1] + 10.0 * v[..., 2]
            - 5.0 * v[..., 3] + v[..., 4])


def simpson_closed(values: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Composite Simpson over samples spanning [0, (n-1)*h], both ends included.

    An odd interval count is finished with the 3/8 rule on the last three
    intervals, preserving order 4.
    """
    v = np.moveaxis(np.asarray(values), axis, -1)
    n = v.shape[-1] - 1
    if n < 1:
        raise ValueError("need at least two samples")
    if n == 1:
        return 0.5 * h * (v[..., 0] + v[..., 1])
    stop = n if n % 2 == 0 else n - 3
    total = np.zeros(v.shape[:-1], dtype=v.dtype)
    if stop >= 2:
        total = (h / 3.0) * (v[..., 0] + v[..., stop]
                             + 4.0 * v[..., 1:stop:2].sum(axis=-1)
                             + 2.0 * v[..., 2:stop:2].sum(axis=-1))
    if stop < n:  # 3/8 tail
        total = total + (3.0 * h / 8.0) * (v[..., n - 3] + 3.0 * v[..., n - 2]
                                           + 3.0 * v[..., n - 1] + v[..., n])
    return total


def _moments(z: np.ndarray, span: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m_j = integral_0^span exp(-mu*u) u^j du, j = 0, 1, 2, with z = mu*span.

    Below the cutoff m_j = span^(j+1) sum_k (-z)^k C[k, j]: one product of
    a block of powers with the table C gives all three sums.  A z on one
    side of the cutoff is taken whole; only a mixed z is split by masks.
    """
    z = np.asarray(z, dtype=complex)
    m = np.empty((3,) + z.shape, dtype=complex)
    flat, m_flat = z.reshape(-1), m.reshape(3, -1)
    small = np.abs(flat) < _SERIES_CUTOFF
    count = np.count_nonzero(small)
    if count:
        pick = slice(None) if count == small.size else small
        w = -flat[pick]
        series = np.empty((w.size, 3), dtype=complex)
        rows = max(1, _BLOCK_ENTRIES // _SERIES_TERMS)
        for lo in range(0, w.size, rows):  # (-z)^k for a block of entries
            powers = w[lo:lo + rows, None].repeat(_SERIES_TERMS, axis=1)
            powers[:, 0] = 1.0
            np.multiply.accumulate(powers, axis=1, out=powers)
            np.matmul(powers, _SERIES_COEFFS, out=series[lo:lo + rows])
        m_flat[:, pick] = (series * [span, span * span, span ** 3]).T
    if count < small.size:
        pick = ~small if count else slice(None)
        zl = flat[pick]
        mu = zl / span
        e = np.exp(-zl)
        m_flat[0, pick] = (1.0 - e) / mu
        m_flat[1, pick] = (1.0 - e * (1.0 + zl)) / (mu * mu)
        m_flat[2, pick] = (2.0 - e * (2.0 + 2.0 * zl + zl * zl)) / (mu ** 3)
    return m[0], m[1], m[2]


def _quadratic_weights(m0, m1, m2, h: float):
    """Weights for f0, f1, f2 at nodes 0, h, 2h given segment moments."""
    w0 = m0 - 1.5 * m1 / h + 0.5 * m2 / (h * h)
    w1 = 2.0 * m1 / h - m2 / (h * h)
    w2 = -0.5 * m1 / h + 0.5 * m2 / (h * h)
    return w0, w1, w2


def exp_weighted_integral(values: np.ndarray, h: float, mu: np.ndarray,
                          axis: int = -1, origin: np.ndarray | None = None
                          ) -> np.ndarray:
    """integral_0^{(n-1)h} exp(-mu*y) f(y) dy from samples f at 0, h, ..., (n-1)h,
    or from f(0) = `origin` and `values` at h, 2h, ..., (n-1)h.

    f is interpolated by quadratics over Simpson pairs (and on a last odd
    interval) while the exponential is integrated exactly.  The pairs sum to
    w0*R0 + w1*R1 + w2*R2, R_c = sum_k s^k x_{2k+c} with s = exp(-2*mu*h),
    and the chains are summed backwards, R *= s; R += x[2k:2k+3], on
    node-first views: two in-place calls per pair, no temporary larger than
    a plane.  `mu` has the shape of `values` without the node axis `axis`,
    or broadcasts to it.
    """
    v = np.moveaxis(np.asarray(values, dtype=complex), axis, 0)
    mu = np.asarray(mu, dtype=complex)
    off = int(origin is not None)  # node j is v[j - off]
    n = len(v) + off - 1
    if n < 2:
        raise ValueError("need at least three samples")
    w0, w1, w2 = _quadratic_weights(*_moments(mu * (2.0 * h), 2.0 * h), h)
    s = np.exp(-2.0 * h * mu)
    chains = np.zeros((3,) + np.broadcast_shapes(v.shape[1:], mu.shape), dtype=complex)
    for j in range(2 * (n // 2) - 2 - off, -off - 1, -2):  # pair of nodes j+off..j+off+2
        chains *= s
        chains += v[j:j + 3] if j >= 0 else (origin, v[0], v[1])
    total = w0 * chains[0] + w1 * chains[1] + w2 * chains[2]
    if n % 2:  # last interval: the quadratic through the last three nodes
        total = total + np.exp(-mu * ((n - 1) * h)) * exp_weighted_segment(
            v[n - 2 - off], v[n - 1 - off], v[n - off], h, mu)[1]
    return total


def halfline_integral(slice_values: np.ndarray, mu: np.ndarray,
                      dx2: float, axis: int = -1) -> np.ndarray:
    """integral_0^{L_x2} exp(-mu*y) f(y) dy from samples at the stored nodes.

    The origin sample is extrapolated (the stack is not copied); the
    exponential factor is integrated exactly (order 4 in the smoothness).
    """
    return exp_weighted_integral(slice_values, dx2, mu, axis,
                                 extrapolate_origin(slice_values, axis))


def exp_weighted_segment(f0, f1, f2, h: float, mu):
    """(pair, tail) of the quadratic q through the samples (f0, f1, f2) at
    u = 0, h, 2h: pair = integral_0^{2h} exp(-mu*u) q(u) du, the Simpson
    pair rule, and tail = integral_0^h exp(-mu*r) q(h + r) dr, the last
    interval without its factor exp(-mu*h).

    One call of the [0, h] moments on z = (2*mu*h, mu*h), stacked last,
    gives both.  At 2*mu*h they are the pair's over [0, 2h] divided by
    2^(j+1), which is exact; at mu*h, shifted by h, the tail's, which
    neither cancel nor overflow.
    """
    mu = np.asarray(mu, dtype=complex)
    m0, m1, m2 = _moments(np.multiply.outer(mu, (2.0 * h, h)), h)
    m0[..., 0] *= 2.0
    m1[..., 0] *= 4.0
    m2[..., 0] *= 8.0
    shift = h * m0[..., 1]  # the tail: moments of (h + r)^j
    m2[..., 1] += h * (2.0 * m1[..., 1] + shift)
    m1[..., 1] += shift
    w0, w1, w2 = _quadratic_weights(m0, m1, m2, h)
    f0, f1, f2 = (np.asarray(f)[..., None] for f in (f0, f1, f2))
    total = w0 * f0 + w1 * f1 + w2 * f2
    return total[..., 0], total[..., 1]
