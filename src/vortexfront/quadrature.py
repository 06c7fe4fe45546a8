"""Quadrature rules for half-line integrals against decaying exponentials.

The forcing integrals have the form integral_0^L exp(-mu*y) f(y) dy with
Re(mu) > 0 possibly large.  Plain product quadrature loses accuracy once
mu*h is not small, so the rules here integrate the exponential factor
exactly against a piecewise-quadratic interpolant of f (Simpson-type
nodes): order 4 in the smoothness of f, uniformly in mu.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["extrapolate_origin", "simpson_closed", "exp_weighted_integral",
           "exp_weighted_segment", "halfline_integral"]

# Below this |z| = |mu*span| the closed-form moments cancel (3e-15 relative at 1,
# 1e-13 at 0.25); the series, coefficient 1/(k! (k+j+1)) at row k, column j, is used.
_SERIES_CUTOFF = 1.7
_SERIES_TERMS = 21
_SERIES_COEFFS = np.array([[1.0 / (math.factorial(k) * (k + j + 1)) for j in range(3)]
                           for k in range(_SERIES_TERMS)], dtype=complex)
# Entries per block of chain or series powers: a 1-D call's pairs, a stack by planes.
_BLOCK_ENTRIES = 4096


def extrapolate_origin(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Value at y = 0 from samples at h, 2h, ..., by a degree-4 polynomial.

    Error O(h^5) for smooth data, below the O(h^4) of the integration rules
    that consume it.
    """
    v = np.moveaxis(np.asarray(values), axis, -1)
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
    a block of powers with the table C gives all three sums.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SERIES_CUTOFF
    m = np.empty((3,) + z.shape, dtype=complex)
    if small.any():
        w = -z[small]
        series = np.empty((w.size, 3), dtype=complex)
        rows = max(1, _BLOCK_ENTRIES // _SERIES_TERMS)
        for lo in range(0, w.size, rows):  # (-z)^k for a block of entries
            powers = np.repeat(w[lo:lo + rows, None], _SERIES_TERMS, axis=1)
            powers[:, 0] = 1.0
            np.multiply.accumulate(powers, axis=1, out=powers)
            np.matmul(powers, _SERIES_COEFFS, out=series[lo:lo + rows])
        m[:, small] = (series * [span, span * span, span ** 3]).T
    if not small.all():
        zl = z[~small]
        mu = zl / span
        e = np.exp(-zl)
        m[0, ~small] = (1.0 - e) / mu
        m[1, ~small] = (1.0 - e * (1.0 + zl)) / (mu * mu)
        m[2, ~small] = (2.0 - e * (2.0 + 2.0 * zl + zl * zl)) / (mu ** 3)
    return m[0], m[1], m[2]


def _quadratic_weights(m0, m1, m2, h: float):
    """Weights for f0, f1, f2 at nodes 0, h, 2h given segment moments."""
    w0 = m0 - 1.5 * m1 / h + 0.5 * m2 / (h * h)
    w1 = 2.0 * m1 / h - m2 / (h * h)
    w2 = -0.5 * m1 / h + 0.5 * m2 / (h * h)
    return w0, w1, w2


def _pair_weights(mu, h: float):
    """Weights of f0, f1, f2 at nodes 0, h, 2h for one Simpson pair [0, 2h]."""
    return _quadratic_weights(*_moments(mu * (2.0 * h), 2.0 * h), h)


def _pair_terms(v: np.ndarray, weights, stride: int = 2) -> np.ndarray:
    """Simpson-pair integrals over v[k:k+3], k = 0, stride, ...; nodes first."""
    w0, w1, w2 = weights
    stop = len(v) - 2
    return (w0 * v[0:stop:stride] + w1 * v[1:stop + 1:stride]
            + w2 * v[2:stop + 2:stride])


def exp_weighted_integral(values: np.ndarray, h: float, mu: np.ndarray,
                          axis: int = -1, origin: np.ndarray | None = None
                          ) -> np.ndarray:
    """integral_0^{(n-1)h} exp(-mu*y) f(y) dy from samples f at 0, h, ..., (n-1)h,
    or from f(0) = `origin` and `values` at h, 2h, ..., (n-1)h.

    f is interpolated by quadratics over Simpson pairs (and on a last odd
    interval) while the exponential is integrated exactly.  The pairs sum to
    w0*R0 + w1*R1 + w2*R2, R_c = sum_k s^k x_{2k+c} with s = exp(-2*mu*h),
    and the chains are summed backwards by blocks of node-first views: one
    contraction with s^0..s^(B-1) per block of B pairs, or R *= s;
    R += x[2k:2k+3] where a block is one pair.  No temporary outgrows a
    block.  `mu` has the shape of `values` without the node axis `axis`, or
    broadcasts to it.
    """
    v = np.moveaxis(np.asarray(values, dtype=complex), axis, 0)
    mu = np.asarray(mu, dtype=complex)
    off = int(origin is not None)  # node j is v[j - off]
    n = len(v) + off - 1
    if n < 2:
        raise ValueError("need at least three samples")
    w0, w1, w2 = _pair_weights(mu, h)
    block = min(max(1, _BLOCK_ENTRIES // v[0].size), n // 2)
    powers = np.repeat(np.exp(-2.0 * h * mu)[None], block + 1, axis=0)
    powers[0] = 1.0  # s^0 .. s^block
    if block > 1:  # accumulating along axis 0 loops once per plane entry
        np.multiply.accumulate(powers, axis=0, out=powers)
    pairs = as_strided(v[off:], (n // 2 - off, 3) + v.shape[1:],  # pair k at k - off
                       (2 * v.strides[0],) + v.strides, writeable=False)
    chains = np.zeros((3,) + np.broadcast_shapes(v.shape[1:], mu.shape), dtype=complex)
    for hi in range(n // 2, off, -block):  # pairs lo..hi-1
        lo = max(off, hi - block)
        chains *= powers[hi - lo]
        if hi - lo == 1:
            chains += pairs[lo - off]
        else:
            chains += np.einsum("jc...,j...->c...", pairs[lo - off:hi - off],
                                powers[:hi - lo])
    if off:
        chains *= powers[1]
        chains += (origin, v[0], v[1])
    total = w0 * chains[0] + w1 * chains[1] + w2 * chains[2]
    if n % 2:  # last interval: the quadratic through the last three nodes
        total = total + np.exp(-mu * ((n - 2) * h)) * exp_weighted_segment(
            v[n - 2 - off], v[n - 1 - off], v[n - off], h, mu, "tail")
    return total


def halfline_integral(slice_values: np.ndarray, mu: np.ndarray,
                      dx2: float, axis: int = -1) -> np.ndarray:
    """integral_0^{L_x2} exp(-mu*y) f(y) dy from samples at the stored nodes.

    The origin sample is extrapolated (the stack is not copied); the
    exponential factor is integrated exactly (order 4 in the smoothness).
    """
    return exp_weighted_integral(slice_values, dx2, mu, axis,
                                 extrapolate_origin(slice_values, axis))


def _segment_weights(mu, h: float, part: str):
    """Weights of f0, f1, f2 (at u = 0, h, 2h) for the integral over r in
    [0, h] of exp(-mu*r)*q(r) ("head") or exp(-mu*r)*q(h + r) ("tail", the
    [h, 2h] moments without their factor exp(-mu*h): no cancellation).
    """
    m0, m1, m2 = _moments(mu * h, h)
    if part == "tail":
        m1, m2 = m1 + h * m0, m2 + h * (2.0 * m1 + h * m0)
    elif part != "head":
        raise ValueError("part must be 'head' or 'tail'")
    return _quadratic_weights(m0, m1, m2, h)


def exp_weighted_segment(f0, f1, f2, h: float, mu, part: str):
    """integral of exp(-mu*u)*q(u) over [0, h] ("head") or [h, 2h] ("tail"),

    q being the quadratic through the samples (f0, f1, f2) at u = 0, h, 2h.
    """
    mu = np.asarray(mu, dtype=complex)
    w0, w1, w2 = _segment_weights(mu, h, part)
    total = w0 * f0 + w1 * f1 + w2 * f2
    return total if part == "head" else np.exp(-mu * h) * total
