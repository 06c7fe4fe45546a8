"""Quadrature rules for half-line integrals against decaying exponentials.

The forcing integrals have the form integral_0^L exp(-mu*y) f(y) dy with
Re(mu) > 0 possibly large.  Plain product quadrature loses accuracy once
mu*h is not small, so the rules here integrate the exponential factor
exactly against a piecewise-quadratic interpolant of f (Simpson-type
nodes): order 4 in the smoothness of f, uniformly in mu.
"""

from __future__ import annotations

import numpy as np

__all__ = ["extrapolate_origin", "simpson_closed", "exp_weighted_integral",
           "exp_weighted_segment", "halfline_integral"]

# Below this |mu*h| the closed-form moments lose digits to cancellation and
# a truncated series is used instead (14 terms reach full precision).
_SERIES_CUTOFF = 0.25
_SERIES_TERMS = 16
# Pair-term entries per Horner block: all pairs of a 1-D call, a stack by planes.
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
    """m_j = integral_0^span exp(-mu*u) u^j du, j = 0, 1, 2, with z = mu*span."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SERIES_CUTOFF
    m0 = np.empty(z.shape, dtype=complex)
    m1 = np.empty(z.shape, dtype=complex)
    m2 = np.empty(z.shape, dtype=complex)

    if small.any():
        zs = z[small]
        s0 = np.zeros_like(zs)
        s1 = np.zeros_like(zs)
        s2 = np.zeros_like(zs)
        term = np.ones_like(zs)
        for k in range(_SERIES_TERMS):
            s0 += term / (k + 1)
            s1 += term / (k + 2)
            s2 += term / (k + 3)
            term = term * (-zs) / (k + 1)
        m0[small] = span * s0
        m1[small] = span * span * s1
        m2[small] = span ** 3 * s2
    if not small.all():
        zl = z[~small]
        mu = zl / span
        e = np.exp(-zl)
        m0[~small] = (1.0 - e) / mu
        m1[~small] = (1.0 - e * (1.0 + zl)) / (mu * mu)
        m2[~small] = (2.0 - e * (2.0 + 2.0 * zl + zl * zl)) / (mu ** 3)
    return m0, m1, m2


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
    interval) while the exponential is integrated exactly.  The pairs are
    summed backwards, total = total*exp(-2*mu*h) + pair_k, by blocks of
    node-first views, so no temporary outgrows a block.  `mu` has the shape
    of `values` without the node axis `axis`, or broadcasts to it.
    """
    v = np.moveaxis(np.asarray(values, dtype=complex), axis, 0)
    mu = np.asarray(mu, dtype=complex)
    off = int(origin is not None)  # node j is v[j - off]
    n = len(v) + off - 1
    if n < 2:
        raise ValueError("need at least three samples")
    weights = _pair_weights(mu, h)
    step = np.exp(-2.0 * h * mu)
    block = max(1, _BLOCK_ENTRIES // v[0].size)
    total = 0j
    for hi in range(n // 2, off, -block):  # pairs lo..hi-1
        lo = max(off, hi - block)
        for term in _pair_terms(v[2 * lo - off:2 * hi + 1 - off], weights)[::-1]:
            total = total * step + term
    if off:
        total = total * step + _pair_terms(np.stack((origin, v[0], v[1])),
                                           weights)[0]
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
