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
# Complex entries (1 MiB) per block of x2 levels in the depth quadrature: 32
# levels of a 64x33 plane, 8 of 128x65; one plane is one entry of a 1-D call.
_LEVEL_BLOCK_ENTRIES = 1 << 16


def extrapolate_origin(values: np.ndarray) -> np.ndarray:
    """Value at y = 0 from samples at h, 2h, ... on the last axis, by a
    degree-4 polynomial.

    Error O(h^5) for smooth data, below the O(h^4) of the integration rules
    that consume it.
    """
    v = np.asarray(values)
    if v.shape[-1] < 5:
        raise ValueError("need at least five samples to extrapolate the origin")
    return (5.0 * v[..., 0] - 10.0 * v[..., 1] + 10.0 * v[..., 2]
            - 5.0 * v[..., 3] + v[..., 4])


def simpson_closed(values: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson over samples spanning [0, (n-1)*h], both ends included,
    on the last axis.

    An odd interval count is finished with the 3/8 rule on the last three
    intervals, preserving order 4.
    """
    v = np.asarray(values)
    n = v.shape[-1] - 1
    if n < 4:
        raise ValueError("need at least five samples")
    stop = n if n % 2 == 0 else n - 3
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
    a block of powers with the table C gives all three sums, the same bits
    in a call of any size.  A z on one side of the cutoff is taken whole;
    only a mixed z is split by masks.
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
            # A C loop, not BLAS, whose one-row product rounds unlike the
            # same row of a larger one: bits do not depend on the call size.
            np.einsum("ik,kj->ij", powers, _SERIES_COEFFS, out=series[lo:lo + rows])
        m_flat[:, pick] = (series * [span, span * span, span ** 3]).T
    if count < small.size:
        pick = ~small if count else slice(None)
        zl = flat[pick]
        mu = zl / span
        e = np.exp(-zl)
        m_flat[0, pick] = (1.0 - e) / mu
        m_flat[1, pick] = m1 = (1.0 - e * (1.0 + zl)) / (mu * mu)
        m_flat[2, pick] = (2.0 * m1 - span * span * e) / mu  # by parts
    return m[0], m[1], m[2]


def _quadratic_weights(m0, m1, m2, h: float):
    """Weights for f0, f1, f2 at nodes 0, h, 2h given segment moments."""
    w0 = m0 - 1.5 * m1 / h + 0.5 * m2 / (h * h)
    w1 = 2.0 * m1 / h - m2 / (h * h)
    w2 = -0.5 * m1 / h + 0.5 * m2 / (h * h)
    return w0, w1, w2


def _level_block(plane: int) -> int:
    """Levels per block of the depth quadrature on planes of `plane` entries."""
    return max(2, 2 * round(_LEVEL_BLOCK_ENTRIES / (2 * plane)))


class _DepthSum:
    """The Simpson pairs of :func:`exp_weighted_integral` on the levels
    (nodes 1..n) of a stack of planes, summed in blocks of levels.

    With s = exp(-2*mu*h) and P = n//2 the pairs sum to w0*x0 +
    (w0*s + w2)*E + w1*O + s^(P-1)*(w1*x_{2P-1} + w2*x_{2P}), where the
    parity chains (O, E) = sum_k s^k (x_{2k+1}, x_{2k+2}), k < P - 1, take
    the first `chain` levels.  A block of them (an even count fixed by the
    plane size) sums its partial backwards, acc *= s; acc += part[j:j+2],
    and the partials join by Horner with exp(-mu*h*block): no power of s
    is divided, so an underflowing s is harmless.
    """

    def __init__(self, mu, h: float, n: int, plane: int):
        self.mu, self.h, self.n = mu, h, n
        self.block, self.chain = _level_block(plane), 2 * (n // 2 - 1)
        self.s = np.exp(-2.0 * h * mu)
        self.step = np.exp(-mu * (h * self.block))
        self.w = _quadratic_weights(*_moments(mu * (2.0 * h), 2.0 * h), h)

    def partial(self, part, acc):
        """acc = sum_k s^k part[2k:2k+2], from acc = part[-2:] (or that view)."""
        for j in range(len(part) - 4, -1, -2):
            acc *= self.s
            acc += part[j:j + 2]
        return acc

    def total(self, origin, partials, ends):
        """The integral from node 0, the block partials, last block first
        (the first is overwritten), and the levels chain..n-1, nodes
        2P-1..n."""
        (w0, w1, w2), mu, h, n = self.w, self.mu, self.h, self.n
        total = w0 * origin + np.exp(-mu * (h * self.chain)) * (
            w1 * ends[0] + w2 * ends[1])
        chains = next(partials, None)
        if chains is not None:
            for partial in partials:
                chains *= self.step
                chains += partial
            total += (w0 * self.s + w2) * chains[1] + w1 * chains[0]
        if n % 2:  # last interval: the quadratic through the last three nodes
            total += np.exp(-mu * ((n - 1) * h)) * exp_weighted_segment(
                ends, h, mu, pairs=False)[1]
        return total


def exp_weighted_integral(values: np.ndarray, h: float, mu: np.ndarray,
                          origin: np.ndarray | None = None) -> np.ndarray:
    """integral_0^{(n-1)h} exp(-mu*y) f(y) dy from samples f at 0, h, ..., (n-1)h,
    or from f(0) = `origin` and `values` at h, 2h, ..., (n-1)h.

    f is interpolated by quadratics over Simpson pairs (and on a last odd
    interval) while the exponential is integrated exactly, by the block sums
    of :class:`_DepthSum` on node-first views, last block first: a few
    planes at a time, and the stack is never copied.  The nodes lie on the
    last axis; `mu` has the shape of the others, or broadcasts to it.
    """
    v = np.moveaxis(np.asarray(values, dtype=complex), -1, 0)
    if origin is None:
        origin, v = v[0], v[1:]
    if len(v) < 2:
        raise ValueError("need at least three samples")
    rule = _DepthSum(np.asarray(mu, dtype=complex), h, len(v), math.prod(v.shape[1:]))
    parts = (v[lo:min(lo + rule.block, rule.chain)]
             for lo in reversed(range(0, rule.chain, rule.block)))
    return rule.total(origin, (rule.partial(part, part[-2:].copy()) for part in parts),
                      v[rule.chain:])


def halfline_integral(slice_values: np.ndarray, mu: np.ndarray,
                      dx2: float) -> np.ndarray:
    """integral_0^{L_x2} exp(-mu*y) f(y) dy from samples at the stored nodes,
    on the last axis.

    The origin sample is extrapolated (the stack is not copied); the
    exponential factor is integrated exactly (order 4 in the smoothness).
    """
    return exp_weighted_integral(slice_values, dx2, mu,
                                 extrapolate_origin(slice_values))


def exp_weighted_segment(f, h: float, mu, pairs: bool = True):
    """(pair, tail) of the quadratics through node-first samples f at spacing
    h, `mu` broadcast over the trailing axes: pair[k] = integral_0^{2h}
    exp(-mu*u) q_k(u) du for q_k through f[k], f[k+1], f[k+2], the Simpson
    pair rule (None unless `pairs`), and tail = integral_0^h exp(-mu*r)
    q(h + r) dr for q through the last three samples, the last interval
    without its factor exp(-mu*h).  The [0, h] moments on z = (2*mu*h, mu*h)
    (or mu*h alone) give both: at 2*mu*h the pair's over [0, 2h] divided by
    2^(j+1), exactly; at mu*h, shifted by h, the tail's, which neither
    cancel nor overflow."""
    m0, m1, m2 = _moments(np.multiply.outer((2.0 * h, h)[not pairs:],
                                            np.asarray(mu, dtype=complex)), h)
    if pairs:
        m0[0], m1[0], m2[0] = 2.0 * m0[0], 4.0 * m1[0], 8.0 * m2[0]
    shift = h * m0[-1]  # the tail: moments of (h + r)^j
    m2[-1] += h * (2.0 * m1[-1] + shift)
    m1[-1] += shift
    w0, w1, w2 = _quadratic_weights(m0, m1, m2, h)
    f = np.asarray(f)
    # Array loops, also for 1-D f: numpy rounds complex scalars differently.
    tail = (w0[-1:] * f[-3:-2] + w1[-1:] * f[-2:-1] + w2[-1:] * f[-1:])[0]
    return (w0[0] * f[:-2] + w1[0] * f[1:-1] + w2[0] * f[2:]) if pairs else None, tail
