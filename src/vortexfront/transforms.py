"""Weighted Fourier transforms and the weighted Sobolev norms.

The solver and the half-space norms read the real half spectrum of
:func:`_half_spectrum`, laid out, paired and indexed here alone, through
:func:`_depth_pass`; :func:`weighted_forward` is the full reference path.
It and :func:`weighted_inverse` transform in place in the array they
return, the only one each allocates.
"""

from __future__ import annotations

import numpy as np

from .domain import _refuse_nonfinite, _require_finite, _split
from .grids import FieldGrid, GridSpec, _refuse_shape, _sobolev_weight
from .quadrature import _DepthSum, _level_block, extrapolate_origin, simpson_closed

__all__ = ["weighted_forward", "weighted_inverse", "sobolev_norm",
           "halfspace_norm", "spectral_slices"]


def _weight(grid: GridSpec, gamma: float, sign: float = -1.0) -> np.ndarray:
    _refuse_nonfinite(gamma=gamma)  # named as passed, not as sign*gamma
    return np.exp(sign * gamma * grid.t_nodes)


def weighted_forward(samples: np.ndarray, grid: GridSpec,
                     gamma: float) -> np.ndarray:
    """Multiply by exp(-gamma*t) and Fourier transform in (t, x1).

    Accepts a (n_t, n_x1) plane or a (n_t, n_x1, n_levels) stack; the
    transform acts on the first two axes.  Normalized by dt*dx1 so the bins
    approximate the continuous transform of the weighted field.  The
    returned complex array is the only one allocated.
    """
    samples = np.asarray(samples)
    _refuse_shape("samples", samples, grid, *samples.shape[2:])
    w = _weight(grid, gamma).reshape((grid.n_t,) + (1,) * (samples.ndim - 1))
    out = np.multiply(samples, w, dtype=complex)
    np.fft.fft(out, axis=1, out=out)  # the axis order of np.fft.fft2
    np.fft.fft(out, axis=0, out=out)
    out *= grid.dt * grid.dx1
    return out


def weighted_inverse(spectrum: np.ndarray, grid: GridSpec,
                     gamma: float) -> np.ndarray:
    """Inverse of :func:`weighted_forward`; returns the real part.

    One complex array is transformed in place; the real array returned, which
    owns its data and is refused unless finite, is the only other one allocated.
    """
    spectrum = np.asarray(spectrum, dtype=complex)
    _refuse_shape("spectrum", spectrum, grid, *spectrum.shape[2:])
    with np.errstate(over="ignore", invalid="ignore"):  # gated below
        w = _weight(grid, gamma, 1.0).reshape((grid.n_t,) + (1,) * (spectrum.ndim - 1))
        u = np.divide(spectrum, grid.dt * grid.dx1)
        np.fft.ifft(u, axis=1, out=u)  # the axis order of np.fft.ifft2
        np.fft.ifft(u, axis=0, out=u)
        out = np.multiply(u.real, w)
    _require_finite("the front exp(gamma*t)*u", out, gamma=gamma, L_t=grid.L_t)
    return out


def sobolev_norm(f_hat: np.ndarray, s: float, gamma: float,
                 grid: GridSpec) -> float:
    """Weighted Sobolev norm of index s from a transformed plane.

    Discrete form of (1/(2*pi)^2) * double-integral of
    (gamma^2 + delta^2 + eta^2)^s |f_hat|^2; with s = 0 this is the
    discrete Plancherel L^2 norm.  A squared norm that is not finite is
    refused, naming gamma and s.
    """
    f_hat = np.asarray(f_hat)
    _refuse_shape("f_hat", f_hat, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        density = np.abs(f_hat) ** 2
        if s != 0:
            density = _sobolev_weight(grid, gamma, s) * density
        total = density.sum() / (grid.L_t * grid.L_x1)
    _require_finite("the squared Sobolev norm", total, gamma=gamma, s=s)
    return float(np.sqrt(total))


def spectral_slices(field: FieldGrid, gamma: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Transformed forcing slices at every stored x2 level."""
    return (weighted_forward(field.f_plus, field.grid, gamma),
            weighted_forward(field.f_minus, field.grid, gamma))


def _bin(axis: np.ndarray, value: float, name: str) -> int:
    """The bin of a frequency axis nearest value clipped to the axis (far
    beyond it, all distances round alike); the Nyquist bin is refused."""
    idx = int(np.argmin(np.abs(axis - np.clip(value, axis.min(), axis.max()))))
    if idx == axis.size // 2:
        raise ValueError(f"{name} = {axis[idx]:.12g} is an unpaired Nyquist "
                         "bin, which the solver zeroes")
    return idx


def _bin_slices(field: FieldGrid, gamma: float, delta: float, eta: float
                ) -> tuple[tuple[float, float], list[np.ndarray]]:
    """The (delta, eta) of the nearest :func:`_bin` and its slices, by a DFT."""
    g = field.grid
    it, ix = _bin(g.delta_axis, delta, "delta"), _bin(g.eta_axis, eta, "eta")
    turns = np.add.outer(it * np.arange(g.n_t) % g.n_t / g.n_t,
                         ix * np.arange(g.n_x1) % g.n_x1 / g.n_x1)
    kernel = (np.exp(-2j * np.pi * turns)
              * (_weight(g, gamma) * (g.dt * g.dx1))[:, None])
    return (float(g.delta_axis[it]), float(g.eta_axis[ix])), [
        np.tensordot(kernel.real, f, 2) + 1j * np.tensordot(kernel.imag, f, 2)
        for f in (field.f_plus, field.f_minus)]


def _paired_full(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The full grid of a Hermitian half-spectrum array, Nyquist bins zeroed.

    Column j > n_x1//2 is the conjugate of column n_x1 - j at the negated
    t-frequency.  Unpaired, the Nyquist bins would leave the solved spectrum
    non-Hermitian; the discrete forcing is in effect band-limited to the
    paired modes.
    """
    half[grid.n_t // 2, :] = 0.0
    half[:, grid.n_x1 // 2] = 0.0
    mirror = half[-np.arange(grid.n_t), grid.n_x1 - half.shape[1]:0:-1]
    return np.concatenate((half, np.conj(mirror)), axis=1)


def _depth_rule(grid: GridSpec, mu: np.ndarray) -> _DepthSum:
    """The depth rule of one side's roots over the half spectrum."""
    return _DepthSum(mu[:, :grid.n_x1 // 2 + 1], grid.dx2, grid.n_x2,
                     grid.n_t * (grid.n_x1 // 2 + 1))


def _half_spectrum(samples: np.ndarray, grid: GridSpec, x1_hat=None) -> np.ndarray:
    """The x1 rfft of one real forcing side, laid out (n_x2, n_t, n_x1//2+1),
    into x1_hat when one is given: an array an earlier call returned.

    It does not depend on gamma; :func:`_depth_pass` adds the weight and
    t-FFT.
    """
    if x1_hat is None:
        x1_hat = np.empty((samples.shape[2], grid.n_t, grid.n_x1 // 2 + 1),
                          dtype=complex)

    # One (n_x1, n_x2) t-plane at a time: it fits in cache, where a
    # whole-stack rfft along the strided x1 axis streams from memory.
    def planes(lo, hi):
        for i in range(lo, hi):
            np.fft.rfft(samples[i].T, axis=-1, out=x1_hat[:, i])

    _split(planes, grid.n_t, x1_hat.size)
    return x1_hat


def _depth_pass(x1_hat: np.ndarray, grid: GridSpec, gamma: float, rule=None,
                s: float | None = None, in_place: bool = False):
    """((I, |last level|) if a rule is given, norm if s is given) of the
    slices (bins 0..n_x1//2 of :func:`weighted_forward`, x2 leading): I is
    their :func:`halfline_integral` by `rule`, the :class:`_DepthSum` of
    their roots, and norm their :func:`halfspace_norm`.

    One :func:`_split` over the rule's level blocks weights a block, runs
    its t-FFT, adds its level norms and sums its chain partial while it is
    in cache; levels 0..4 and those after the chains are copied aside.
    in_place overwrites x1_hat and leaves each partial in its spent block:
    no stack is allocated.
    """
    n, n_t, nh = x1_hat.shape
    w = (_weight(grid, gamma) * (grid.dt * grid.dx1))[:, None]
    block, chain = _level_block(n_t * nh), 2 * (n // 2 - 1)
    keep = [*range(5), *range(chain, n)]
    ends = np.empty((len(keep) if rule else 0, n_t, nh), dtype=complex)
    parts = [None] * -(-chain // block)
    per_level = np.empty(n)
    if s is not None:
        weight = _sobolev_weight(grid, gamma, s)[:, :nh]
        weight[:, 1:grid.n_x1 - nh + 1] *= 2.0  # conjugate pairs
        weight = weight.ravel()

    def blocks(start, stop):
        buf = None if in_place else np.empty((block, n_t, nh), dtype=complex)
        for b in range(start, stop):
            lo, hi = b * block, min(b * block + block, n)
            levels = x1_hat[lo:hi]
            part = np.multiply(levels, w, out=levels if in_place else buf[:hi - lo])
            np.fft.fft(part, axis=1, out=part)
            if s is not None:
                with np.errstate(over="ignore"):  # _x2_norm gates the result
                    sq = np.abs(part)
                    per_level[lo:hi] = (np.square(sq, out=sq).reshape(hi - lo, -1)
                                        @ weight)
            if rule:
                for i, level in enumerate(keep):
                    if lo <= level < hi:
                        ends[i] = part[level - lo]
                top = min(hi, chain) - lo
                if top > 0:
                    acc = part[top - 2:top]
                    parts[b] = rule.partial(part[:top], acc if in_place else acc.copy())

    _split(blocks, -(-n // block), n * n_t * nh)
    return ((rule.total(extrapolate_origin(np.moveaxis(ends[:5], 0, -1)),
                        reversed(parts), ends[5:]), np.abs(ends[-1])) if rule else None,
            None if s is None else _x2_norm(per_level / (grid.L_t * grid.L_x1),
                                            grid, s, gamma))


def _x2_norm(per_level: np.ndarray, grid: GridSpec, s: float,
             gamma: float) -> float:
    """sqrt of the x2 integral over [0, L_x2], origin level extrapolated;
    an integral that is not finite is refused, naming gamma and s."""
    with np.errstate(over="ignore", invalid="ignore"):
        full = np.concatenate(([extrapolate_origin(per_level)], per_level))
        total = simpson_closed(full, grid.dx2)
    _require_finite("the squared half-space norm", total, gamma=gamma, s=s)
    return float(np.sqrt(total))


def halfspace_norm(samples: np.ndarray, grid: GridSpec, s: float,
                   gamma: float) -> float:
    """L^2-in-x2 norm of the per-slice Sobolev norms of one forcing side.

    The x2 integral runs over [0, L_x2] with the origin slice value
    extrapolated from the stored nodes.  Each slice norm sums the half
    spectrum, weight 2 on columns that stand for a conjugate pair; the
    Nyquist bins are kept.  At s = 0 that sum is, by discrete Plancherel,
    dt*dx1*sum over (t, x1) of exp(-2*gamma*t)*F^2, taken with no transform.
    A squared norm that is not finite is refused, naming gamma and s.
    """
    samples = np.asarray(samples, dtype=float)
    _refuse_shape("samples", samples, grid, grid.n_x2)
    if s != 0:
        return _depth_pass(_half_spectrum(samples, grid), grid, gamma, s=s,
                           in_place=True)[1]
    sq = np.empty((grid.n_t, grid.n_x2))

    def planes(lo, hi):  # each entry sums its x1 terms in order, in any split
        np.einsum("ijk,ijk->ik", samples[lo:hi], samples[lo:hi], out=sq[lo:hi])

    with np.errstate(over="ignore"):  # _x2_norm gates the result
        _split(planes, grid.n_t, samples.size)
        per_level = _weight(grid, gamma, -2.0) @ sq
    return _x2_norm((grid.dt * grid.dx1) * per_level, grid, s, gamma)
