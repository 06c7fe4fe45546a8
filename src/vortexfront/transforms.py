"""Weighted Fourier transforms and the weighted Sobolev norms.

The solver and the half-space norms read the real half spectrum of
:func:`_half_spectrum` through :func:`_depth_pass`; :func:`weighted_forward`
is the full reference path.  :func:`weighted_forward` and
:func:`weighted_inverse` transform in place in the array they return,
the only one each allocates.
"""

from __future__ import annotations

import numpy as np

from .domain import _require_finite, _split
from .grids import FieldGrid, GridSpec, _sobolev_weight
from .quadrature import _level_block, extrapolate_origin, simpson_closed

__all__ = ["weighted_forward", "weighted_inverse", "sobolev_norm",
           "halfspace_norm", "spectral_slices"]


def _weight(grid: GridSpec, gamma: float) -> np.ndarray:
    return np.exp(-gamma * grid.t_nodes)


def weighted_forward(samples: np.ndarray, grid: GridSpec,
                     gamma: float) -> np.ndarray:
    """Multiply by exp(-gamma*t) and Fourier transform in (t, x1).

    Accepts a (n_t, n_x1) plane or a (n_t, n_x1, n_levels) stack; the
    transform acts on the first two axes.  Normalized by dt*dx1 so the bins
    approximate the continuous transform of the weighted field.  The
    returned complex array is the only one allocated.
    """
    samples = np.asarray(samples)
    if samples.shape[:2] != (grid.n_t, grid.n_x1):
        raise ValueError(f"samples shape {samples.shape} does not start with "
                         f"({grid.n_t}, {grid.n_x1})")
    w = _weight(grid, gamma).reshape((grid.n_t,) + (1,) * (samples.ndim - 1))
    out = np.multiply(samples, w, dtype=complex)
    np.fft.fft(out, axis=1, out=out)  # the axis order of np.fft.fft2
    np.fft.fft(out, axis=0, out=out)
    out *= grid.dt * grid.dx1
    return out


def weighted_inverse(spectrum: np.ndarray, grid: GridSpec,
                     gamma: float) -> np.ndarray:
    """Inverse of :func:`weighted_forward`; returns the real part.

    One complex array is transformed in place; the real array returned,
    which owns its data, is the only other one allocated.
    """
    spectrum = np.asarray(spectrum, dtype=complex)
    if spectrum.shape[:2] != (grid.n_t, grid.n_x1):
        raise ValueError(f"spectrum shape {spectrum.shape} does not start with "
                         f"({grid.n_t}, {grid.n_x1})")
    u = np.divide(spectrum, grid.dt * grid.dx1)
    np.fft.ifft(u, axis=1, out=u)  # the axis order of np.fft.ifft2
    np.fft.ifft(u, axis=0, out=u)
    w = np.exp(gamma * grid.t_nodes).reshape((grid.n_t,) + (1,) * (spectrum.ndim - 1))
    return np.multiply(u.real, w)


def sobolev_norm(f_hat: np.ndarray, s: float, gamma: float,
                 grid: GridSpec) -> float:
    """Weighted Sobolev norm of index s from a transformed plane.

    Discrete form of (1/(2*pi)^2) * double-integral of
    (gamma^2 + delta^2 + eta^2)^s |f_hat|^2; with s = 0 this is the
    discrete Plancherel L^2 norm.  A squared norm that is not finite is
    refused, naming gamma and s.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        density = np.abs(np.asarray(f_hat)) ** 2
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


def _bin_slices(field: FieldGrid, gamma: float, it: int, ix: int
                ) -> list[np.ndarray]:
    """Bin (it, ix) of :func:`spectral_slices` by a direct weighted DFT."""
    g = field.grid
    turns = np.add.outer(it * np.arange(g.n_t) % g.n_t / g.n_t,
                         ix * np.arange(g.n_x1) % g.n_x1 / g.n_x1)
    kernel = (np.exp(-2j * np.pi * turns)
              * (_weight(g, gamma) * (g.dt * g.dx1))[:, None])
    return [np.tensordot(kernel.real, f, 2) + 1j * np.tensordot(kernel.imag, f, 2)
            for f in (field.f_plus, field.f_minus)]


def _half_spectrum(samples: np.ndarray, grid: GridSpec, x1_hat=None,
                   setup=None) -> np.ndarray:
    """The x1 rfft of one real forcing side, laid out (n_x2, n_t, n_x1//2+1),
    into x1_hat when one is given.

    It does not depend on gamma; :func:`_depth_pass` adds the weight and
    t-FFT.  setup(), work that does not read the field, is item 0 of the
    split, on the calling thread beside the other threads' planes.
    """
    if x1_hat is None:
        x1_hat = np.empty((samples.shape[2], grid.n_t, grid.n_x1 // 2 + 1),
                          dtype=complex)

    # One (n_x1, n_x2) t-plane at a time: it fits in cache, where a
    # whole-stack rfft along the strided x1 axis streams from memory.
    def planes(lo, hi):
        for i in range(lo, hi):
            if i:
                np.fft.rfft(samples[i - 1].T, axis=-1, out=x1_hat[:, i - 1])
            elif setup:
                setup()

    _split(planes, grid.n_t + 1, x1_hat.size)
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
    return ((rule.total(extrapolate_origin(ends[:5], axis=0), reversed(parts),
                        ends[5:]), np.abs(ends[-1])) if rule else None,
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
    if samples.ndim != 3 or samples.shape[:2] != (grid.n_t, grid.n_x1):
        raise ValueError(f"samples shape {samples.shape} does not fit the grid")
    if s != 0:
        return _depth_pass(_half_spectrum(samples, grid), grid, gamma, s=s,
                           in_place=True)[1]
    sq = np.empty((grid.n_t, samples.shape[2]))

    def planes(lo, hi):  # each entry sums its x1 terms in order, in any split
        np.einsum("ijk,ijk->ik", samples[lo:hi], samples[lo:hi], out=sq[lo:hi])

    with np.errstate(over="ignore"):  # _x2_norm gates the result
        _split(planes, grid.n_t, samples.size)
        per_level = np.exp(-2.0 * gamma * grid.t_nodes) @ sq
    return _x2_norm((grid.dt * grid.dx1) * per_level, grid, s, gamma)
