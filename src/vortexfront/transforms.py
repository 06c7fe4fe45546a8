"""Weighted Fourier transforms and the weighted Sobolev norms.

The solver and the half-space norms read the real half spectrum of
:class:`_HalfSpectrum`; :func:`weighted_forward` is the full reference path.
"""

from __future__ import annotations

import numpy as np

from .grids import FieldGrid, GridSpec
from .quadrature import extrapolate_origin, simpson_closed

__all__ = ["weighted_forward", "weighted_inverse", "sobolev_norm",
           "halfspace_norm", "spectral_slices"]


def _weight(grid: GridSpec, gamma: float) -> np.ndarray:
    return np.exp(-gamma * grid.t_nodes)


def weighted_forward(samples: np.ndarray, grid: GridSpec,
                     gamma: float | None = None) -> np.ndarray:
    """Multiply by exp(-gamma*t) and Fourier transform in (t, x1).

    Accepts a (n_t, n_x1) plane or a (n_t, n_x1, n_levels) stack; the
    transform acts on the first two axes.  Normalized by dt*dx1 so the bins
    approximate the continuous transform of the weighted field.
    """
    g = grid.gamma if gamma is None else gamma
    samples = np.asarray(samples)
    if samples.shape[:2] != (grid.n_t, grid.n_x1):
        raise ValueError(f"samples shape {samples.shape} does not start with "
                         f"({grid.n_t}, {grid.n_x1})")
    w = _weight(grid, g).reshape((grid.n_t,) + (1,) * (samples.ndim - 1))
    return np.fft.fft2(samples * w, axes=(0, 1)) * (grid.dt * grid.dx1)


def weighted_inverse(spectrum: np.ndarray, grid: GridSpec,
                     gamma: float | None = None) -> np.ndarray:
    """Inverse of :func:`weighted_forward`; returns the real part."""
    g = grid.gamma if gamma is None else gamma
    spectrum = np.asarray(spectrum, dtype=complex)
    if spectrum.shape[:2] != (grid.n_t, grid.n_x1):
        raise ValueError(f"spectrum shape {spectrum.shape} does not start with "
                         f"({grid.n_t}, {grid.n_x1})")
    u = np.fft.ifft2(spectrum / (grid.dt * grid.dx1), axes=(0, 1))
    w = np.exp(g * grid.t_nodes).reshape((grid.n_t,) + (1,) * (spectrum.ndim - 1))
    return (u * w).real


def sobolev_norm(f_hat: np.ndarray, s: float, gamma: float,
                 grid: GridSpec) -> float:
    """Weighted Sobolev norm of index s from a transformed plane.

    Discrete form of (1/(2*pi)^2) * double-integral of
    (gamma^2 + delta^2 + eta^2)^s |f_hat|^2; with s = 0 this is the
    discrete Plancherel L^2 norm.
    """
    f_hat = np.asarray(f_hat)
    lam2 = grid.lambda_sq(gamma)
    density = np.abs(f_hat) ** 2 if s == 0 else lam2 ** s * np.abs(f_hat) ** 2
    return float(np.sqrt(density.sum() / (grid.L_t * grid.L_x1)))


def spectral_slices(field: FieldGrid, gamma: float | None = None
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


class _HalfSpectrum:
    """The x1 rfft of one real forcing side, laid out (n_x2, n_t, n_x1//2+1).

    It does not depend on gamma; :meth:`slices` adds the weight and t-FFT.
    """

    def __init__(self, samples: np.ndarray, grid: GridSpec):
        self.grid = grid
        self.x1_hat = np.empty((samples.shape[2], grid.n_t, grid.n_x1 // 2 + 1),
                               dtype=complex)
        np.fft.rfft(np.moveaxis(samples, 2, 0), axis=-1, out=self.x1_hat)

    def slices(self, gamma: float) -> np.ndarray:
        """The bins 0..n_x1//2 of :func:`weighted_forward`, x2 leading."""
        g = self.grid
        spec = self.x1_hat * (_weight(g, gamma) * (g.dt * g.dx1))[:, None]
        return np.fft.fft(spec, axis=1, out=spec)


def _x2_norm(per_level: np.ndarray, grid: GridSpec) -> float:
    """sqrt of the x2 integral over [0, L_x2], origin level extrapolated."""
    full = np.concatenate(([extrapolate_origin(per_level)], per_level))
    return float(np.sqrt(simpson_closed(full, grid.dx2)))


def _halfspace_norm_of(spec: np.ndarray, grid: GridSpec, s: float,
                       gamma: float) -> float:
    """:func:`halfspace_norm` from one side's :meth:`_HalfSpectrum.slices`."""
    weight = grid.lambda_sq(gamma)[:, :spec.shape[2]] ** s
    weight[:, 1:grid.n_x1 - spec.shape[2] + 1] *= 2.0  # conjugate pairs
    per_level = ((np.abs(spec) ** 2).reshape(len(spec), -1) @ weight.ravel()
                 / (grid.L_t * grid.L_x1))
    return _x2_norm(per_level, grid)


def halfspace_norm(samples: np.ndarray, grid: GridSpec, s: float,
                   gamma: float) -> float:
    """L^2-in-x2 norm of the per-slice Sobolev norms of one forcing side.

    The x2 integral runs over [0, L_x2] with the origin slice value
    extrapolated from the stored nodes.  Each slice norm sums the half
    spectrum, weight 2 on columns that stand for a conjugate pair; the
    Nyquist bins are kept.  At s = 0 that sum is, by discrete Plancherel,
    dt*dx1*sum over (t, x1) of exp(-2*gamma*t)*F^2, taken with no transform.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or samples.shape[:2] != (grid.n_t, grid.n_x1):
        raise ValueError(f"samples shape {samples.shape} does not fit the grid")
    if s != 0:
        return _halfspace_norm_of(_HalfSpectrum(samples, grid).slices(gamma),
                                  grid, s, gamma)
    per_level = (np.exp(-2.0 * gamma * grid.t_nodes)
                 @ np.einsum("ijk,ijk->ik", samples, samples))
    return _x2_norm((grid.dt * grid.dx1) * per_level, grid)
