"""Space-time grids, sampled forcing fields and the VFGRID file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GridSpec", "FieldGrid", "suggested_depth", "read_field",
           "write_field"]

# A forcing field must have decayed by this factor at the truncation depth.
DECAY_FACTOR = 1e-6
# The max|F| a solve or sweep accepts: its square stays 2^62 inside the normal
# double range, room for the grid factors and weights of the squared norms.
_PEAK_RANGE = (2.0 ** -480, 2.0 ** 480)
# VFGRID data rows formatted per write.  A chunk's values are held as Python
# floats: writing a 32x32x192 field in chunks of 16384 rows raised the peak
# RSS by about 1 MB, in chunks of 65536 rows by 11 MB, at the same speed.
_WRITE_ROWS = 1 << 14


def _refuse_nonfinite(**values: float) -> None:
    """Raise ValueError naming the first of the values that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _sobolev_weight(grid: "GridSpec", gamma: float, s: float) -> np.ndarray:
    """(gamma^2 + delta^2 + eta^2)^s over the bins; ValueError naming gamma
    or s where it overflows."""
    with np.errstate(over="ignore"):
        lam2 = grid.lambda_sq(gamma)
        weight = lam2 ** s
    for name, value, a in (("gamma", gamma, lam2), ("s", s, weight)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} = {value:g} overflows the Sobolev weight "
                             f"(gamma^2 + delta^2 + eta^2)^s at s = {s:g}")
    return weight


def _refuse_magnitude(fieldgrid: "FieldGrid") -> None:
    """Raise ValueError for a nonzero max|F| outside _PEAK_RANGE."""
    lo, hi = _PEAK_RANGE
    if fieldgrid.peak > 0.0 and not lo <= fieldgrid.peak <= hi:
        raise ValueError(f"the forcing's magnitude max|F| = {fieldgrid.peak:.3g} is "
                         f"outside [{lo:.3g}, {hi:.3g}], where its squared "
                         "norms stay in the double range")


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the periodic (t, x1) box and the x2 half-space.

    n_t and n_x1 must be powers of two; x2 is sampled at the n_x2 uniform
    nodes k*L_x2/n_x2, k = 1..n_x2 (the value at x2 = 0 is recovered by
    extrapolation where a quadrature needs it); gamma >= 1 is the default weight.
    """

    n_t: int
    n_x1: int
    n_x2: int
    L_t: float
    L_x1: float
    L_x2: float
    gamma: float = 1.0

    def __post_init__(self):
        if not _is_power_of_two(self.n_t) or not _is_power_of_two(self.n_x1):
            raise ValueError("n_t and n_x1 must be powers of two")
        if self.n_x2 < 16:
            raise ValueError("n_x2 must be at least 16")
        _refuse_nonfinite(L_t=self.L_t, L_x1=self.L_x1, L_x2=self.L_x2,
                          gamma=self.gamma)
        if not (self.L_t > 0 and self.L_x1 > 0 and self.L_x2 > 0):
            raise ValueError("box lengths must be positive")
        if self.gamma < 1.0:
            raise ValueError("gamma must be at least 1 for solving")

    @property
    def dt(self) -> float:
        return self.L_t / self.n_t

    @property
    def dx1(self) -> float:
        return self.L_x1 / self.n_x1

    @property
    def dx2(self) -> float:
        return self.L_x2 / self.n_x2

    @property
    def t_nodes(self) -> np.ndarray:
        return np.arange(self.n_t) * self.dt

    @property
    def x1_nodes(self) -> np.ndarray:
        return np.arange(self.n_x1) * self.dx1

    @property
    def x2_nodes(self) -> np.ndarray:
        return np.arange(1, self.n_x2 + 1) * self.dx2

    @property
    def delta_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_t, d=self.dt)

    @property
    def eta_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_x1, d=self.dx1)

    def lambda_sq(self, gamma: float | None = None) -> np.ndarray:
        """gamma^2 + delta^2 + eta^2 over the (delta, eta) bins."""
        g = self.gamma if gamma is None else gamma
        return (g * g + self.delta_axis[:, None] ** 2
                + self.eta_axis[None, :] ** 2)


def suggested_depth(gamma: float, c: float, tol: float = 1e-10) -> float:
    """Truncation depth making exp(-gamma*L/(sqrt(2)*c)) <= tol.

    Uses the worst-case decay rate gamma/(sqrt(2)*c) of the pressure modes.
    """
    if gamma <= 0 or c <= 0 or not 0 < tol < 1:
        raise ValueError("gamma, c must be positive and 0 < tol < 1")
    return math.sqrt(2.0) * c * math.log(1.0 / tol) / gamma


@dataclass(frozen=True)
class FieldGrid:
    """Sampled forcing on the half-space grid.

    f_plus[i, j, k] = F_plus(t_i, x1_j, x2_k) and
    f_minus[i, j, k] = F_minus(t_i, x1_j, -x2_k) with x2_k > 0 the stored
    nodes.  Both sides must have decayed by DECAY_FACTOR at the last slab,
    the numerical stand-in for vanishing at infinity; peak, max|F| over
    both sides, is taken in that check.
    """

    f_plus: np.ndarray
    f_minus: np.ndarray
    grid: GridSpec
    peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = (self.grid.n_t, self.grid.n_x1, self.grid.n_x2)
        peaks = []
        for name, arr in (("f_plus", self.f_plus), ("f_minus", self.f_minus)):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            # Two reductions, no temporary the size of the side: NaN reaches
            # both and +-inf one, so both are finite iff every entry is.
            lo, hi = float(np.min(arr)), float(np.max(arr))
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} contains non-finite values")
            peak = max(abs(lo), abs(hi))  # +0.0, not -0.0, for a zero side
            peaks.append(peak)
            if peak > 0.0:
                slab = arr[:, :, -1]
                tail = max(abs(float(np.min(slab))), abs(float(np.max(slab))))
                if tail > DECAY_FACTOR * peak:
                    raise ValueError(
                        f"{name} has not decayed at x2 = L_x2 "
                        f"(last-slab max {tail:.3e} > {DECAY_FACTOR:g} * peak {peak:.3e}); "
                        "increase L_x2 or taper the forcing")
        object.__setattr__(self, "peak", max(peaks))

    def scaled(self, factor: float) -> "FieldGrid":
        return FieldGrid(self.f_plus * factor, self.f_minus * factor, self.grid)


def _rows(*columns, sep: str = ",") -> str:
    """Text rows of the broadcast columns (row-major), each value as %.17g,
    formatted by one % over the whole table."""
    table = np.column_stack([c.ravel() for c in np.broadcast_arrays(*columns)])
    line = sep.join(["%.17g"] * len(columns)) + "\n"
    return line * len(table) % tuple(table.ravel().tolist())


def write_field(path, field: FieldGrid) -> None:
    """Write a field in the plain-text VFGRID format.

    Header line ``VFGRID 1 n_t n_x1 n_x2 L_t L_x1 L_x2`` followed by
    n_t*n_x1*n_x2 lines ``F_plus F_minus`` in row-major (t, x1, x2) order,
    17 significant digits (round-trip safe).
    """
    g = field.grid
    fp = field.f_plus.reshape(-1)
    fm = field.f_minus.reshape(-1)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"VFGRID 1 {g.n_t} {g.n_x1} {g.n_x2} "
                 f"{g.L_t:.17g} {g.L_x1:.17g} {g.L_x2:.17g}\n")
        for lo in range(0, fp.size, _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            fh.write(_rows(fp[lo:hi], fm[lo:hi], sep=" "))


def read_field(path, gamma: float = 1.0) -> FieldGrid:
    """Read a VFGRID file; gamma seeds the returned GridSpec."""
    with open(path, "r") as fh:
        header = fh.readline().split()
        if len(header) != 8 or header[0] != "VFGRID" or header[1] != "1":
            raise ValueError("not a VFGRID version-1 file")
        n_t, n_x1, n_x2 = (int(x) for x in header[2:5])
        L_t, L_x1, L_x2 = (float(x) for x in header[5:8])
        grid = GridSpec(n_t, n_x1, n_x2, L_t, L_x1, L_x2, gamma=gamma)
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    count = n_t * n_x1 * n_x2
    if data.shape != (count, 2):
        raise ValueError(f"expected {count} data rows of 2 columns, "
                         f"got array of shape {data.shape}")
    shape = (n_t, n_x1, n_x2)
    return FieldGrid(data[:, 0].reshape(shape), data[:, 1].reshape(shape), grid)
