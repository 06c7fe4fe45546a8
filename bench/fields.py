"""Seeded forcing fields and the facts about them that a result records.

A field is dense and smooth: on each side a few random (t, x1) Fourier
modes, each times its own x2 profile exp(-(y/w)^2).  With w <= 0.3 and
L_x2 = 2 the last slab is below 1e-19 of the peak, far inside the 1e-6
VFGRID tail rule, so every generated field is accepted by FieldGrid.  The
profile is nonzero at the boundary, as in the acceptance fixture; a profile
vanishing there makes r(gamma) fall like gamma^-2 at large gamma, outside
the shape that acceptance criterion 7 checks.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from vortexfront import FieldGrid, GridSpec

BOX = (1.0, 1.0, 2.0)          # L_t, L_x1, L_x2
MODES = 4                      # Fourier modes per side
MAX_WAVENUMBER = 3             # |k| per axis, well below Nyquist at 16 points
WIDTHS = (0.12, 0.3)           # x2 profile width range
MINUS_SCALE = 0.7


def make_field(seed, shape: tuple[int, int, int]) -> FieldGrid:
    """The field of one seed (an int or a sequence of ints) at one shape."""
    rng = np.random.default_rng(seed)
    n_t, n_x1, n_x2 = shape
    grid = GridSpec(n_t, n_x1, n_x2, *BOX)
    t, x1, y = grid.t_nodes, grid.x1_nodes, grid.x2_nodes
    sides = []
    for scale in (1.0, MINUS_SCALE):
        f = np.zeros(shape)
        for _ in range(MODES):
            kt, kx = rng.integers(-MAX_WAVENUMBER, MAX_WAVENUMBER + 1, 2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = scale * rng.uniform(0.5, 1.5)
            width = rng.uniform(*WIDTHS)
            plane = amp * np.cos(2.0 * np.pi * (kt * t[:, None] / grid.L_t
                                                + kx * x1[None, :] / grid.L_x1)
                                 + phase)
            f += plane[:, :, None] * np.exp(-(y / width) ** 2)[None, None, :]
        sides.append(f)
    return FieldGrid(sides[0], sides[1], grid)


def cache_sizes() -> dict[str, int | None]:
    """L2 and L3 data-cache sizes of cpu0 in bytes, read from sysfs."""
    out: dict[str, int | None] = {"L2": None, "L3": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction" or f"L{level}" not in out:
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1], 1)
        out[f"L{level}"] = int(size.rstrip("KMG")) * mult
    return out


def field_props(field: FieldGrid, working_set_bytes: int,
                vfgrid_bytes: int | None) -> dict:
    """Input properties recorded beside every result."""
    field_bytes = field.f_plus.nbytes + field.f_minus.nbytes
    nonzero = (np.count_nonzero(field.f_plus) + np.count_nonzero(field.f_minus))
    caches = cache_sizes()
    return {
        "shape": list(field.f_plus.shape),
        "field_mb": field_bytes / 1e6,
        "vfgrid_bytes": vfgrid_bytes,
        "nonzero_frac": nonzero / (field.f_plus.size + field.f_minus.size),
        "working_set_mb": working_set_bytes / 1e6,
        "working_set_over_L2": (working_set_bytes / caches["L2"]
                                if caches["L2"] else None),
        "working_set_over_L3": (working_set_bytes / caches["L3"]
                                if caches["L3"] else None),
    }
