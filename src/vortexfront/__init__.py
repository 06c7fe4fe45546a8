"""Numerical analysis of the compressible vortex-sheet front equation.

Evaluation of the order-2 front symbol and its decay roots, stability
classification, a weighted spectral solver for the forced front equation,
reconstruction of the half-space pressure transforms, and numerical
verification of the a priori energy estimate.
"""

from .domain import (Frequency, MachClass, Medium, RegimeError, RegimeReport,
                     RootPair, StabilityClass)
from .grids import FieldGrid, GridSpec, read_field, write_field
from .pressure import (BoundaryState, PressureProfile, front_equation_residual,
                       ode_residual, reconstruct_profile, solve_boundary_system)
from .quadrature import halfline_integral
from .solver import (EstimateConstants, EstimateReport, EstimateRow,
                     FrontSolution, MValue, ProbeResult, blowup_probe,
                     build_system, estimate_constants, forcing_functional,
                     solve_front, verify_estimate)
from .symbol import (BoundarySigns, boundary_root_signs, classify, decay_root,
                     decay_root_pair, ratio_sq, root_cofactor, signed_sqrt,
                     symbol, symbol_factored, symbol_grid, symbol_roots)
from .transforms import (halfspace_norm, sobolev_norm, spectral_slices,
                         weighted_forward, weighted_inverse)

__version__ = "0.1.0"

__all__ = [
    "Frequency", "MachClass", "Medium", "RegimeError",
    "RegimeReport", "RootPair", "StabilityClass",
    "FieldGrid", "GridSpec", "read_field", "write_field",
    "BoundaryState", "PressureProfile", "front_equation_residual",
    "ode_residual", "reconstruct_profile", "solve_boundary_system",
    "EstimateConstants", "EstimateReport", "EstimateRow", "FrontSolution",
    "MValue", "ProbeResult", "blowup_probe", "build_system",
    "estimate_constants", "forcing_functional", "halfline_integral",
    "solve_front", "verify_estimate",
    "BoundarySigns", "boundary_root_signs", "classify", "decay_root",
    "decay_root_pair", "ratio_sq", "root_cofactor", "signed_sqrt", "symbol",
    "symbol_factored", "symbol_grid", "symbol_roots",
    "halfspace_norm", "sobolev_norm", "spectral_slices", "weighted_forward",
    "weighted_inverse",
    "__version__",
]
