"""Spectral solution of the front equation and the energy-estimate checks.

At every (delta, eta) bin with tau = gamma + i*delta, gamma >= 1, the front
transform solves

    Sigma * f_hat + (mu_plus*mu_minus/(mu_plus + mu_minus)) * M = 0,

where M collects the exponentially weighted half-space forcing integrals.
Division by Sigma is safe in the weakly stable regime because its zeros sit
on Re(tau) = 0 only.  Per-bin work is independent (no shared state).  The
forcing is real: the transforms and the depth quadrature run on the half
spectrum, filled out to the full grid by Hermitian symmetry.  A solve
splits the x1 rfft and the weighted t-FFT into contiguous chunks on the
usable cores, and a gamma sweep splits over its gammas; every entry is
computed the same way in any split, so the results do not depend on the
core count.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .domain import (Frequency, Medium, StabilityClass, _refuse_nonfinite,
                     _require_finite, _split)
from .grids import FieldGrid, GridSpec, _refuse_gamma, _refuse_magnitude
from .quadrature import halfline_integral
from .symbol import _require_regime, classify, mu_symbol_grid, symbol_grid
from .transforms import (_bin_slices, _depth_pass, _depth_rule, _half_spectrum,
                         _paired_full, sobolev_norm, weighted_inverse)

__all__ = [
    "MValue", "SpectralSystem", "FrontSolution", "EstimateConstants",
    "EstimateRow", "EstimateReport", "ProbeResult", "forcing_functional",
    "build_system", "solve_front", "estimate_constants", "verify_estimate",
    "blowup_probe",
]


@dataclass(frozen=True)
class MValue:
    """A forcing-functional value with its truncation-error bound."""

    value: complex
    truncation_bound: float


@dataclass
class SpectralSystem:
    """All per-bin quantities of one weighted solve (scalars for one bin)."""

    mu_plus: np.ndarray
    mu_minus: np.ndarray
    sigma: np.ndarray
    i_plus: np.ndarray
    i_minus: np.ndarray
    m: np.ndarray
    g_hat: np.ndarray
    trunc_plus: np.ndarray
    trunc_minus: np.ndarray


def _system(grid: GridSpec, medium: Medium, g: float, roots, plus, minus
            ) -> SpectralSystem:
    """M, g and the truncation bounds from the roots (mu+, mu-, Sigma) and,
    per side, (I, |last level|), on the whole grid or at one bin."""
    (mu_p, mu_m, sigma), (i_p, last_p), (i_m, last_m) = roots, plus, minus
    m = i_p / mu_p - i_m / mu_m
    g_hat = -(mu_p * mu_m / (mu_p + mu_m)) * m
    _require_finite("the decay roots, symbol and forcing integrals", mu_p, mu_m,
                    sigma, g_hat, gamma=g, v=medium.v, c=medium.c)
    trunc_p = np.exp(-mu_p.real * grid.L_x2) * last_p
    trunc_m = np.exp(-mu_m.real * grid.L_x2) * last_m
    return SpectralSystem(mu_p, mu_m, sigma, i_p, i_m, m, g_hat, trunc_p, trunc_m)


@np.errstate(all="ignore")  # _system gates the result
def _gamma_system(grid: GridSpec, medium: Medium, g: float, spectra,
                  s: float | None = None, in_place: bool = False):
    """(system, (norm+, norm-)) at gamma = g, the norms None unless s is given:
    the roots over the grid, then a :func:`_depth_pass` per side of spectra
    (+ then -, taken in turn) by its depth rule, which dies with its pass."""
    roots = mu_symbol_grid(g + 1j * grid.delta_axis[:, None],
                           grid.eta_axis[None, :], medium)
    sides, norms = zip(*(_depth_pass(x1_hat, grid, g, _depth_rule(grid, mu), s,
                                     in_place) for x1_hat, mu in zip(spectra, roots)))
    return _system(grid, medium, g, roots,
                   *([_paired_full(a, grid) for a in side] for side in sides)), norms


def build_system(fieldgrid: FieldGrid, medium: Medium,
                 gamma: float) -> SpectralSystem:
    """Transform the forcing and assemble mu, Sigma, I+-, M and g per bin.

    The unpaired Nyquist bins are annihilated (see :func:`_paired_full`).
    """
    grid = fieldgrid.grid
    _refuse_gamma(gamma)
    # One x1 spectrum: side + is passed in place and joined into I+ before
    # side - is transformed into the array side +'s transform returned.
    x1_hat = None
    spectra = (x1_hat := _half_spectrum(f, grid, x1_hat)
               for f in (fieldgrid.f_plus, fieldgrid.f_minus))
    return _gamma_system(grid, medium, gamma, spectra, in_place=True)[0]


def _bin_system(fieldgrid: FieldGrid, freq: Frequency, medium: Medium
                ) -> tuple[SpectralSystem, list[np.ndarray], Frequency]:
    """The :func:`build_system` scalars, the two x2 slices and the frequency of
    the bin nearest freq, by a direct weighted DFT per side: no FFT."""
    _refuse_gamma(freq.gamma)
    grid = fieldgrid.grid
    (delta, eta), slices = _bin_slices(fieldgrid, freq.gamma, freq.delta, freq.eta)
    with np.errstate(all="ignore"):
        roots = [a[0] for a in mu_symbol_grid([freq.gamma + 1j * delta], [eta], medium)]
        sides = [(halfline_integral(sl, mu, grid.dx2), np.abs(sl[-1]))
                 for mu, sl in zip(roots, slices)]
        return (_system(grid, medium, freq.gamma, roots, *sides), slices,
                Frequency(freq.gamma, delta, eta))


def forcing_functional(fieldgrid: FieldGrid, freq: Frequency,
                       medium: Medium) -> MValue:
    """The functional M at one grid frequency, with its truncation bound.

    freq.gamma >= 1 is required so both forcing integrals converge; freq's
    (delta, eta) must be a paired bin of the field's grid (not Nyquist).
    Only that bin is computed, in O(n_t*n_x1*n_x2) with no FFT.
    """
    grid = fieldgrid.grid
    sys, _, at = _bin_system(fieldgrid, freq, medium)
    for name, value, got, step in (("delta", freq.delta, at.delta, grid.delta_axis[1]),
                                   ("eta", freq.eta, at.eta, grid.eta_axis[1])):
        if abs(got - value) > 1e-9 * max(abs(value), step):
            raise ValueError(f"{name} = {value:g} is not a grid frequency "
                             f"(nearest bin {got:g})")
    assert sys.mu_plus.real > 0 and sys.mu_minus.real > 0
    return MValue(complex(sys.m), float(sys.trunc_plus + sys.trunc_minus))


@dataclass
class FrontSolution:
    """Transformed and physical front samples together with their norms."""

    grid: GridSpec
    gamma: float
    s: float
    f_hat: np.ndarray
    f_phys: np.ndarray
    norms: dict[float, float]
    system: SpectralSystem = field(repr=False)


def _front_hat(sys: SpectralSystem) -> np.ndarray:
    if not np.all(np.abs(sys.sigma) > 0.0):
        raise ArithmeticError("symbol vanished on a grid bin; this cannot "
                              "happen for gamma >= 1 in the weakly stable regime")
    return sys.g_hat / sys.sigma


def solve_front(fieldgrid: FieldGrid, medium: Medium,
                gamma: float | None = None, s: float = 0.0) -> FrontSolution:
    """Solve the front equation for a forcing field by symbol division.

    Only the weakly stable regime is accepted; elliptic and transition media
    are refused with a diagnostic naming the regime.  f_hat holds the exact
    per-bin quotient (so each bin satisfies its equation to rounding); the
    physical samples, its :func:`weighted_inverse`, are refused when not
    finite (gamma*L_t beyond about 709).  Norms are returned at
    indices {0, s, s+1}, formed before the physical samples, so an s that is
    not finite is refused first; a forcing whose max|F| leaves
    grids._PEAK_RANGE, where they would overflow or underflow, is refused.
    """
    _require_regime(medium, StabilityClass.WEAKLY_STABLE, "solve_front")
    _refuse_magnitude(fieldgrid)
    grid = fieldgrid.grid
    g = grid.gamma if gamma is None else gamma
    sys = build_system(fieldgrid, medium, g)
    f_hat = _front_hat(sys)
    norms = {idx: sobolev_norm(f_hat, idx, g, grid)
             for idx in {0.0, float(s), float(s) + 1.0}}
    return FrontSolution(grid, g, float(s), f_hat, weighted_inverse(f_hat, grid, g),
                         norms, sys)


# ---------------------------------------------------------------------------
# Estimate verification.

@dataclass(frozen=True)
class EstimateConstants:
    """Empirical symbol constants over the unit hemisphere sample.

    c_elliptic: min |Sigma|/Lambda^2 away from the root rays.
    c_cofactor: min |H|/Lambda near the root rays.
    c_pointwise: lower bound for (|Sigma|/(gamma*Lambda))^2, the constant of
    the pointwise inequality C*gamma^2*Lambda^2*|f_hat|^2 <= |g_hat|^2.
    c_bound: max |Sigma|/Lambda^2 (the degree-2 growth constant).
    """

    c_elliptic: float
    c_cofactor: float
    c_pointwise: float
    c_bound: float


# The hemisphere sample of estimate_constants: polar and azimuthal counts,
# the distance from a root ray within which the cofactor bound applies, and
# the points per symbol evaluation (a few hundred kB of temporaries each).
_N_POLAR, _N_AZIMUTH, _RAY_RADIUS, _CONSTANTS_CHUNK = 120, 240, 0.3, 4096


def _extrema(tau, eta, sigma, lam, medium: Medium, report) -> tuple:
    """Sigma at the points (tau, eta) of norm lam, scaled to the unit
    hemisphere: max |Sigma|/lam^2, min (|Sigma|/(gamma*lam))^2, min
    |Sigma|/lam^2 away from the root rays, min |cofactor|/lam near them, the
    count near them, and max (|Sigma|/(gamma*lam))^2 (a sweep row's gate)."""
    abs_sigma = np.abs(sigma)
    unit = abs_sigma / (lam * lam)
    pointwise = (abs_sigma / (tau.real * lam)) ** 2
    far, cof = unit, np.empty(0)
    if report.stability_class is StabilityClass.WEAKLY_STABLE:
        ray = 1j * medium.c * report.y2 * eta
        to_upper, to_lower = np.abs(tau - ray), np.abs(tau + ray)  # to the two rays
        near = np.minimum(to_upper, to_lower) / lam < _RAY_RADIUS
        far = unit[~near]
        cof = (np.abs(sigma / np.where(to_upper <= to_lower, tau - ray, tau + ray))
               / lam)[near]
    return (unit.max(), pointwise.min(), far.min(initial=math.inf),
            cof.min(initial=math.inf), cof.size, pointwise.max())


def _constants(extrema, medium: Medium, start=EstimateConstants(
        math.inf, math.inf, math.inf, 0.0)) -> EstimateConstants:
    """start merged with :func:`_extrema` rows by exact min/max, scaling
    their pointwise minimum by 1 - 1e-9 (start's already is); refused unless
    finite, but c_cofactor is inf where no point lies near a root ray."""
    high, pointwise, elliptic, cofactor, n_near, _ = np.array(extrema).T
    lows = np.minimum(astuple(start)[:3], (elliptic.min(), cofactor.min(),
                                          pointwise.min() * (1.0 - 1e-9)))
    out = EstimateConstants(*lows.tolist(), float(np.maximum(start.c_bound, high.max())))
    _require_finite("the estimate constants", out.c_elliptic, out.c_pointwise,
                    out.c_bound, out.c_cofactor if n_near.any() else 0.0,
                    v=medium.v, c=medium.c)
    return out


@np.errstate(all="ignore")  # the constants are gated on return
def estimate_constants(medium: Medium) -> EstimateConstants:
    """The estimate constants over a 120 x 240 polar/azimuthal sample of the
    unit hemisphere, taken in fixed chunks: every step is elementwise and
    the extrema are exact, so the chunking changes no bit of the result.
    Constants that are not finite are refused, naming v and c, but
    c_cofactor is inf where no sample lies near a root ray (see ROADMAP)."""
    report = classify(medium)
    psi = (np.arange(_N_POLAR) + 0.5) * (0.5 * np.pi / _N_POLAR)
    theta = (np.arange(_N_AZIMUTH) + 0.5) * (2.0 * np.pi / _N_AZIMUTH)
    tau = (np.cos(psi)[:, None] + 1j * (np.sin(psi)[:, None] * np.cos(theta))).ravel()
    eta = (np.sin(psi)[:, None] * np.sin(theta)).ravel()
    chunks = ((tau[lo:lo + _CONSTANTS_CHUNK], eta[lo:lo + _CONSTANTS_CHUNK])
              for lo in range(0, tau.size, _CONSTANTS_CHUNK))
    return _constants([_extrema(t, e, symbol_grid(t, e, medium), 1.0, medium, report)
                       for t, e in chunks], medium)


@dataclass(frozen=True)
class EstimateRow:
    """One gamma of the estimate sweep.

    r        = gamma^3 ||f||^2_{s+1} / (||F+||^2 + ||F-||^2)
    r_prime  = gamma^2 ||f||^2_{s+1} / ||g||^2_s
    g1_ratio = gamma   ||g1||^2_s    / ||F+||^2
    pointwise_min is the bin minimum of (|Sigma|/(gamma*Lambda))^2; pointwise_ok,
    that it reaches c_pointwise, holds by construction: the constants are
    merged from every row's extrema (see :func:`_constants`).
    """

    gamma: float
    r: float
    r_prime: float
    g1_ratio: float
    pointwise_min: float
    pointwise_ok: bool
    norm_f: float
    norm_g: float


@dataclass
class EstimateReport:
    rows: list[EstimateRow]
    constants: EstimateConstants
    ratio_sup_sq: float  # max over bins of |mu_minus/(mu_plus+mu_minus)|^2
    rhs_constant: float  # ratio_sup_sq * sqrt(2)*c/2, bounds g1_ratio
    norm_f_plus: dict[float, float]
    norm_f_minus: dict[float, float]


def verify_estimate(fieldgrid: FieldGrid, medium: Medium,
                    gammas: list[float], s: float) -> EstimateReport:
    """Sweep gamma and tabulate the a priori estimate ratios.

    The x1 half spectrum of each side is taken once.  Each gamma is then one
    item of a :func:`_split` over the cores, item 0 being
    :func:`estimate_constants` on the calling thread: the
    :func:`_gamma_system` of the shared spectra with the half-space norms,
    f_hat, the ratios and the :func:`_extrema` of its Sigma (no slice stack
    and no physical front is formed).  The rows do not depend on the core
    count, and a failing gamma raises what a serial sweep would raise first;
    a gamma at which exp(-gamma*t) leaves both forcing norms zero is
    refused, and so is a row or constant that is not finite.  The constants
    merge the hemisphere's with those extrema, so they bound every bin; the
    right-hand-side constant comes from the bin supremum of |mu_minus/
    (mu_plus + mu_minus)|^2 and the exact bound Re(mu_plus) >= gamma/(sqrt(2)c).
    """
    if not gammas:
        raise ValueError("need at least one gamma")
    for g in gammas:
        _refuse_gamma(g)
    report = _require_regime(medium, StabilityClass.WEAKLY_STABLE, "verify_estimate")
    grid = fieldgrid.grid
    if fieldgrid.peak == 0.0:
        raise ValueError("estimate ratios are undefined for a zero field")
    _refuse_magnitude(fieldgrid)

    spectra = [_half_spectrum(f, grid)
               for f in (fieldgrid.f_plus, fieldgrid.f_minus)]
    done = [None] * (len(gammas) + 1)

    @np.errstate(all="ignore")  # each row is gated
    def item(i):
        if i == 0:  # the calling thread's: bench/ traces it on one span stack
            done[0] = estimate_constants(medium)
            return
        g = gammas[i - 1]
        sys, (nfp, nfm) = _gamma_system(grid, medium, g, spectra, s)
        nf2 = sobolev_norm(_front_hat(sys), float(s) + 1.0, g, grid) ** 2
        ng = sobolev_norm(sys.g_hat, s, g, grid)
        denom = nfp ** 2 + nfm ** 2
        if denom == 0.0:
            raise ValueError(f"gamma = {g:g} underflows the weight exp(-gamma*t) "
                             "on the forcing: both half-space norms are zero")
        r = np.float64(g) ** 3 * nf2 / denom
        r_prime = g ** 2 * nf2 / ng ** 2 if ng > 0 else 0.0
        ratio = sys.mu_minus / (sys.mu_plus + sys.mu_minus)
        g1_hat = -ratio * sys.i_plus
        ng1 = sobolev_norm(g1_hat, s, g, grid)
        g1_ratio = g * ng1 ** 2 / nfp ** 2 if nfp > 0 else 0.0
        extrema = _extrema(g + 1j * grid.delta_axis[:, None], grid.eta_axis[None, :],
                           sys.sigma, np.sqrt(grid.lambda_sq(g)), medium, report)
        sup = (np.abs(ratio) ** 2).max()
        _require_finite("the estimate ratios", r, r_prime, g1_ratio, extrema[-1],
                        sup, gamma=g, s=s, v=medium.v, c=medium.c)
        done[i] = (dict(gamma=float(g), r=float(r), r_prime=float(r_prime),
                        g1_ratio=float(g1_ratio), pointwise_min=float(extrema[1]),
                        norm_f=float(math.sqrt(nf2)), norm_g=float(ng)),
                   nfp, nfm, float(sup), extrema)

    _split(lambda lo, hi: [item(i) for i in range(lo, hi)], len(done),
           len(gammas) * 2 * spectra[0].size)
    hemisphere, *per_gamma = done
    rows, nfp, nfm, sups, extrema = zip(*per_gamma)
    constants = _constants(extrema, medium, hemisphere)
    rows = [EstimateRow(**row, pointwise_ok=bool(
        row["pointwise_min"] >= constants.c_pointwise)) for row in rows]
    ratio_sup_sq = max((0.0, *sups))
    rhs_constant = ratio_sup_sq * math.sqrt(2.0) * medium.c / 2.0
    return EstimateReport(rows, constants, ratio_sup_sq, rhs_constant, *(
        dict(zip(map(float, gammas), norms)) for norms in (nfp, nfm)))


# ---------------------------------------------------------------------------
# Ill-posedness probe.

@dataclass
class ProbeResult:
    """|1/Sigma| along the real tau axis approaching the unstable root."""

    eta: float
    root_gamma: float
    gammas: list[float]
    inv_abs_sigma: list[float]
    fitted_exponent: float


def blowup_probe(medium: Medium, eta0: float, gammas: list[float]) -> ProbeResult:
    """Probe the simple real-axis symbol zero of an elliptic-regime medium.

    Evaluates |1/Sigma(gamma + 0i, eta0)| for each gamma and fits the
    power-law exponent of the growth in gamma - c*Y1*|eta0| (expected -1,
    the zero being simple).  Refused in the weakly stable regime, where eta0
    or a gamma is not finite, where Sigma or |1/Sigma| is not (a root), and
    where fewer than two gammas lie above the root, which leaves no fit.
    """
    report = _require_regime(medium, StabilityClass.ELLIPTIC_UNSTABLE, "blowup_probe")
    _refuse_nonfinite(eta0=eta0)
    if eta0 == 0.0:
        raise ValueError("eta0 must be nonzero")
    if not gammas:
        raise ValueError("need at least one gamma")
    for g in gammas:
        _refuse_nonfinite(gamma=g)
    root_gamma = medium.c * report.y1 * abs(eta0)
    tau = np.asarray([complex(g, 0.0) for g in gammas])
    eta = np.full(len(gammas), float(eta0))
    with np.errstate(all="ignore"):  # gated below
        sigma = symbol_grid(tau, eta, medium)
        inv = 1.0 / np.abs(sigma)
    for g, a, b in zip(gammas, sigma, inv):
        _require_finite("Sigma or |1/Sigma|", a, b, gamma=g, eta0=eta0, v=medium.v,
                        c=medium.c)
    dist = np.asarray(gammas, dtype=float) - root_gamma
    fit = dist > 0.0
    if fit.sum() < 2:
        raise ValueError(f"the fit needs two gammas above the root gamma = "
                         f"c*Y1*|eta0| = {root_gamma!r}; {fit.sum()} of "
                         f"{len(gammas)} lie above it")
    slope = float(np.polyfit(np.log(dist[fit]), np.log(inv[fit]), 1)[0])
    return ProbeResult(float(eta0), float(root_gamma), [float(g) for g in gammas],
                       [float(v) for v in inv], slope)
