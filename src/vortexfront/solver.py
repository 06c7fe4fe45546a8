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
from dataclasses import dataclass, field

import numpy as np

from .domain import (Frequency, Medium, StabilityClass, _refuse_nonfinite,
                     _require_finite, _split)
from .grids import FieldGrid, GridSpec, _refuse_gamma, _refuse_magnitude
from .quadrature import _DepthSum, halfline_integral
from .symbol import _require_regime, classify, mu_symbol_grid, symbol_grid
from .transforms import (_bin_slices, _depth_pass, _half_spectrum, sobolev_norm,
                         weighted_inverse)

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

    grid: GridSpec
    gamma: float
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    sigma: np.ndarray
    i_plus: np.ndarray
    i_minus: np.ndarray
    m: np.ndarray
    g_hat: np.ndarray
    trunc_plus: np.ndarray
    trunc_minus: np.ndarray


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
    return SpectralSystem(grid, g, mu_p, mu_m, sigma, i_p, i_m, m, g_hat,
                          trunc_p, trunc_m)


def _roots(grid: GridSpec, medium: Medium, g: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu+, mu-, Sigma) over the grid's (delta, eta) bins at gamma = g."""
    return mu_symbol_grid(g + 1j * grid.delta_axis[:, None],
                          grid.eta_axis[None, :], medium)


def _rule(grid: GridSpec, mu: np.ndarray) -> _DepthSum:
    """The depth rule of one side's roots over the half spectrum."""
    return _DepthSum(mu[:, :grid.n_x1 // 2 + 1], grid.dx2, grid.n_x2,
                     grid.n_t * (grid.n_x1 // 2 + 1))


@np.errstate(all="ignore")  # _system gates the result
def build_system(fieldgrid: FieldGrid, medium: Medium,
                 gamma: float) -> SpectralSystem:
    """Transform the forcing and assemble mu, Sigma, I+-, M and g per bin.

    The unpaired Nyquist bins are annihilated (see :func:`_paired_full`).
    """
    grid = fieldgrid.grid
    _refuse_gamma(gamma)
    # One x1 spectrum for both sides: side + is transformed, passed in place
    # and joined into I+ before side - is transformed into the same array.
    x1_hat = np.empty((grid.n_x2, grid.n_t, grid.n_x1 // 2 + 1), dtype=complex)
    roots, rule, sides = [], [], []

    def setup():  # item 0 of the split, beside the other threads' planes
        if not roots:
            roots.extend(_roots(grid, medium, gamma))
        rule.append(_rule(grid, roots[len(sides)]))

    for samples in (fieldgrid.f_plus, fieldgrid.f_minus):
        _half_spectrum(samples, grid, x1_hat, setup)
        # The rule is released with its pass: two held at once raise the peak.
        sides.append(_depth_pass(x1_hat, grid, gamma, rule.pop(), in_place=True)[0])
    return _system(grid, medium, gamma, roots,
                   *([_paired_full(a, grid) for a in side] for side in sides))


def _bin_index(axis: np.ndarray, value: float, name: str) -> int:
    spacing = abs(axis[1] - axis[0]) if axis.size > 1 else 1.0
    idx = int(np.argmin(np.abs(axis - value)))
    if abs(axis[idx] - value) > 1e-9 * max(abs(value), spacing):
        raise ValueError(f"{name} = {value:g} is not a grid frequency "
                         f"(nearest bin {axis[idx]:g})")
    if idx == axis.size // 2:
        raise ValueError(f"{name} = {axis[idx]:.12g} is an unpaired Nyquist "
                         "bin, which the solver zeroes")
    return idx


def _bin_system(fieldgrid: FieldGrid, freq: Frequency, medium: Medium
                ) -> tuple[SpectralSystem, list[np.ndarray]]:
    """The :func:`build_system` scalars and the two x2 slices of one bin,
    by a direct weighted DFT per side: O(n_t*n_x1*n_x2), no FFT."""
    _refuse_gamma(freq.gamma)
    grid = fieldgrid.grid
    it = _bin_index(grid.delta_axis, freq.delta, "delta")
    ix = _bin_index(grid.eta_axis, freq.eta, "eta")
    slices = _bin_slices(fieldgrid, freq.gamma, it, ix)
    with np.errstate(all="ignore"):
        roots = [a[0] for a in mu_symbol_grid(
            [freq.gamma + 1j * grid.delta_axis[it]], [grid.eta_axis[ix]], medium)]
        sides = [(halfline_integral(sl, mu, grid.dx2), np.abs(sl[-1]))
                 for mu, sl in zip(roots, slices)]
        return _system(grid, medium, freq.gamma, roots, *sides), slices


def forcing_functional(fieldgrid: FieldGrid, freq: Frequency,
                       medium: Medium) -> MValue:
    """The functional M at one grid frequency, with its truncation bound.

    freq.gamma >= 1 is required so both forcing integrals converge; freq's
    (delta, eta) must be a paired bin of the field's grid (not Nyquist).
    Only that bin is computed, in O(n_t*n_x1*n_x2) with no FFT.
    """
    sys, _ = _bin_system(fieldgrid, freq, medium)
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
    indices {0, s, s+1}; a forcing whose max|F| leaves grids._PEAK_RANGE,
    where they would overflow or underflow, is refused.
    """
    _require_regime(medium, StabilityClass.WEAKLY_STABLE, "solve_front")
    _refuse_magnitude(fieldgrid)
    grid = fieldgrid.grid
    g = grid.gamma if gamma is None else gamma
    _refuse_nonfinite(s=s)  # build_system refuses a non-finite gamma
    sys = build_system(fieldgrid, medium, g)
    with np.errstate(all="ignore"):
        f_hat = _front_hat(sys)
        f_phys = weighted_inverse(f_hat, grid, g)
    _require_finite("the front exp(gamma*t)*u", f_phys, gamma=g, L_t=grid.L_t,
                    v=medium.v, c=medium.c)
    norms = {idx: sobolev_norm(f_hat, idx, g, grid)
             for idx in {0.0, float(s), float(s) + 1.0}}
    return FrontSolution(grid, g, float(s), f_hat, f_phys, norms, sys)


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


@np.errstate(all="ignore")  # the constants are gated on return
def estimate_constants(medium: Medium,
                       extra_points: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                       ) -> EstimateConstants:
    """Sample the hemisphere (plus optional points) for the estimate constants.

    extra_points, given as (gamma, delta, eta) arrays, are projected onto
    the hemisphere and included in the extrema, so constants derived from a
    solve's own bins are honest lower/upper bounds for those bins.  The
    points are evaluated in fixed chunks: every step is elementwise and the
    extrema are exact, so the chunking changes no bit of the result.
    Constants that are not finite are refused, naming v and c, but c_cofactor
    is inf where no sample lies near a root ray (see ROADMAP).
    """
    report = classify(medium)
    psi = (np.arange(_N_POLAR) + 0.5) * (0.5 * np.pi / _N_POLAR)
    theta = (np.arange(_N_AZIMUTH) + 0.5) * (2.0 * np.pi / _N_AZIMUTH)
    g = (np.cos(psi)[:, None] * np.ones_like(theta)[None, :]).ravel()
    d = (np.sin(psi)[:, None] * np.cos(theta)[None, :]).ravel()
    e = (np.sin(psi)[:, None] * np.sin(theta)[None, :]).ravel()
    if extra_points is not None:
        ge, de, ee = (np.asarray(a, dtype=float).ravel() for a in extra_points)
        lam = np.sqrt(ge * ge + de * de + ee * ee)
        g = np.concatenate((g, ge / lam))
        d = np.concatenate((d, de / lam))
        e = np.concatenate((e, ee / lam))
    keep = g > 0.0
    g, d, e = g[keep], d[keep], e[keep]
    extrema = []  # per chunk: max |Sigma|, min (|Sigma|/g)^2, elliptic, cofactor
    for lo in range(0, g.size, _CONSTANTS_CHUNK):
        gc, dc, ec = (a[lo:lo + _CONSTANTS_CHUNK] for a in (g, d, e))
        tau = gc + 1j * dc
        sigma = symbol_grid(tau, ec, medium)
        abs_sigma = np.abs(sigma)
        far, cof, c, y2 = abs_sigma, np.empty(0), medium.c, report.y2
        if report.stability_class is StabilityClass.WEAKLY_STABLE:
            to_upper = np.abs(tau - 1j * c * y2 * ec)  # distances to the two rays
            to_lower = np.abs(tau + 1j * c * y2 * ec)
            near = np.minimum(to_upper, to_lower) < _RAY_RADIUS
            far = abs_sigma[~near]
            sign = np.where(to_upper <= to_lower, 1.0, -1.0)
            cof = np.abs(sigma[near] / (tau[near] - sign[near] * 1j * c * y2 * ec[near]))
        extrema.append((abs_sigma.max(), ((abs_sigma / gc) ** 2).min(),
                        far.min(initial=math.inf), cof.min(initial=math.inf), cof.size))
    high, pointwise, elliptic, cofactor, n_near = np.array(extrema).T
    out = EstimateConstants(float(elliptic.min()), float(cofactor.min()),
                            float(pointwise.min()) * (1.0 - 1e-9), float(high.max()))
    _require_finite("the estimate constants", out.c_elliptic, out.c_pointwise,
                    out.c_bound, out.c_cofactor if n_near.any() else 0.0,
                    v=medium.v, c=medium.c)
    return out


@dataclass(frozen=True)
class EstimateRow:
    """One gamma of the estimate sweep.

    r        = gamma^3 ||f||^2_{s+1} / (||F+||^2 + ||F-||^2)
    r_prime  = gamma^2 ||f||^2_{s+1} / ||g||^2_s
    g1_ratio = gamma   ||g1||^2_s    / ||F+||^2
    pointwise_min is the bin minimum of (|Sigma|/(gamma*Lambda))^2; pointwise_ok,
    that it reaches c_pointwise, holds by construction: that constant is
    taken over the hemisphere sample and every bin of the sweep.
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
    :func:`estimate_constants` on the calling thread: its roots, one
    :func:`_depth_pass` per side for the half-space norms and the forcing
    integrals, the system, f_hat and the ratios (no slice stack and no
    physical front is formed).  The rows do not depend on the core count,
    and a failing gamma raises what a serial sweep would raise first; a
    gamma at which exp(-gamma*t) leaves both forcing norms zero is refused,
    and so is a row or constant that is not finite.
    The pointwise constant is estimated over the hemisphere augmented with
    every bin of the sweep; the right-hand-side constant comes from the bin
    supremum of |mu_minus/(mu_plus+mu_minus)|^2 combined with the exact
    lower bound Re(mu_plus) >= gamma/(sqrt(2)c).
    """
    if not gammas:
        raise ValueError("need at least one gamma")
    for g in gammas:
        _refuse_gamma(g)
    _refuse_nonfinite(s=s)
    _require_regime(medium, StabilityClass.WEAKLY_STABLE, "verify_estimate")
    grid = fieldgrid.grid
    if fieldgrid.peak == 0.0:
        raise ValueError("estimate ratios are undefined for a zero field")
    _refuse_magnitude(fieldgrid)

    bins = np.meshgrid(np.asarray(gammas, dtype=float), grid.delta_axis,
                       grid.eta_axis, indexing="ij")
    spectra = [_half_spectrum(f, grid)
               for f in (fieldgrid.f_plus, fieldgrid.f_minus)]
    done = [None] * (len(gammas) + 1)

    @np.errstate(all="ignore")  # each row is gated
    def item(i):
        if i == 0:  # the calling thread's: bench/ traces it on one span stack
            done[0] = estimate_constants(medium, extra_points=tuple(
                b.ravel() for b in bins))
            return
        g = gammas[i - 1]
        roots = _roots(grid, medium, g)
        sides, (nfp, nfm) = zip(*(_depth_pass(spectrum, grid, g, _rule(grid, mu), s)
                                  for spectrum, mu in zip(spectra, roots)))
        sys = _system(grid, medium, g, roots,
                      *([_paired_full(a, grid) for a in side] for side in sides))
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
        pw = (np.abs(sys.sigma) / (g * np.sqrt(grid.lambda_sq(g)))) ** 2
        sup = (np.abs(ratio) ** 2).max()
        _require_finite("the estimate ratios", r, r_prime, g1_ratio, pw, sup,
                        gamma=g, s=s, v=medium.v, c=medium.c)
        done[i] = (dict(gamma=float(g), r=float(r), r_prime=float(r_prime),
                        g1_ratio=float(g1_ratio), pointwise_min=float(pw.min()),
                        norm_f=float(math.sqrt(nf2)), norm_g=float(ng)),
                   nfp, nfm, float(sup))

    _split(lambda lo, hi: [item(i) for i in range(lo, hi)], len(done),
           len(gammas) * 2 * spectra[0].size)
    constants, *per_gamma = done
    rows = [EstimateRow(**row, pointwise_ok=bool(
        row["pointwise_min"] >= constants.c_pointwise)) for row, *_ in per_gamma]
    ratio_sup_sq = max((0.0, *(sup for *_, sup in per_gamma)))
    rhs_constant = ratio_sup_sq * math.sqrt(2.0) * medium.c / 2.0
    return EstimateReport(rows, constants, ratio_sup_sq, rhs_constant, *(
        {float(g): out[side] for g, out in zip(gammas, per_gamma)} for side in (1, 2)))


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
