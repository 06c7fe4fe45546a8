"""Exact evaluation of the decay roots, the front symbol and its roots.

The transformed half-space pressures decay like exp(-mu*x2) where mu solves

    mu^2 = ((tau + i*v1*eta)/c)^2 + eta^2,

with v1 = +v above the front and -v below it.  One array kernel picks the
branch per entry from Re(tau), and the scalar functions wrap it.  The front
evolution symbol is

    Sigma = tau^2 + v^2*eta^2 * (8*(tau/c/(mu_plus + mu_minus))^2 - 1),

a homogeneous function of degree 2 whose zero set decides stability: for
v/c below sqrt(2) it vanishes on a real-tau ray (violent instability), for
v/c above sqrt(2) only on the imaginary axis at tau = +-i*c*Y2*eta (weak
stability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (ENDPOINT_ATOL, REGIME_RTOL, SQRT2, Frequency,
                     MachClass, Medium, RegimeError, RegimeReport, RootPair,
                     StabilityClass, _refuse_nonfinite, _require_finite)

__all__ = [
    "signed_sqrt", "decay_root", "decay_root_pair", "ratio_sq", "symbol",
    "symbol_factored", "classify", "symbol_roots", "root_cofactor",
    "boundary_root_signs", "BoundarySigns", "mu_grid", "mu_symbol_grid",
    "symbol_grid",
]

# Relative distance from a root ray within which root_cofactor is defined.
_COFACTOR_RADIUS = 0.5


def _csqrt(a, b) -> np.ndarray:
    """sqrt(a + i*|b|), Re >= 0, as one complex np.sqrt (C99 csqrt, Kahan's
    branch-safe algorithm): both components to full relative accuracy."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a
    np.abs(b, out=out.imag)
    return np.sqrt(out, out=out)


def signed_sqrt(a, b):
    """Square root of a + i*b with nonnegative imaginary part, elementwise.

    Returns sgn(b)*sqrt((r+a)/2) + i*sqrt((r-a)/2) with r = |a+ib| and the
    convention sgn(0) = 1, also for b = -0.0, which fixes the branch on the
    negative real axis: :func:`_csqrt` signed by b.  Scalars give a complex.
    """
    out = _csqrt(a, b)
    np.negative(out.real, out=out.real, where=b < 0.0)
    return complex(out) if out.ndim == 0 else out


def mu_grid(tau, eta, v1, c: float) -> np.ndarray:
    """Decay roots over broadcast arrays of tau (Re >= 0), eta and v1.

    Each entry takes the branch of :func:`decay_root` from its own Re(tau)
    (Re(tau) < 0 is refused), through one :func:`_csqrt` call.
    """
    if c <= 0:
        raise ValueError("sound speed c must be positive")
    tau = np.asarray(tau, dtype=complex)
    eta = np.asarray(eta, dtype=float)
    x = tau.real / c
    if (x < 0.0).any():
        raise ValueError("decay roots require Re(tau) >= 0")
    y = (tau.imag + v1 * eta) / c
    # eta^2 - y^2 factored for accuracy near the loci.
    a = x * x + (eta - y) * (eta + y)
    mu = _csqrt(a, 2.0 * x * y)
    # mu now holds Re(mu) and |Im(mu)|; b = 2*x*y has the sign of y inside
    # and vanishes on the boundary, so y supplies the sign of Im(mu).
    np.copysign(mu.imag, y, out=mu.imag)
    boundary = x == 0.0
    if boundary.any():  # snap to the loci where the root vanishes
        mu[boundary & (np.abs(np.abs(y) - np.abs(eta))
                       <= ENDPOINT_ATOL * np.abs(eta))] = 0.0
    return mu


@np.errstate(all="ignore")  # the scalar functions gate their results
def decay_root(freq: Frequency, v1: float, c: float) -> complex:
    """The root mu of mu^2 = ((tau + i*v1*eta)/c)^2 + eta^2 selecting decay.

    For gamma > 0 this is the unique root with strictly positive real part;
    for gamma = 0 it is the continuous extension: the real branch inside the
    propagation cone, the imaginary branch signed by delta + v1*eta outside
    it (i*delta/c when eta = 0), and zero within ENDPOINT_ATOL*|eta| of the
    loci delta = -(v1 +- c)*eta.  A root that is not finite is refused.
    """
    mu = mu_grid(freq.tau, freq.eta, v1, c)
    _require_finite("the decay root", mu, gamma=freq.gamma, delta=freq.delta,
                    eta=freq.eta, v1=v1, c=c)
    return complex(mu)


@np.errstate(all="ignore")
def decay_root_pair(freq: Frequency, medium: Medium) -> RootPair:
    """Both decay roots of a medium, from one kernel call; refused if not
    finite."""
    mu = mu_grid(freq.tau, freq.eta, np.array([medium.v, -medium.v]), medium.c)
    _require_finite("the decay roots", mu, **_named(freq, medium))
    return RootPair(*mu.tolist())


def _named(freq: Frequency, medium: Medium) -> dict[str, float]:
    """The inputs a refusal of a scalar function names."""
    return dict(gamma=freq.gamma, delta=freq.delta, eta=freq.eta, v=medium.v,
                c=medium.c)


def mu_symbol_grid(tau: np.ndarray, eta: np.ndarray, medium: Medium
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu_plus, mu_minus, Sigma) over frequency arrays, from one root call.

    Branch per entry from Re(tau).  Sigma is the difference form of
    :func:`ratio_sq`, tau^2 - (c^2/2)*(mu_plus - mu_minus)^2 - v^2*eta^2,
    uniformly accurate relative to |tau|^2 + eta^2.
    """
    tau = np.asarray(tau, dtype=complex)
    eta = np.asarray(eta, dtype=float)
    # Sides on a leading axis: each half is contiguous, like a separate array.
    v1 = np.array([medium.v, -medium.v]).reshape(
        (2,) + (1,) * max(tau.ndim, eta.ndim))
    mu_p, mu_m = mu_grid(tau, eta, v1, medium.c)
    return mu_p, mu_m, _sigma(tau, eta, mu_p, mu_m, medium)


def _sigma(tau, eta, mu_p, mu_m, medium: Medium):
    """Sigma from its decay roots: the difference form of :func:`mu_symbol_grid`."""
    diff = medium.c * (mu_p - mu_m)
    return tau * tau - 0.5 * diff * diff - (medium.v * eta) ** 2


def symbol_grid(tau: np.ndarray, eta: np.ndarray, medium: Medium,
                boundary: bool = False) -> np.ndarray:
    """Sigma over frequency arrays, as in :func:`mu_symbol_grid`.

    boundary=True only checks that Re(tau) = 0 everywhere.
    """
    if boundary and (np.asarray(tau).real != 0.0).any():
        raise ValueError("boundary=True requires Re(tau) = 0 everywhere")
    return mu_symbol_grid(tau, eta, medium)[2]


@np.errstate(all="ignore")
def symbol(freq: Frequency, medium: Medium) -> complex:
    """The order-2 front symbol Sigma(tau, eta).

    Well defined on the whole frequency set, including the boundary points
    where the root sum vanishes; one root-kernel call.  Units 1/time^2.
    A Sigma that is not finite is refused.
    """
    # One-entry arrays: numpy rounds a product of complex scalars
    # differently from its array loop, and symbol_grid must agree.
    sigma = symbol_grid([freq.tau], [freq.eta], medium)
    _require_finite("the symbol", sigma, **_named(freq, medium))
    return complex(sigma[0])


@np.errstate(all="ignore")
def ratio_sq(freq: Frequency, medium: Medium) -> complex:
    """The squared ratio ((tau/c) / (mu_plus + mu_minus))^2.

    Evaluated through the equivalent difference form
    -c^2*(mu_plus - mu_minus)^2 / (16*v^2*eta^2), which is exact wherever
    the direct quotient is defined and extends it continuously across the
    points tau = 0 where the root sum vanishes (value
    ((v/c)^2 - 1)/(4*(v/c)^2) there).  For eta = 0 both roots coincide
    and the ratio is exactly 1/4.  A ratio that is not finite in double
    precision is refused.
    """
    if freq.eta == 0.0:
        return complex(0.25, 0.0)
    pair = decay_root_pair(freq, medium)
    diff = medium.c * (pair.mu_plus - pair.mu_minus)
    # numpy's power is C pow, as Python's, but overflows to inf.
    scale = 16.0 * np.float64(medium.v * freq.eta) ** 2
    ratio = -(diff * diff) / scale if scale else math.inf
    _require_finite("the squared ratio", ratio, **_named(freq, medium))
    return complex(ratio)


@np.errstate(all="ignore")
def symbol_factored(freq: Frequency, medium: Medium) -> complex:
    """The product form c^2*(mu_plus*mu_minus - eta^2) of the symbol;
    refused if not finite."""
    pair = decay_root_pair(freq, medium)
    sigma = np.float64(medium.c) ** 2 * (pair.mu_plus * pair.mu_minus
                                         - freq.eta * freq.eta)
    _require_finite("the factored symbol", sigma, **_named(freq, medium))
    return complex(sigma)


def classify(medium: Medium) -> RegimeReport:
    """Mach and stability classification of a medium.

    Within relative tolerance 1e-12 of v = c the medium is reported sonic,
    and within the same tolerance of v/c = sqrt(2) as the degenerate
    transition case (both Y1 and Y2 absent).  A v/c whose 4*(v/c)^2 + 1
    is not finite is refused (ArithmeticError).
    """
    v, c = medium.v, medium.c
    m = v / c
    if abs(v - c) <= REGIME_RTOL * max(v, c):
        mach = MachClass.SONIC
    elif v < c:
        mach = MachClass.SUBSONIC
    else:
        mach = MachClass.SUPERSONIC
    # Y0, Y1 and Y2 of the biquadratic dispersion relation.  The clamps take
    # rounding that straddles the threshold to 0.0 (never -0.0).
    disc = math.sqrt(4.0 * m * m + 1.0)
    _require_finite("4*(v/c)^2 + 1 in the dispersion relation", disc, v=v, c=c)
    y0 = math.sqrt(m * m + 1.0 + disc)
    rest = disc - (m * m + 1.0)
    y1 = y2 = None
    if abs(m - SQRT2) <= REGIME_RTOL * SQRT2:
        stability = StabilityClass.TRANSITION
    elif m < SQRT2:
        stability, y1 = StabilityClass.ELLIPTIC_UNSTABLE, math.sqrt(max(0.0, rest))
    else:
        stability, y2 = StabilityClass.WEAKLY_STABLE, math.sqrt(max(0.0, -rest))
    return RegimeReport(mach, stability, m, y0, y1, y2)


def _require_regime(medium: Medium, wanted: StabilityClass, what: str
                    ) -> RegimeReport:
    """The medium's :func:`classify` report; RegimeError naming its regime
    and the refusing call what, unless that regime is wanted."""
    report = classify(medium)
    regime = report.stability_class.value
    if report.stability_class is not wanted:
        side = ">" if wanted is StabilityClass.WEAKLY_STABLE else "<"
        raise RegimeError(regime, f"{what} requires the {wanted.value} regime "
                          f"(v/c {side} sqrt(2)); medium is {regime} "
                          f"(v/c = {report.mach_ratio:g})")
    return report


def symbol_roots(medium: Medium, eta: float) -> list[complex]:
    """All tau with Sigma(tau, eta) = 0 for a fixed eta != 0.

    Below the stability threshold the single root c*Y1*|eta| on the positive
    real axis; above it the conjugate pair +-i*c*Y2*eta.  The degenerate
    transition case is refused, and so is an eta that is not finite.
    """
    _refuse_nonfinite(eta=eta)
    if eta == 0.0:
        raise ValueError("eta must be nonzero (Sigma(tau, 0) = tau^2 has no roots)")
    report = classify(medium)
    c = medium.c
    if report.stability_class is StabilityClass.TRANSITION:
        raise RegimeError(report.stability_class.value,
                          "root structure is degenerate at v/c = sqrt(2)")
    if report.stability_class is StabilityClass.ELLIPTIC_UNSTABLE:
        return [complex(c * report.y1 * abs(eta), 0.0)]
    return [1j * c * report.y2 * eta, -1j * c * report.y2 * eta]


def root_cofactor(freq: Frequency, medium: Medium, root_sign: int = 1
                  ) -> complex:
    """The cofactor H in Sigma = (tau - root_sign*i*c*Y2*eta)*H near a root ray.

    Defined in the weakly stable regime on a neighborhood of the ray
    (root_sign*i*c*Y2*eta0, eta0); homogeneous of degree 1 and nonvanishing
    there.  Within relative distance 1e-8 of the ray the analytic value
    2*root_sign*i*c*eta*Y2*sqrt(4*(v/c)^2 + 1) is returned instead of the
    0/0 quotient.
    """
    if root_sign not in (1, -1):
        raise ValueError("root_sign must be +1 or -1")
    report = _require_regime(medium, StabilityClass.WEAKLY_STABLE, "root_cofactor")
    c = medium.c
    y2 = report.y2
    root_tau = root_sign * 1j * c * y2 * freq.eta
    scale = math.sqrt(freq.magnitude_sq)
    dist = abs(freq.tau - root_tau) / scale
    if dist > _COFACTOR_RADIUS:
        raise ValueError(
            f"frequency lies at relative distance {dist:.3g} from the root ray, "
            f"outside the factorization neighborhood (radius {_COFACTOR_RADIUS:g})")
    if dist <= 1e-8:
        m = report.mach_ratio
        kappa = math.sqrt(4.0 * m * m + 1.0)  # = m^2 + 1 - Y2^2 > 0
        return 2.0 * root_sign * 1j * c * freq.eta * y2 * kappa
    return symbol(freq, medium) / (freq.tau - root_tau)


@dataclass(frozen=True)
class BoundarySigns:
    """Record of the boundary root kinds and product sign at gamma = 0."""

    mu_plus_kind: str
    mu_minus_kind: str
    sum_nonzero: bool
    re_product_sign: int


def boundary_root_signs(freq: Frequency, medium: Medium) -> BoundarySigns:
    """Classify both roots at a boundary point gamma = 0, eta != 0.

    Reports whether each root is purely imaginary or positive real (the
    kind is read off the root: Im(mu) = 0 is positive real), whether the
    sum is nonzero, and the sign of Re(mu_plus*mu_minus).  Points where
    delta/(c*eta) sits on an interval endpoint (a root vanishes there) are
    refused.
    """
    if freq.gamma != 0.0:
        raise ValueError("boundary classification requires gamma = 0")
    if freq.eta == 0.0:
        raise ValueError("boundary classification requires eta != 0")
    pair = decay_root_pair(freq, medium)
    mus = (pair.mu_plus, pair.mu_minus)
    if 0 in mus:
        raise ValueError(
            "delta/(c*eta) lies on an interval endpoint where a root vanishes; "
            "the sign table is not defined there")
    p = (pair.mu_plus * pair.mu_minus).real
    sign = 0 if p == 0.0 else (1 if p > 0.0 else -1)
    return BoundarySigns(*("positive_real" if mu.imag == 0.0 else "imaginary"
                           for mu in mus), pair.mu_plus + pair.mu_minus != 0, sign)
