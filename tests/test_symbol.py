import cmath
import math

import numpy as np
import pytest

import vortexfront as vf
from vortexfront import Frequency, Medium, RegimeError
from vortexfront.domain import ENDPOINT_ATOL, MachClass, StabilityClass
from vortexfront.symbol import mu_grid, mu_symbol_grid, symbol_grid

from conftest import bisect_real

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# signed_sqrt

def test_signed_sqrt_examples():
    assert vf.signed_sqrt(1.0, 0.0) == 1.0 + 0.0j
    assert abs(vf.signed_sqrt(0.0, 2.0) - (1.0 + 1.0j)) < 1e-15
    # negative real axis uses the sgn(0) = 1 convention
    assert vf.signed_sqrt(-1.0, 0.0) == 1.0j
    assert vf.signed_sqrt(0.0, 0.0) == 0.0j


def test_signed_sqrt_squares_back():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        a, b = rng.uniform(-1e3, 1e3, 2) * 10.0 ** rng.uniform(-6, 6)
        z = vf.signed_sqrt(a, b)
        assert abs(z * z - complex(a, b)) <= 1e-14 * abs(complex(a, b))
        assert z.imag >= 0.0


# ---------------------------------------------------------------------------
# decay_root

def test_decay_root_examples():
    # eta = 0: root is tau/c
    assert vf.decay_root(Frequency(1, 0, 0), 2.0, 1.0) == 1.0 + 0.0j
    # boundary, outside the cone, sign from sgn(delta + v1*eta)
    assert abs(vf.decay_root(Frequency(0, 0, 1), 2.0, 1.0) - 1j * SQRT3) < 1e-15
    assert abs(vf.decay_root(Frequency(0, 0, 1), -2.0, 1.0) + 1j * SQRT3) < 1e-15
    # boundary, eta = 0: exactly i*delta/c
    for d in (0.3, -0.7, 1e-150, -2e150):
        assert vf.decay_root(Frequency(0, d, 0), -2.0, 1.5) == 1j * (d / 1.5)


def test_decay_root_square_residual():
    rng = np.random.default_rng(11)
    for _ in range(500):
        g = 10.0 ** rng.uniform(-3, 2)
        d, e = rng.uniform(-20, 20, 2)
        v1, c = rng.uniform(-3, 3), rng.uniform(0.5, 3)
        f = Frequency(g, d, e)
        mu = vf.decay_root(f, v1, c)
        alpha = ((f.tau + 1j * v1 * e) / c) ** 2 + e * e
        scale = (abs(f.tau) ** 2 + e * e) / (c * c)
        assert abs(mu * mu - alpha) <= 1e-13 * scale
        assert mu.real > 0.0


def test_decay_root_pair_reports_cases(weakly_stable):
    # interior: Re(mu) > 0 on both sides, above gamma/(sqrt(2)*c)
    pair = vf.decay_root_pair(Frequency(1, 0.3, 0.7), weakly_stable)
    assert pair.mu_plus.real > 1.0 / SQRT2
    assert pair.mu_minus.real > 1.0 / SQRT2
    # boundary: opposite imaginary roots at tau = 0, Im(mu) signed by v1*eta
    pair0 = vf.decay_root_pair(Frequency(0, 0, 2.5), weakly_stable)
    assert pair0.mu_plus + pair0.mu_minus == 0.0
    assert pair0.mu_plus.real == 0.0 and pair0.mu_plus.imag > 0.0
    assert pair0.mu_minus.real == 0.0 and pair0.mu_minus.imag < 0.0


def test_decay_root_vanishing_loci(weakly_stable):
    v, c = 2.0, 1.0
    for eta in (0.7, -1.3):
        for sgn, v1 in ((1, v), (-1, -v)):
            for pm in (1.0, -1.0):
                delta = -(v1 + pm * c) * eta
                mu = vf.decay_root(Frequency(0.0, delta, eta), v1, c)
                assert abs(mu) <= 1e-8 * abs(eta)
    # away from the loci the roots stay bounded below on the hemisphere
    rng = np.random.default_rng(3)
    for _ in range(300):
        th = rng.uniform(0, 2 * np.pi)
        d, e = math.cos(th), math.sin(th)
        if abs(e) < 0.05:
            continue
        x = d / e
        if min(abs(x - r) for r in (-3.0, -1.0, 1.0, 3.0)) < 0.05:
            continue
        mu = vf.decay_root(Frequency(0.0, d, e), 2.0, 1.0)
        assert abs(mu) > 1e-2


def test_decay_root_coincidence_loci():
    # mu+ = mu- exactly when eta = 0, or tau = 0 with v <= c
    sub = Medium.symmetric(0.5, 1.0)
    son = Medium.symmetric(1.0, 1.0)
    sup = Medium.symmetric(2.0, 1.0)
    for med in (sub, son, sup):
        p = vf.decay_root_pair(Frequency(0.7, -1.2, 0.0), med)
        assert p.mu_plus == p.mu_minus
    p = vf.decay_root_pair(Frequency(0, 0, 1.4), sub)
    assert p.mu_plus == p.mu_minus
    p = vf.decay_root_pair(Frequency(0, 0, 1.4), son)
    assert p.mu_plus == p.mu_minus == 0.0
    p = vf.decay_root_pair(Frequency(0, 0, 1.4), sup)
    assert p.mu_plus != p.mu_minus
    rng = np.random.default_rng(5)
    for med in (sub, son, sup):
        for _ in range(200):
            f = Frequency(rng.uniform(0.1, 3), rng.uniform(-3, 3),
                          rng.uniform(0.1, 3))
            p = vf.decay_root_pair(f, med)
            assert abs(p.mu_plus - p.mu_minus) > 0.0


def test_boundary_continuity():
    # |mu(gamma + i delta, eta) - mu(i delta, eta)| -> 0 linearly in gamma
    cases = [(2.0, 1.0, -3.5, 1.0), (2.0, 1.0, 0.4, -1.2),
             (0.5, 1.0, 0.3, 0.9), (1.0, 1.0, 1.1, 1.0)]
    for v, c, dbar, ebar in cases:
        for v1 in (v, -v):
            lim = vf.decay_root(Frequency(0.0, dbar, ebar), v1, c)
            errs = [abs(vf.decay_root(Frequency(g, dbar, ebar), v1, c) - lim)
                    for g in (1e-2, 1e-4, 1e-6)]
            assert errs[0] > errs[1] > errs[2]
            # first order: two decades of gamma give ~two decades of error
            assert errs[2] <= 1e-3 * errs[0]


def test_root_sum_lower_bound_near_tau_zero(weakly_stable):
    # Re(mu+ + mu-) ~ (gamma/c) * 2m/sqrt(m^2 - 1) approaching tau = 0, v > c
    m = 2.0
    expected = 2.0 * m / math.sqrt(m * m - 1.0)
    for g in (1e-4, 1e-6):
        pair = vf.decay_root_pair(Frequency(g, 0.0, 1.0), weakly_stable)
        ratio = (pair.mu_plus + pair.mu_minus).real / g
        assert abs(ratio - expected) < 0.1 * expected


# ---------------------------------------------------------------------------
# ratio_sq and the symbol

def test_ratio_sq_examples(weakly_stable):
    assert abs(vf.ratio_sq(Frequency(0, 0, 1), weakly_stable) - 0.1875) < 1e-14
    assert vf.ratio_sq(Frequency(1, 0, 0), weakly_stable) == 0.25
    sonic = Medium.symmetric(1.0, 1.0)
    assert abs(vf.ratio_sq(Frequency(0, 0, 1), sonic)) < 1e-14


def test_ratio_sq_matches_direct_quotient(weakly_stable):
    rng = np.random.default_rng(13)
    for _ in range(300):
        f = Frequency(rng.uniform(0.2, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        pair = vf.decay_root_pair(f, weakly_stable)
        direct = ((f.tau / weakly_stable.c) / (pair.mu_plus + pair.mu_minus)) ** 2
        assert abs(vf.ratio_sq(f, weakly_stable) - direct) <= 1e-12 * abs(direct)


def test_ratio_limit_at_root_sum_zero():
    # approaching (0, eta) the ratio tends to ((v/c)^2 - 1)/(4 (v/c)^2)
    for m in (1.5, 2.0):
        med = Medium.symmetric(m, 1.0)
        target = (m * m - 1.0) / (4.0 * m * m)
        errs = [abs(vf.ratio_sq(Frequency(g, 0, 1), med) - target)
                for g in (1e-2, 1e-4, 1e-6)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-4


def test_symbol_examples(weakly_stable):
    assert abs(vf.symbol(Frequency(0, 0, 1), weakly_stable) - 2.0) < 1e-12
    assert vf.symbol(Frequency(1, 0, 0), weakly_stable) == 1.0 + 0j
    y2 = vf.classify(weakly_stable).y2
    assert abs(vf.symbol(Frequency(0, y2, 1), weakly_stable)) < 1e-10


def test_symbol_factored_examples(weakly_stable):
    f = Frequency(1, 0.5, 1)
    s1 = vf.symbol(f, weakly_stable)
    s2 = vf.symbol_factored(f, weakly_stable)
    assert abs(s1 - s2) <= 1e-12 * abs(s1)
    assert abs(vf.symbol_factored(Frequency(0, 0, 1), weakly_stable) - 2.0) < 1e-12
    f0 = Frequency(0.8, -0.6, 0.0)
    assert abs(vf.symbol_factored(f0, weakly_stable) - f0.tau ** 2) < 1e-14


def test_two_form_agreement_all_regimes():
    rng = np.random.default_rng(17)
    n = 2000
    g = 10.0 ** rng.uniform(-2, 2, n)
    d = rng.uniform(-10, 10, n)
    e = rng.uniform(-10, 10, n)
    tau = g + 1j * d
    for m in (0.5, 1.0, 1.2, 1.5, 2.0, 3.0):
        med = Medium.symmetric(m, 1.0)
        s1 = symbol_grid(tau, e, med)
        mu_p = mu_grid(tau, e, m, 1.0)
        mu_m = mu_grid(tau, e, -m, 1.0)
        s2 = med.c ** 2 * (mu_p * mu_m - e * e)
        lam2 = np.abs(tau) ** 2 + e * e
        assert np.max(np.abs(s1 - s2) / lam2) <= 1e-12


def test_symbol_elliptic_on_imaginary_axis():
    # v/c < sqrt(2): the symbol never vanishes at gamma = 0
    for m in (0.5, 1.0, 1.2):
        med = Medium.symmetric(m, 1.0)
        deltas = np.linspace(-10, 10, 2001)
        for eta in (1.0, -1.0):
            tau = 1j * deltas
            sig = symbol_grid(tau, np.full_like(deltas, eta), med, boundary=True)
            floor = np.min(np.abs(sig) / (deltas ** 2 + eta ** 2))
            assert floor > 1e-2


def test_symbol_growth_bound():
    # |Sigma| <= C (|tau|^2 + eta^2) with C from a fine hemisphere sample
    for m in (0.5, 1.2, 2.0):
        med = Medium.symmetric(m, 1.0)
        cst = vf.estimate_constants(med)
        rng = np.random.default_rng(29)
        g = 10.0 ** rng.uniform(-2, 2, 2000)
        d, e = rng.uniform(-20, 20, 2000), rng.uniform(-20, 20, 2000)
        tau = g + 1j * d
        sig = symbol_grid(tau, e, med)
        lam2 = np.abs(tau) ** 2 + e * e
        assert np.max(np.abs(sig) / lam2) <= 1.05 * cst.c_bound


# ---------------------------------------------------------------------------
# classification and roots

def test_classify_examples():
    rep = vf.classify(Medium.symmetric(2.0, 1.0))
    assert rep.mach_class is MachClass.SUPERSONIC
    assert rep.stability_class is StabilityClass.WEAKLY_STABLE
    assert abs(rep.y0 - 3.020448) < 5e-7
    assert abs(rep.y2 - 0.936426) < 5e-7
    assert rep.y1 is None

    rep = vf.classify(Medium.symmetric(1.0, 1.0))
    assert rep.mach_class is MachClass.SONIC
    assert rep.stability_class is StabilityClass.ELLIPTIC_UNSTABLE
    assert abs(rep.y1 - math.sqrt(-2.0 + math.sqrt(5.0))) < 1e-15
    assert rep.y2 is None

    rep = vf.classify(Medium.symmetric(SQRT2, 1.0))
    assert rep.stability_class is StabilityClass.TRANSITION
    assert rep.y1 is None and rep.y2 is None


def test_classify_rejects_bad_params():
    with pytest.raises(ValueError):
        vf.classify(Medium.symmetric(-1.0, 1.0))
    with pytest.raises(ValueError):
        Medium.symmetric(1.0, 0.0)
    with pytest.raises(ArithmeticError) as exc:
        vf.classify(Medium(2e154, 1.0))  # 4*(v/c)^2 + 1 overflows
    assert str(exc.value) == ("4*(v/c)^2 + 1 in the dispersion relation at "
                              "v = 2e+154, c = 1.0 is not finite in double precision")
    assert vf.classify(Medium(1e150, 1.0)).y2 > 0.0


def test_medium_validation():
    # Two settable values, v > 0 and c > 0, both finite; symmetric(v, c)
    # is the same medium, and the side velocities are +v and -v.
    for v, c in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                 (math.inf, 1.0), (1.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            Medium(v, c)
    med = Medium(2.0, 1.0)
    assert med == Medium.symmetric(2.0, 1.0) == Medium(v=2.0, c=1.0)
    assert (med.v1_plus, med.v1_minus) == (2.0, -2.0)
    with pytest.raises(AttributeError):
        med.v1_plus = 3.0


def _guarded_classify(medium):
    """classify with Y0, Y1 and Y2 from a separate function and two guard
    branches for rounding that straddles the threshold: the reference for
    the one-body version, which clamps instead."""
    def dispersion_parameters(m):
        disc = math.sqrt(4.0 * m * m + 1.0)
        y0 = math.sqrt(m * m + 1.0 + disc)
        rest = disc - (m * m + 1.0)
        if rest > 0.0:
            return y0, math.sqrt(rest), None
        if rest < 0.0:
            return y0, None, math.sqrt(-rest)
        return y0, None, None

    v, c = medium.v, medium.c
    m = v / c
    if not math.isfinite(4.0 * m * m + 1.0):
        raise ArithmeticError(f"4*(v/c)^2 + 1 in the dispersion relation at v = "
                              f"{float(v)!r}, c = {float(c)!r} is not finite in double precision")
    if abs(v - c) <= 1e-12 * max(v, c):
        mach = MachClass.SONIC
    elif v < c:
        mach = MachClass.SUBSONIC
    else:
        mach = MachClass.SUPERSONIC
    if abs(m - SQRT2) <= 1e-12 * SQRT2:
        stability = StabilityClass.TRANSITION
        y0 = dispersion_parameters(m)[0]
        y1 = y2 = None
    else:
        y0, y1, y2 = dispersion_parameters(m)
        stability = (StabilityClass.ELLIPTIC_UNSTABLE if m < SQRT2
                     else StabilityClass.WEAKLY_STABLE)
        if stability is StabilityClass.ELLIPTIC_UNSTABLE and y1 is None:
            y1, y2 = 0.0, None
        if stability is StabilityClass.WEAKLY_STABLE and y2 is None:
            y1, y2 = None, 0.0
    return vf.RegimeReport(mach, stability, m, y0, y1, y2)


def test_classify_matches_the_guarded_reference():
    # Field for field, and with no -0.0, over v/c log-uniform across the
    # double range (refused by both beyond about 6.7e153), within 1e-11 of
    # sqrt(2) and of 1, and at the least subnormal and 2^-26, below which
    # the parameter rest rounds to 0 and Y1 is 0.0 by the clamp (a guard).
    rng = np.random.default_rng(21)
    ratios = np.concatenate([np.exp(rng.uniform(-700.0, 700.0, 200_000)),
                             SQRT2 + rng.uniform(-1e-11, 1e-11, 200_000),
                             1.0 + rng.uniform(-1e-11, 1e-11, 50_000),
                             [5e-324, 2.0 ** -26]]).tolist()

    def fields(classify, medium):
        try:
            return tuple(vars(classify(medium)).values())
        except ArithmeticError as exc:
            return str(exc)

    media = [Medium(m, 1.0) for m in ratios]
    got = [fields(vf.classify, med) for med in media]
    want = [fields(_guarded_classify, med) for med in media]
    assert [m for m, a, b in zip(ratios, got, want) if a != b] == []
    reports = [row for row in got if isinstance(row, tuple)]
    assert all(math.copysign(1.0, y) == 1.0 for row in reports
               for y in row[4:] if y is not None)
    stabilities = [row[1] for row in reports]
    assert len(reports) < len(got)  # some overflow
    assert {row[0] for row in reports} == set(MachClass)
    assert StabilityClass.TRANSITION in stabilities
    assert sum(row[4] == 0.0 for row in reports) > 50_000


def test_classify_y0_above_mach_plus_one():
    for m in (0.3, 1.0, 1.41, 2.0, 5.0):
        rep = vf.classify(Medium.symmetric(m, 1.0))
        assert rep.y0 > m + 1.0


def test_symbol_roots_against_bisection_oracle():
    for m in (1.5, 2.0, 3.0):
        med = Medium.symmetric(m, 1.0)
        roots = vf.symbol_roots(med, 1.0)
        found = bisect_real(lambda d: vf.symbol(Frequency(0, d, 1), med).real,
                            1e-9, (m - 1.0) * (1.0 - 1e-9))
        assert abs(found - roots[0].imag) <= 1e-12
        assert roots[1] == -roots[0]
    for m in (0.5, 1.0, 1.2):
        med = Medium.symmetric(m, 1.0)
        (root,) = vf.symbol_roots(med, -3.0)
        found = bisect_real(lambda g: vf.symbol(Frequency(g, 0, -3.0), med).real,
                            1e-12, 3.0 * (m + 1.0))
        assert root.imag == 0.0
        assert abs(found - root.real) <= 3e-12
    for m in (0.5, 2.0):
        med = Medium.symmetric(m, 1.0)
        for tau in vf.symbol_roots(med, 1.0):
            scale = abs(tau) ** 2 + 1.0
            fq = Frequency(tau.real, tau.imag, 1.0)
            assert abs(vf.symbol(fq, med)) <= 1e-10 * scale


def test_symbol_roots_transition_refused():
    with pytest.raises(RegimeError):
        vf.symbol_roots(Medium.symmetric(SQRT2, 1.0), 1.0)


def test_spurious_candidates_rejected():
    # at tau = +-i c Y0 eta the root product is -eta^2, never a symbol zero
    for m in (1.0, 1.5, 2.0):
        med = Medium.symmetric(m, 1.0)
        y0 = vf.classify(med).y0
        for sgn in (1, -1):
            fq = Frequency(0.0, sgn * y0 * 1.0, 1.0)
            pair = vf.decay_root_pair(fq, med)
            assert (pair.mu_plus * pair.mu_minus).real < 0.0
            assert abs(vf.symbol(fq, med) + 2.0) < 1e-10


# ---------------------------------------------------------------------------
# cofactor near the neutral root rays

def test_root_cofactor_at_root(weakly_stable):
    rep = vf.classify(weakly_stable)
    h0 = vf.root_cofactor(Frequency(0.0, rep.y2, 1.0), weakly_stable)
    expected = 2j * rep.y2 * math.sqrt(17.0)
    assert abs(h0 - expected) < 1e-12
    assert abs(h0) > 0.1


def test_root_cofactor_matches_difference_quotient(weakly_stable):
    rep = vf.classify(weakly_stable)
    h0 = vf.root_cofactor(Frequency(0.0, rep.y2, 1.0), weakly_stable)
    # limit of Sigma/(tau - i c Y2 eta) along gamma down to 0
    prev = None
    for g in (1e-2, 1e-3, 1e-4):
        fq = Frequency(g, rep.y2, 1.0)
        quot = vf.symbol(fq, weakly_stable) / (fq.tau - 1j * rep.y2)
        err = abs(quot - h0) / abs(h0)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 1e-3


def test_root_cofactor_continuity_and_homogeneity(weakly_stable):
    rep = vf.classify(weakly_stable)
    h0 = vf.root_cofactor(Frequency(0.0, rep.y2, 1.0), weakly_stable)
    near = vf.root_cofactor(Frequency(1e-3, rep.y2, 1.0), weakly_stable)
    assert abs(near - h0) <= 1e-2 * abs(h0)
    for k in (0.5, 2.0, 10.0):
        hk = vf.root_cofactor(Frequency(0.0, k * rep.y2, k * 1.0), weakly_stable)
        assert abs(hk - k * h0) <= 1e-12 * abs(hk)
    # nonvanishing, degree-1 lower bound on the neighborhood
    rng = np.random.default_rng(31)
    for _ in range(200):
        g = rng.uniform(0, 0.2)
        d = rep.y2 + rng.uniform(-0.2, 0.2)
        fq = Frequency(g, d, 1.0)
        h = vf.root_cofactor(fq, weakly_stable)
        assert abs(h) >= 0.1 * math.sqrt(fq.magnitude_sq)


def test_root_cofactor_second_ray_and_rejections(weakly_stable):
    rep = vf.classify(weakly_stable)
    h_minus = vf.root_cofactor(Frequency(0.0, -rep.y2, 1.0), weakly_stable,
                               root_sign=-1)
    assert abs(h_minus + 2j * rep.y2 * math.sqrt(17.0)) < 1e-12
    with pytest.raises(ValueError):
        vf.root_cofactor(Frequency(1.0, 0.0, 0.0), weakly_stable)
    with pytest.raises(RegimeError):
        vf.root_cofactor(Frequency(0.0, 0.4, 1.0), Medium.symmetric(1.0, 1.0))


# ---------------------------------------------------------------------------
# the classical stability analysis

@pytest.mark.parametrize("c", [1.0, 0.5, 1.7, 2.5])
@pytest.mark.parametrize("m", [0.8, 1.2, 2.0, 3.0])
def test_lopatinskii_determinant_is_the_root_sum_times_the_symbol(m, c):
    # The normal-mode determinant of the linearized Euler vortex sheet is,
    # up to a constant, Delta = mu-(tau + i v eta)^2 + mu+(tau - i v eta)^2
    # (Coulombel & Secchi, Indiana Univ. Math. J. 53, 2004), and it equals
    # (mu+ + mu-) Sigma.  The largest residual measured here, relative to
    # Lambda^3, was 1.5e-14 at c = 1 and 1.2e-13 at c = 2.5, m = 3; with
    # mu+ and mu- swapped it is at least 1.3.
    rng = np.random.default_rng(12)
    g = rng.uniform(0.01, 3.0, 20_000)
    d, e = rng.uniform(-5.0, 5.0, (2, 20_000))
    tau, v = g + 1j * d, m * c
    mu_p, mu_m, sigma = mu_symbol_grid(tau, e, Medium(v, c))
    lam3 = np.sqrt(g * g + d * d + e * e) ** 3
    up, down = (tau + 1j * v * e) ** 2, (tau - 1j * v * e) ** 2
    lopatinskii = mu_m * up + mu_p * down
    assert np.max(np.abs(lopatinskii - (mu_p + mu_m) * sigma) / lam3) <= 2e-12
    swapped = mu_p * up + mu_m * down
    assert np.max(np.abs(swapped - (mu_p + mu_m) * sigma) / lam3) > 1.0


def test_root_sum_vanishes_at_tau_zero_above_the_sound_speed():
    # The extra zero of Delta: mu+ + mu- = 0 exactly at tau = 0 for v > c,
    # a steady corrugation; for v < c it is 2 |eta| sqrt(1 - (v/c)^2).
    eta = np.array([0.5, 1.0, 3.0, -2.0])
    tau = np.zeros(eta.shape, dtype=complex)
    for m in (1.2, 2.0, 3.0):
        mu_p, mu_m, _ = mu_symbol_grid(tau, eta, Medium(m, 1.0))
        assert ((mu_p + mu_m) == 0j).all()
    mu_p, mu_m, _ = mu_symbol_grid(tau, eta, Medium(0.8, 1.0))
    np.testing.assert_allclose(mu_p + mu_m, [0.6, 1.2, 3.6, 2.4], rtol=1e-15)


# ---------------------------------------------------------------------------
# boundary sign tables

SUPERSONIC_TABLE = [
    # (lo, hi) in x = delta/(c eta); kinds; Re(mu+ mu-) sign
    (None, "-(m+1)", "imaginary", "imaginary", -1),
    ("-(m+1)", "-(m-1)", "positive_real", "imaginary", 0),
    ("-(m-1)", "m-1", "imaginary", "imaginary", 1),
    ("m-1", "m+1", "imaginary", "positive_real", 0),
    ("m+1", None, "imaginary", "imaginary", -1),
]

SUBSONIC_TABLE = [
    (None, "-(m+1)", "imaginary", "imaginary", -1),
    ("-(m+1)", "m-1", "positive_real", "imaginary", 0),
    ("m-1", "-(m-1)", "positive_real", "positive_real", 1),
    ("-(m-1)", "m+1", "imaginary", "positive_real", 0),
    ("m+1", None, "imaginary", "imaginary", -1),
]

SONIC_TABLE = [
    (None, "-(m+1)", "imaginary", "imaginary", -1),
    ("-(m+1)", "m-1", "positive_real", "imaginary", 0),
    ("m-1", "m+1", "imaginary", "positive_real", 0),
    ("m+1", None, "imaginary", "imaginary", -1),
]


def _endpoint(expr, m):
    return {"-(m+1)": -(m + 1.0), "-(m-1)": -(m - 1.0),
            "m-1": m - 1.0, "m+1": m + 1.0}[expr]


def sign_table_cases(m):
    """Yield (x, plus_kind, minus_kind, sum_nonzero, product_sign)."""
    table = (SUPERSONIC_TABLE if m > 1.0
             else SONIC_TABLE if m == 1.0 else SUBSONIC_TABLE)
    for lo, hi, kp, km, ps in table:
        if lo is None:
            b = _endpoint(hi, m)
            xs = [b - off for off in (0.5, 1.5, 3.0)]
        elif hi is None:
            a = _endpoint(lo, m)
            xs = [a + off for off in (0.5, 1.5, 3.0)]
        else:
            a, b = _endpoint(lo, m), _endpoint(hi, m)
            xs = [a + f * (b - a) for f in (0.25, 0.5, 0.75)]
        for x in xs:
            sum_nonzero = not (x == 0.0 and m >= 1.0)
            yield x, kp, km, sum_nonzero, ps


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_boundary_sign_tables(m):
    med = Medium.symmetric(m, 1.0)
    checks = 0
    for eta in (1.3, -0.8):
        for x, kp, km, nz, ps in sign_table_cases(m):
            rec = vf.boundary_root_signs(Frequency(0.0, x * eta, eta), med)
            assert rec.mu_plus_kind == kp, (m, eta, x)
            assert rec.mu_minus_kind == km, (m, eta, x)
            assert rec.sum_nonzero == nz, (m, eta, x)
            assert rec.re_product_sign == ps, (m, eta, x)
            checks += 1
    assert checks >= 24


def test_boundary_sign_table_spec_rows():
    rec = vf.boundary_root_signs(Frequency(0.0, -3.5, 1.0), Medium.symmetric(2, 1))
    assert (rec.mu_plus_kind, rec.mu_minus_kind) == ("imaginary", "imaginary")
    assert rec.sum_nonzero and rec.re_product_sign == -1
    rec = vf.boundary_root_signs(Frequency(0.0, 0.0, 1.0), Medium.symmetric(0.5, 1))
    assert (rec.mu_plus_kind, rec.mu_minus_kind) == ("positive_real", "positive_real")
    assert rec.re_product_sign == 1
    rec = vf.boundary_root_signs(Frequency(0.0, 1.0, 1.0), Medium.symmetric(1, 1))
    assert (rec.mu_plus_kind, rec.mu_minus_kind) == ("imaginary", "positive_real")
    assert rec.re_product_sign == 0


def test_boundary_sign_table_rejects_endpoints():
    med = Medium.symmetric(2.0, 1.0)
    for x in (-3.0, -1.0, 1.0, 3.0):
        with pytest.raises(ValueError):
            vf.boundary_root_signs(Frequency(0.0, x * 1.0, 1.0), med)
    with pytest.raises(ValueError):
        vf.boundary_root_signs(Frequency(0.1, 0.5, 1.0), med)
    with pytest.raises(ValueError):
        vf.boundary_root_signs(Frequency(0.0, 0.5, 0.0), med)


# ---------------------------------------------------------------------------
# homogeneity and vectorized paths

def test_homogeneity_scalar_including_boundary(weakly_stable):
    points = [Frequency(1.0, 0.3, 0.7), Frequency(0.0, -2.2, 0.9),
              Frequency(0.5, 0.0, -1.0), Frequency(0.0, 0.4, 1.1)]
    for fq in points:
        s0 = vf.symbol(fq, weakly_stable)
        p0 = vf.decay_root_pair(fq, weakly_stable)
        for k in (0.5, 2.0, 10.0):
            fk = fq.scaled(k)
            sk = vf.symbol(fk, weakly_stable)
            pk = vf.decay_root_pair(fk, weakly_stable)
            assert abs(sk - k * k * s0) <= 1e-12 * (k * k * fq.magnitude_sq)
            assert abs(pk.mu_plus - k * p0.mu_plus) <= 1e-12 * max(abs(pk.mu_plus), 1e-30)
            assert abs(pk.mu_minus - k * p0.mu_minus) <= 1e-12 * max(abs(pk.mu_minus), 1e-30)


def _boundary_kind(mu):
    if mu.imag == 0.0 and mu.real > 0.0:
        return "positive_real"
    if mu.real == 0.0 and mu.imag != 0.0:
        return "imaginary"
    return None


def test_one_kernel_call_mixes_interior_and_boundary(weakly_stable):
    # One array call over Re(tau) > 0 entries and the gamma = 0 sign-table
    # entries: it equals the scalar results, interior roots square back,
    # and the boundary roots reproduce the sign table.  The one-call triple
    # of mu_symbol_grid equals the separate calls bit for bit.
    m = 2.0
    rng = np.random.default_rng(37)
    n = 50
    g = rng.uniform(0.1, 5, n)
    d = rng.uniform(-5, 5, n)
    e = rng.uniform(-5, 5, n)
    table = [(x * eta, eta, row) for eta in (1.3, -0.8)
             for x, *row in sign_table_cases(m)]
    tau = np.concatenate((g + 1j * d, [1j * dt for dt, _, _ in table]))
    eta = np.concatenate((e, [et for _, et, _ in table]))
    mu_p = mu_grid(tau, eta, m, 1.0)
    mu_m = mu_grid(tau, eta, -m, 1.0)
    sig = symbol_grid(tau, eta, weakly_stable)
    for got, want in zip(mu_symbol_grid(tau, eta, weakly_stable),
                         (mu_p, mu_m, sig)):
        assert np.array_equal(got, want)
    for i in range(len(tau)):
        f = Frequency(tau[i].real, tau[i].imag, eta[i])
        pair = vf.decay_root_pair(f, weakly_stable)
        assert (mu_p[i], mu_m[i]) == (pair.mu_plus, pair.mu_minus)
        assert sig[i] == vf.symbol(f, weakly_stable)
    for v1, mu in ((m, mu_p[:n]), (-m, mu_m[:n])):
        alpha = (tau[:n] + 1j * v1 * e) ** 2 + e * e
        assert np.all(np.abs(mu * mu - alpha) <= 1e-13 * np.abs(alpha))
        assert np.all(mu.real > 0.0)
    for i, (_, _, (kp, km, nz, ps)) in enumerate(table, start=n):
        assert _boundary_kind(mu_p[i]) == kp, tau[i]
        assert _boundary_kind(mu_m[i]) == km, tau[i]
        assert (mu_p[i] + mu_m[i] != 0) == nz, tau[i]
        assert np.sign((mu_p[i] * mu_m[i]).real) == ps, tau[i]


def test_kernel_refuses_negative_re_tau(weakly_stable):
    tau = np.array([1.0 + 2j, -1e-3 + 1j])
    eta = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        mu_grid(tau, eta, 2.0, 1.0)
    with pytest.raises(ValueError):
        symbol_grid(tau, eta, weakly_stable)
    # boundary=True checks Re(tau) = 0 instead of ignoring Re(tau)
    with pytest.raises(ValueError):
        symbol_grid(np.array([1j, 0.5 + 1j]), eta, weakly_stable, boundary=True)
    sig = symbol_grid(np.array([1j, -2j]), eta, weakly_stable, boundary=True)
    assert np.array_equal(sig, symbol_grid(np.array([1j, -2j]), eta, weakly_stable))


def test_frequency_validation():
    with pytest.raises(ValueError):
        Frequency(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Frequency(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Frequency(math.nan, 0.0, 1.0)


# ---------------------------------------------------------------------------
# The root kernel against a 40-digit oracle

EPS = np.finfo(float).eps


def _mp_root(tau, eta, v1, c):
    """The decay root from the exact inputs, in mpmath: Re(mu) > 0 inside,
    and on Re(tau) = 0 the real root or i*sgn(y)*sqrt(-alpha)."""
    import mpmath as mp
    x = mp.mpf(tau.real) / c
    y = (mp.mpf(tau.imag) + mp.mpf(v1) * mp.mpf(eta)) / c
    alpha = mp.mpc(x, y) ** 2 + mp.mpf(eta) ** 2
    if x > 0:
        return mp.sqrt(alpha)
    if alpha.real >= 0:
        return mp.mpc(mp.sqrt(alpha.real), 0)
    return mp.mpc(0, mp.sign(y) * mp.sqrt(-alpha.real))


def _oracle_frequencies(rng, v, c, n=200):
    def slog(lo, hi, k):
        return 10.0 ** rng.uniform(lo, hi, k) * rng.choice([-1.0, 1.0], k)
    # Interior, |eta| >> |tau| to |tau| >> |eta|; Re(tau) = 0 rows; and
    # a ~ 0 with tiny b: tiny Re(tau), delta near a locus -(v1 +- c)*eta
    # (a quarter on Re(tau) = 0, some within the snap to mu = 0).
    e = slog(-3, 3, n)
    near = -(rng.choice([v, -v], n) + rng.choice([c, -c], n)) * e * (
        1.0 + slog(-15, -3, n))
    gap = np.abs(e) * 10.0 ** rng.uniform(-16, -4, n)
    gap[:n // 4] = 0.0
    tau = np.concatenate((10.0 ** rng.uniform(-8, 3, n) + 1j * slog(-8, 3, n),
                          1j * slog(-6, 3, n), gap + 1j * near))
    return tau, np.concatenate((slog(-8, 3, n), slog(-6, 3, n), e))


@pytest.mark.parametrize("v, c", [(2.0, 1.0), (0.7, 1.0), (3.0, 0.5)])
def test_root_kernel_matches_mpmath(v, c):
    # Error bounds are 2-3x the worst measured over these sets (1.4 eps*kappa
    # for the roots, 29 eps for Sigma).  kappa = 1 + scale^2/|mu|^2 is the
    # conditioning of mu = sqrt(alpha) in the inputs, large only near the
    # loci; Sigma's error is relative to c^2*scale^2 and the smaller root.
    import mpmath as mp
    medium = Medium.symmetric(v, c)
    tau, eta = _oracle_frequencies(np.random.default_rng(2024), v, c)
    mu_p, mu_m, sig = mu_symbol_grid(tau, eta, medium)
    # One kernel call for both sides is bitwise the per-side calls, also
    # on broadcast (tau column, eta row) grids.
    grid = mu_symbol_grid(tau[:, None], eta[None, :60], medium)
    for got, on_grid, v1 in ((mu_p, grid[0], v), (mu_m, grid[1], -v)):
        assert got.tobytes() == mu_grid(tau, eta, v1, c).tobytes()
        assert on_grid.tobytes() == mu_grid(tau[:, None], eta[None, :60],
                                            v1, c).tobytes()
    diff = c * (mu_p - mu_m).copy()
    sigma = tau * tau - 0.5 * diff * diff - (medium.v * eta) ** 2
    assert sig.tobytes() == sigma.tobytes()  # as from separate root arrays
    case = _case_reference(tau, eta, np.reshape([v, -v], (2, 1)), c)
    scale = np.hypot(np.abs(tau), eta) / c
    with mp.workdps(40):
        for i in range(len(tau)):
            want = []
            for side, (got, v1) in enumerate(((mu_p[i], v), (mu_m[i], -v))):
                if case[side, i] == 2:  # within ENDPOINT_ATOL of a locus
                    assert got == 0
                    continue
                exact = _mp_root(tau[i], eta[i], v1, c)
                kappa = 1.0 + (scale[i] / float(abs(exact))) ** 2
                assert abs(mp.mpc(got) - exact) <= 4 * EPS * kappa * abs(exact), (
                    tau[i], eta[i], v1)
                want.append(exact)
            if len(want) == 2:
                sigma = c * c * (want[0] * want[1] - mp.mpf(eta[i]) ** 2)
                bound = 64 * EPS * (c * scale[i]) ** 2 * (
                    1.0 + scale[i] / float(min(abs(want[0]), abs(want[1]))))
                assert abs(mp.mpc(sig[i]) - sigma) <= bound, (tau[i], eta[i])


@pytest.mark.parametrize("v, c", [(2.0, 1.0), (3.0, 0.5)])
def test_root_kernel_exact_inputs_near_the_loci(v, c):
    # Dyadic inputs make x and y exact, so only the kernel's own arithmetic
    # rounds: near the loci eta^2 - y^2 must be factored to keep mu to 2 eps
    # relative (worst measured 0.72 eps; unfactored, 1.7e11 eps).
    import mpmath as mp
    rng = np.random.default_rng(9)
    n = 200
    eta = rng.integers(1, 64, n) / 8.0 * rng.choice([-1.0, 1.0], n)
    v1 = rng.choice([v, -v], n)
    delta = (-(v1 + rng.choice([c, -c], n))
             + 2.0 ** -rng.integers(8, 45, n) * rng.choice([-1.0, 1.0], n)) * eta
    gamma = np.abs(eta) * 2.0 ** -rng.integers(20, 60, n)
    gamma[:n // 2] = 0.0
    tau = gamma + 1j * delta
    mu = mu_grid(tau, eta, np.reshape([v, -v], (2, 1)), c)
    case = _case_reference(tau, eta, np.reshape([v, -v], (2, 1)), c)
    with mp.workdps(40):
        for side, v1 in enumerate((v, -v)):
            for i in range(n):
                if case[side, i] == 2:
                    assert mu[side, i] == 0
                    continue
                exact = _mp_root(tau[i], eta[i], v1, c)
                assert abs(mp.mpc(mu[side, i]) - exact) <= 2 * EPS * abs(exact)


def test_signed_sqrt_matches_mpmath_componentwise():
    # Both components to 3 eps relative (worst measured 1.0 eps), from
    # subnormal to 1e300, a ~ 0 with tiny b, and b = +-0.0 with sgn = +1.
    import mpmath as mp
    rng = np.random.default_rng(5)

    def slog(lo, hi, k):
        return 10.0 ** rng.uniform(lo, hi, k) * rng.choice([-1.0, 1.0], k)
    a = np.concatenate((slog(-300, 300, 600), slog(-300, -290, 100),
                        slog(-3, 3, 100), np.zeros(20)))
    b = np.concatenate((slog(-300, 300, 600), slog(-310, -300, 100),
                        rng.choice([0.0, -0.0], 100), slog(-3, 3, 20)))
    z = vf.signed_sqrt(a, b)
    for i in range(len(a)):
        with mp.workdps(40):
            root = mp.sqrt(mp.mpc(a[i], abs(b[i])))
        want = (-root.real if b[i] < 0.0 else root.real, root.imag)
        for got, exact in zip((z[i].real, z[i].imag), want):
            if abs(exact) < np.finfo(float).tiny:  # zero or subnormal
                assert abs(got - exact) <= np.finfo(float).smallest_subnormal
            else:
                assert abs(got - exact) <= 3 * EPS * abs(exact), (a[i], b[i])
    assert vf.signed_sqrt(-4.0, -0.0) == 2j
    assert not np.signbit(vf.signed_sqrt(-4.0, -0.0).real)
    assert vf.signed_sqrt(4.0, -0.0) == 2.0


def _roots_reference(tau, eta, v1, c):
    """The root kernel as it was: signed_sqrt signs Re(mu) by b = 2*x*y, and
    np.abs then takes that sign off again."""
    x = tau.real / c
    y = (tau.imag + v1 * eta) / c
    a = x * x + (eta - y) * (eta + y)
    mu = np.asarray(vf.signed_sqrt(a, 2.0 * x * y))
    np.abs(mu.real, out=mu.real)
    np.copysign(mu.imag, y, out=mu.imag)
    near = np.abs(np.abs(y) - np.abs(eta)) <= ENDPOINT_ATOL * np.abs(eta)
    mu[(x == 0.0) & near] = 0.0
    return mu


def _case_reference(tau, eta, v1, c):
    """The branch-case code the root kernel once returned with each root:
    0 for Re(tau) > 0, and on Re(tau) = 0 2 within ENDPOINT_ATOL*|eta| of a
    locus, else 1 for the real branch (a > 0) and 4 or 3 for the imaginary
    one with y > 0 or y < 0."""
    x = tau.real / c
    y = (tau.imag + v1 * eta) / c
    a = x * x + (eta - y) * (eta + y)
    near = np.abs(np.abs(y) - np.abs(eta)) <= ENDPOINT_ATOL * np.abs(eta)
    return np.where(x != 0.0, 0, np.where(
        near, 2, np.where(a > 0.0, 1, np.where(y > 0.0, 4, 3))))


@pytest.mark.parametrize("gamma", [0.0, 1e-8, 1.0, 37.0])
def test_root_kernel_equals_the_signed_sqrt_composition(gamma):
    # One sqrt of a + i|2xy| signed by y is bitwise the former signed_sqrt
    # plus np.abs composition, on 64x64 grids with eta = 0 columns; the
    # deltas hit the loci delta = -(v1 +- c)*eta exactly, so gamma = 0
    # takes every boundary branch.  There the kind read off each root (zero,
    # Im = 0 real, else imaginary signed by Im) is the former case code.
    d, e = np.meshgrid(np.arange(-32, 32) * 0.25, np.arange(-32, 32) * 0.25,
                       indexing="ij")
    e[:, ::16] = 0.0
    tau = gamma + 1j * d
    for v1, c in ((2.0, 1.0), (-2.0, 1.0), (0.5, 1.0), (0.0, 1.5)):
        mu = mu_grid(tau, e, v1, c)
        want = _roots_reference(tau, e, v1, c)
        assert np.array_equal(mu.view(float), want.view(float))
        assert np.array_equal(np.signbit(mu.view(float)), np.signbit(want.view(float)))
        if gamma == 0.0:
            kind = np.where(mu == 0, 2, np.where(
                mu.imag == 0.0, 1, np.where(mu.imag > 0.0, 4, 3)))
            case = _case_reference(tau, e, v1, c)
            assert np.array_equal(kind, case)
            if v1 == 2.0:
                assert set(np.unique(case)) == {1, 2, 3, 4}
