import math
import tracemalloc

import numpy as np
import pytest

import vortexfront as vf
from vortexfront import FieldGrid, GridSpec, grids, quadrature
from vortexfront.quadrature import (exp_weighted_integral, exp_weighted_segment,
                                    extrapolate_origin, simpson_closed)
from vortexfront.solver import _rule
from vortexfront.symbol import mu_symbol_grid
from vortexfront.transforms import _depth_pass, _half_spectrum

from conftest import bump, fft2_halfspace_norm, mp_moments, smooth_field


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(12, 16, 32, 1.0, 1.0, 1.0)  # n_t not a power of two
    with pytest.raises(ValueError):
        GridSpec(16, 16, 8, 1.0, 1.0, 1.0)   # n_x2 too small
    with pytest.raises(ValueError):
        GridSpec(16, 16, 32, 1.0, 1.0, 1.0, gamma=0.5)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^gamma must be finite"):
            GridSpec(16, 16, 32, 1.0, 1.0, 1.0, gamma=gamma)
    with pytest.raises(TypeError):  # the Sobolev index belongs to each call
        GridSpec(16, 16, 32, 1.0, 1.0, 1.0, s=0.0)
    with pytest.raises(ValueError, match="^L_t must be finite"):
        GridSpec(16, 16, 32, math.inf, 1.0, 1.0)
    g = GridSpec(16, 8, 32, 2.0, 1.0, 4.0)
    assert g.dt == 0.125 and g.dx2 == 0.125
    assert g.x2_nodes[0] == g.dx2 and g.x2_nodes[-1] == g.L_x2


def test_fieldgrid_decay_invariant():
    grid = GridSpec(16, 8, 32, 1.0, 1.0, 2.0)
    ok = np.zeros((16, 8, 32))
    ok[:, :, 0] = 1.0
    FieldGrid(ok, np.zeros_like(ok), grid)  # decayed: last slab is zero
    bad = np.ones((16, 8, 32))
    with pytest.raises(ValueError, match="decayed"):
        FieldGrid(bad, np.zeros_like(bad), grid)


@pytest.mark.parametrize("side", ["f_plus", "f_minus"])
@pytest.mark.parametrize("index", [(0, 0, 0), (-1, -1, -1)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_fieldgrid_refuses_non_finite(side, index, value):
    # NaN reaches both of the check's reductions and +-inf one of them,
    # wherever it sits and on either side alone.
    field = smooth_field(n_t=16, n_x1=8, n_x2=24)
    sides = {"f_plus": field.f_plus.copy(), "f_minus": field.f_minus.copy()}
    sides[side][index] = value
    with pytest.raises(ValueError, match=f"^{side} contains non-finite values$"):
        FieldGrid(sides["f_plus"], sides["f_minus"], field.grid)


@pytest.mark.parametrize("make", ["smooth", "signed", "zeros", "negative_zeros"])
def test_fieldgrid_peak_is_max_abs_bitwise(make):
    # peak is max(|min|, |max|) per side, bitwise the max of |F|, and +0.0
    # (not -0.0) for a field that is all zeros of either sign.
    field = smooth_field()
    grid, shape = field.grid, field.f_plus.shape
    if make == "smooth":
        fp, fm = field.f_plus, field.f_minus
    elif make == "signed":
        rng = np.random.default_rng(19)
        fp, fm = rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(-8, 8, (2,) + shape)
        fp[..., -1] = fm[..., -1] = 0.0
    else:
        fp = fm = np.zeros(shape) if make == "zeros" else np.full(shape, -0.0)
    peak = FieldGrid(fp, fm, grid).peak
    expected = max(np.max(np.abs(fp)), np.max(np.abs(fm)))
    assert np.float64(peak).tobytes() == np.float64(expected).tobytes()
    if make in ("zeros", "negative_zeros"):
        assert peak == 0.0 and math.copysign(1.0, peak) == 1.0


def test_fieldgrid_check_allocates_nothing_field_sized():
    # The finiteness and peak check reduces each side in place; an np.abs
    # copy of one side would be half the field's bytes.
    field = smooth_field()
    nbytes = field.f_plus.nbytes + field.f_minus.nbytes
    tracemalloc.start()
    try:
        FieldGrid(field.f_plus, field.f_minus, field.grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.01 * nbytes


def test_vfgrid_round_trip(tmp_path):
    field = smooth_field(n_t=16, n_x1=8, n_x2=24)
    path = tmp_path / "f.vfgrid"
    vf.write_field(path, field)
    back = vf.read_field(path, gamma=1.0)
    assert back.grid == field.grid
    np.testing.assert_array_equal(back.f_plus, field.f_plus)
    np.testing.assert_array_equal(back.f_minus, field.f_minus)
    # byte-identical rewrite (determinism)
    path2 = tmp_path / "g.vfgrid"
    vf.write_field(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_vfgrid_bytes_match_per_value_formatting(monkeypatch, tmp_path):
    # The table writer gives the bytes of one f-string per value, signed
    # zero, subnormals, extremes and negatives included, across row chunks.
    monkeypatch.setattr(grids, "_WRITE_ROWS", 5)
    grid = GridSpec(2, 2, 16, 1.0, 0.3, 2.0)
    rng = np.random.default_rng(5)
    fp = rng.standard_normal((2, 2, 16)) * 10.0 ** rng.integers(-300, 300, (2, 2, 16))
    fp[..., -1] = 0.0
    fp[0, 0, :6] = [-0.0, 5e-324, -5e-324, 1e300, -1e300, -1.0 / 3.0]
    fm = -fp[::-1]
    fm[1, 1, -1] = -0.0
    path = tmp_path / "f.vfgrid"
    vf.write_field(path, FieldGrid(fp, fm, grid))
    lines = ["VFGRID 1 2 2 16 1 0.29999999999999999 2"]
    lines += [f"{a:.17g} {b:.17g}" for a, b in zip(fp.reshape(-1), fm.reshape(-1))]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_vfgrid_rejects_malformed(tmp_path):
    path = tmp_path / "bad.vfgrid"
    path.write_text("NOTAGRID 1 2 3 4 5 6 7\n")
    with pytest.raises(ValueError):
        vf.read_field(path)
    path.write_text("VFGRID 1 16 8 24 1.0 1.0 2.0\n0.0 0.0\n")
    with pytest.raises(ValueError):
        vf.read_field(path)


# ---------------------------------------------------------------------------
# weighted transforms

def test_weighted_forward_zero_and_cosine():
    grid = GridSpec(32, 16, 32, 2.0, 1.0, 2.0)
    zero = np.zeros((32, 16))
    assert np.all(vf.weighted_forward(zero, grid, 0.0) == 0.0)
    t = grid.t_nodes
    u = np.cos(2.0 * np.pi * t / grid.L_t)[:, None] * np.ones((1, 16))
    spec = vf.weighted_forward(u, grid, 0.0)
    mags = np.abs(spec)
    nz = np.argwhere(mags > 1e-10 * mags.max())
    assert sorted(map(tuple, nz)) == [(1, 0), (31, 0)]


def test_weighted_round_trip():
    rng = np.random.default_rng(41)
    grid = GridSpec(32, 16, 32, 2.0, 1.5, 2.0)
    u = rng.standard_normal((32, 16))
    for gamma in (0.0, 1.0, 3.0):
        back = vf.weighted_inverse(vf.weighted_forward(u, grid, gamma), grid, gamma)
        assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))


def _forward_reference(samples, grid, gamma):
    """weighted_forward as one out-of-place fft2 and a scaled copy."""
    w = np.exp(-gamma * grid.t_nodes).reshape((grid.n_t,) + (1,) * (samples.ndim - 1))
    return np.fft.fft2(samples * w, axes=(0, 1)) * (grid.dt * grid.dx1)


def _inverse_reference(spectrum, grid, gamma):
    """weighted_inverse as one out-of-place ifft2 and a complex product."""
    w = np.exp(gamma * grid.t_nodes).reshape((grid.n_t,) + (1,) * (spectrum.ndim - 1))
    return (np.fft.ifft2(spectrum / (grid.dt * grid.dx1), axes=(0, 1)) * w).real


def test_weighted_transforms_equal_the_fft2_expressions_bitwise(tmp_path):
    # The in-place one-axis FFTs run in fft2's axis order (x1, then t) on
    # the same products, so every byte matches; neither call writes to its
    # input.
    field = smooth_field(n_t=16, n_x1=8, n_x2=33)
    path = tmp_path / "field.vfgrid"
    vf.write_field(path, field)
    read = vf.read_field(path)
    assert not read.f_plus.flags.c_contiguous  # strided column views
    grid = field.grid
    for gamma in (1.0, 3.5):
        for samples in (field.f_plus, field.f_minus[:, :, 7], read.f_minus,
                        field.f_plus[:, :, :4] + 1j * field.f_minus[:, :, :4]):
            before = samples.tobytes()
            spec = vf.weighted_forward(samples, grid, gamma)
            assert spec.tobytes() == _forward_reference(samples, grid, gamma).tobytes()
            assert samples.tobytes() == before
            kept = spec.tobytes()
            back = vf.weighted_inverse(spec, grid, gamma)
            assert back.tobytes() == _inverse_reference(spec, grid, gamma).tobytes()
            assert spec.tobytes() == kept
        sides = (read.f_plus, read.f_minus)
        for got, side in zip(vf.spectral_slices(read, gamma), sides):
            assert got.tobytes() == _forward_reference(side, grid, gamma).tobytes()


def test_weighted_transforms_allocate_only_their_outputs():
    # fft2 out of place and then a scaled copy took spectral_slices to
    # 1.75x its two outputs, and weighted_inverse to 3x its input, whose
    # .real view kept a complex array twice its size alive.
    import tracemalloc
    field = smooth_field()

    def traced(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (sp, sm), peak = traced(vf.spectral_slices, field, 1.0)
    assert peak <= 1.05 * (sp.nbytes + sm.nbytes)
    back, peak = traced(vf.weighted_inverse, sp, field.grid, 1.0)
    assert peak <= 1.6 * sp.nbytes
    assert back.base is None and back.dtype == float and 2 * back.nbytes == sp.nbytes


@pytest.mark.parametrize("s", [0.0, 2.0])
def test_norms_refuse_an_overflowing_square(s):
    # Squares past the double range gave inf (sobolev_norm) or NaN
    # (halfspace_norm, through the origin extrapolation) with
    # RuntimeWarnings; now the result gate's ArithmeticError names gamma and s.
    field = smooth_field(n_t=16, n_x1=8, n_x2=33).scaled(1e200)
    spec = vf.weighted_forward(field.f_plus[:, :, 0], field.grid, 1.0)
    with pytest.raises(ArithmeticError, match=f"^the squared Sobolev norm at "
                       f"gamma = 1.0, s = {s!r} is not finite in double precision$"):
        vf.sobolev_norm(spec, s, 1.0, field.grid)
    with pytest.raises(ArithmeticError, match=f"^the squared half-space norm at "
                       f"gamma = 1.0, s = {s!r} is not finite in double precision$"):
        vf.halfspace_norm(field.f_plus, field.grid, s, 1.0)


def test_sobolev_norm_single_bin_and_plancherel():
    grid = GridSpec(16, 16, 32, 2.0, 1.0, 2.0)
    gamma = 2.0
    f_hat = np.zeros((16, 16), dtype=complex)
    amp = 3.0 - 1.0j
    f_hat[2, 5] = amp
    delta = grid.delta_axis[2]
    eta = grid.eta_axis[5]
    for s in (-1.0, 0.0, 1.5):
        lam2 = gamma ** 2 + delta ** 2 + eta ** 2
        expected = math.sqrt(lam2 ** s * abs(amp) ** 2 / (grid.L_t * grid.L_x1))
        assert vf.sobolev_norm(f_hat, s, gamma, grid) == pytest.approx(expected, rel=1e-13)
    assert vf.sobolev_norm(np.zeros((16, 16)), 1.0, gamma, grid) == 0.0
    # s = 0 equals the weighted time-domain L2 sum (Plancherel)
    rng = np.random.default_rng(43)
    u = rng.standard_normal((16, 16))
    spec = vf.weighted_forward(u, grid, gamma)
    n0 = vf.sobolev_norm(spec, 0.0, gamma, grid)
    w = np.exp(-gamma * grid.t_nodes)[:, None]
    direct = math.sqrt(np.sum((u * w) ** 2) * grid.dt * grid.dx1)
    assert n0 == pytest.approx(direct, rel=1e-12)


def test_sobolev_norm_monotone_in_s():
    grid = GridSpec(16, 16, 32, 2.0, 1.0, 2.0)
    rng = np.random.default_rng(47)
    f_hat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    norms = [vf.sobolev_norm(f_hat, s, 1.0, grid) for s in (-1.0, 0.0, 1.0, 2.0)]
    assert norms == sorted(norms)  # Lambda^2 >= gamma^2 = 1 on every bin


def test_halfspace_norm_separable_oracle():
    # F = g(t, x1) * exp(-y): squared norm integrates to ||g||^2 / 2
    grid = GridSpec(16, 8, 256, 2.0, 1.0, 16.0)
    rng = np.random.default_rng(53)
    gfun = rng.standard_normal((16, 8))
    y = grid.x2_nodes
    field = gfun[:, :, None] * np.exp(-y)[None, None, :]
    gamma, s = 1.5, 0.7
    spec = vf.weighted_forward(gfun, grid, gamma)
    slice_norm = vf.sobolev_norm(spec, s, gamma, grid)
    expected = slice_norm * math.sqrt(0.5)
    got = vf.halfspace_norm(field, grid, s, gamma)
    assert got == pytest.approx(expected, rel=1e-6)


def test_halfspace_norm_matches_full_transform():
    # The half spectrum with its column weights gives the full-transform
    # norm, Nyquist bins included; n_x1 = 2 has only the DC and Nyquist
    # columns, and an odd n_x2 runs the 3/8 tail of the x2 rule.
    rng = np.random.default_rng(61)
    for n_x1 in (2, 8):
        grid = GridSpec(16, n_x1, 21, 2.0, 1.0, 3.0)
        taper = bump(grid.x2_nodes / grid.L_x2)
        samples = rng.standard_normal((16, n_x1, 21)) * taper
        for s, gamma in ((0.0, 1.0), (0.0, 64.0), (1.0, 3.0), (0.7, 1.5)):
            want = fft2_halfspace_norm(samples, grid, s, gamma)
            got = vf.halfspace_norm(samples, grid, s, gamma)
            assert got == pytest.approx(want, rel=1e-13)
            # s = 0 sums the physical samples; a zero field is exactly zero.
            assert vf.halfspace_norm(0.0 * samples, grid, s, gamma) == 0.0
            with pytest.raises(ValueError):
                vf.halfspace_norm(samples[:, :1], grid, s, gamma)


@pytest.mark.parametrize("n_x1,n_x2", [(2, 17), (8, 24), (64, 45)])
def test_half_spectrum_matches_whole_stack_rfft(tmp_path, n_x1, n_x2):
    # The per-plane x1 rfft is bitwise the whole-stack one, for a C-ordered
    # stack and for read_field's strided column views alike.
    grid = GridSpec(16, n_x1, n_x2, 1.0, 1.0, 2.0)
    rng = np.random.default_rng(n_x1 + n_x2)
    stack = rng.standard_normal((16, n_x1, n_x2)) * bump(grid.x2_nodes / 2.0)
    path = tmp_path / "f.vfgrid"
    vf.write_field(path, FieldGrid(stack, -stack, grid))
    views = vf.read_field(path).f_minus
    assert not views.flags.c_contiguous
    for samples in (stack, views):
        want = np.fft.rfft(np.moveaxis(samples, 2, 0), axis=-1)
        got = _half_spectrum(samples, grid)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def materialized_slices(x1_hat, g, gamma):
    """The weighted, t-transformed half spectrum as one stack, x2 leading."""
    w = (np.exp(-gamma * g.t_nodes) * (g.dt * g.dx1))[:, None]
    return np.fft.fft(x1_hat * w, axis=1)


def test_depth_pass_in_place_matches_copying(monkeypatch):
    # The one-gamma solve runs the pass in place on x1_hat; the gamma sweep
    # reuses x1_hat, so a copying pass must leave it as it was.  Both give
    # the same bytes, and on one worker neither allocates more than a few
    # blocks (32 levels of 64x33 here, of 384 in the stack).
    import tracemalloc
    monkeypatch.setattr(vf.domain, "_workers", lambda: 1)
    field = smooth_field(n_t=64, n_x1=64, n_x2=384)
    grid, medium = field.grid, vf.Medium.symmetric(2.0, 1.0)
    reused = _half_spectrum(field.f_plus, grid)
    before, before_size = reused.tobytes(), reused.nbytes
    for gamma in (1.0, 3.5):
        tau = gamma + 1j * grid.delta_axis[:, None]
        mu = mu_symbol_grid(tau, grid.eta_axis[None, :], medium)[0][:, :33]
        last = _half_spectrum(field.f_plus, grid)
        got, peaks = [], []
        for spec, in_place in ((reused, False), (last, True)):
            tracemalloc.start()
            try:
                out = _depth_pass(spec, grid, gamma, _rule(grid, mu), 1.0,
                                  in_place=in_place)
                peaks.append(tracemalloc.get_traced_memory()[1] / before_size)
            finally:
                tracemalloc.stop()
            got.append([np.array(a).tobytes() for a in (*out[0], out[1])])
        assert got[0] == got[1]
        assert reused.tobytes() == before
        assert last.tobytes() != before
        assert peaks[1] < peaks[0] < 0.35


@pytest.mark.parametrize("n_x2", [16, 17, 33, 70, 97])
@pytest.mark.parametrize("block_entries", [4, 480, 1 << 16])
def test_depth_pass_matches_materialized_slices(monkeypatch, n_x2, block_entries):
    # Against the slice stack, weighted and t-transformed whole: I is
    # bitwise halfline_integral of the stack, |last level| bitwise its
    # modulus, and the norm the per-level sum of the stack, up to the
    # level sums' rounding (worst measured 2.1e-16).  Blocks of 2 levels
    # (block_entries 4), of 6 (480 over 16x5 planes: not a divisor of any
    # n_x2 here) and one block for the whole stack; gamma up to 1e4, where
    # the powers of s = exp(-2 mu h) underflow within the chains.
    monkeypatch.setattr(quadrature, "_LEVEL_BLOCK_ENTRIES", block_entries)
    grid, medium = GridSpec(16, 8, n_x2, 1.0, 1.0, 2.0), vf.Medium.symmetric(2.0, 1.0)
    rng = np.random.default_rng(n_x2)
    taper = bump(grid.x2_nodes / grid.L_x2)  # nonzero at t = 0, as gamma = 1e4 needs
    spectra = [_half_spectrum(rng.standard_normal((16, 8, n_x2)) * taper, grid)
               for _ in range(2)]
    for gamma, s in ((1.0, 0.0), (3.0, 1.0), (100.0, 0.5), (1e4, 1.0)):
        tau = gamma + 1j * grid.delta_axis[:, None]
        mus = [mu[:, :5] for mu in mu_symbol_grid(tau, grid.eta_axis[None, :],
                                                  medium)[:2]]
        if gamma == 1e4:  # the powers of s underflow along the chains
            assert np.all(np.exp(-grid.L_x2 * mus[0]) == 0.0)
        for spec, mu in zip(spectra, mus):
            (i_half, last), norm = _depth_pass(spec, grid, gamma,
                                               _rule(grid, mu), s)
            sl = materialized_slices(spec, grid, gamma)
            want = vf.halfline_integral(np.moveaxis(sl, 0, -1), mu, grid.dx2)
            assert i_half.tobytes() == want.tobytes()
            assert last.tobytes() == np.abs(sl[-1]).tobytes()
            weight = grid.lambda_sq(gamma)[:, :5] ** s
            weight[:, 1:4] *= 2.0
            per_level = (np.abs(sl) ** 2 * weight).sum(axis=(1, 2)) / (
                grid.L_t * grid.L_x1)
            full = np.concatenate(([extrapolate_origin(per_level)], per_level))
            want_norm = math.sqrt(simpson_closed(full, grid.dx2))
            assert norm == pytest.approx(want_norm, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# quadrature building blocks

def test_extrapolate_origin_polynomial_exact():
    h = 0.1
    y = np.arange(1, 8) * h
    for coeffs in ([1.0], [0.0, 2.0], [1, -1, 3, 0.5, 0.25]):  # degree <= 4
        vals = np.polyval(coeffs[::-1], y)
        got = extrapolate_origin(vals)
        assert got == pytest.approx(coeffs[0], abs=1e-12)


def test_simpson_closed_cubic_exact_and_odd():
    h = 0.125
    for n in (8, 9):
        y = np.arange(n + 1) * h
        vals = y ** 3 - 2 * y ** 2 + y - 0.5
        L = n * h
        exact = L ** 4 / 4 - 2 * L ** 3 / 3 + L ** 2 / 2 - 0.5 * L
        assert simpson_closed(vals, h) == pytest.approx(exact, rel=1e-13)


def test_simpson_closed_on_two_samples_is_the_trapezoid():
    assert simpson_closed(np.array([1.0, 4.0]), 0.25) == 0.625
    assert np.array_equal(simpson_closed(np.array([[1.0, 4.0], [2.0, -2.0]]), 0.5),
                          [1.25, 0.0])


def test_exp_weighted_integral_quadratic_exact():
    # the rule integrates exp(-mu y) * (quadratic) exactly, any mu
    import cmath
    h = 0.05
    n = 40
    y = np.arange(n + 1) * h
    L = n * h
    for mu in (0.5, 3.0 + 2.0j, 1e-7, 80.0):
        muc = complex(mu)
        e = cmath.exp(-muc * L)
        exact = ((1 - e) / muc
                 - 2.0 * (1 - e * (1 + muc * L)) / muc ** 2
                 + 0.25 * (2 - e * (2 + 2 * muc * L + (muc * L) ** 2)) / muc ** 3)
        vals = 1.0 - 2.0 * y + 0.25 * y * y
        got = complex(exp_weighted_integral(vals, h, np.asarray(muc)))
        if abs(muc) < 1e-4:
            # closed-form reference itself cancels badly for tiny mu
            plain = simpson_closed(vals * np.exp(-muc.real * y), h)
            assert abs(got - plain) <= 1e-10 * abs(plain)
        else:
            assert abs(got - exact) <= 5e-14 * abs(exact)


def test_exp_weighted_integral_order_four():
    import cmath
    errs = {}
    mu = 1.0 + 0.0j
    for n in (16, 32, 64, 128):
        h = 1.0 / n
        y = np.arange(n + 1) * h
        vals = np.exp(-y)
        exact = (1 - cmath.exp(-(mu + 1))) / (mu + 1)
        errs[n] = abs(complex(exp_weighted_integral(vals, h, np.asarray(mu))) - exact)
    orders = [math.log2(errs[a] / errs[b])
              for a, b in zip((16, 32, 64), (32, 64, 128))]
    assert min(orders) > 3.5


def test_exp_weighted_integral_node_axis():
    # The nodes on the last axis: a strided view of a node-first stack
    # equals its contiguous copy and the per-entry 1-D calls, for even and
    # odd interval counts; halfline_integral likewise.
    rng = np.random.default_rng(67)
    h = 0.1
    mu = rng.uniform(0.2, 4.0, (3, 4)) + 1j * rng.uniform(-3.0, 3.0, (3, 4))
    for n in (8, 9):
        vals = rng.standard_normal((n + 1, 3, 4)) + 1j * rng.standard_normal((n + 1, 3, 4))
        first = exp_weighted_integral(np.ascontiguousarray(np.moveaxis(vals, 0, -1)), h, mu)
        last = exp_weighted_integral(np.moveaxis(vals, 0, -1), h, mu)
        scale = np.max(np.abs(last))
        assert np.max(np.abs(first - last)) <= 1e-15 * scale
        for i, j in np.ndindex(3, 4):
            one = complex(exp_weighted_integral(vals[:, i, j], h, mu[i, j]))
            assert abs(one - last[i, j]) <= 1e-15 * scale


@pytest.mark.parametrize("block_entries", [12, 36, 4096])
def test_halfline_integral_blocks_match_per_entry(monkeypatch, block_entries):
    # The origin enters the first pair instead of being prepended; the
    # nodes on the last axis, contiguous and as a strided view of a
    # node-first stack, equal per-entry calls on the prepended samples.  The
    # series moments run in blocks of one entry (12 and 36) and of all
    # entries of a plane (4096).  The same numbers of entries per level
    # block cut the 3x4 stacks into blocks of 2 and 4 levels and one block,
    # and the 1-D calls into blocks of 12 and 36 levels and one block.
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", block_entries)
    monkeypatch.setattr(quadrature, "_LEVEL_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(71)
    h = 0.1
    mu = rng.uniform(0.2, 4.0, (3, 4)) + 1j * rng.uniform(-3.0, 3.0, (3, 4))
    for n in (5, 6, 7, 8, 31, 32, 33, 192, 193):
        vals = rng.standard_normal((n, 3, 4)) + 1j * rng.standard_normal((n, 3, 4))
        first = vf.halfline_integral(np.ascontiguousarray(np.moveaxis(vals, 0, -1)), mu, h)
        last = vf.halfline_integral(np.moveaxis(vals, 0, -1), mu, h)
        want = np.empty((3, 4), dtype=complex)
        for i, j in np.ndindex(3, 4):
            full = np.concatenate(([extrapolate_origin(vals[:, i, j])], vals[:, i, j]))
            want[i, j] = complex(exp_weighted_integral(full, h, mu[i, j]))
        scale = np.max(np.abs(want))
        assert np.max(np.abs(first - want)) <= 1e-15 * scale
        assert np.max(np.abs(last - want)) <= 1e-15 * scale


def test_halfline_integral_does_not_copy_the_stack():
    import tracemalloc
    rng = np.random.default_rng(73)
    stack = rng.standard_normal((192, 64, 33)) + 1j * rng.standard_normal((192, 64, 33))
    mu = rng.uniform(0.2, 4.0, (64, 33)) + 1j * rng.uniform(-3.0, 3.0, (64, 33))
    tracemalloc.start()
    try:
        vf.halfline_integral(np.moveaxis(stack, 0, -1), mu, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * stack.nbytes


def test_moments_match_mpmath_across_the_series_cutoff():
    # The tabled series below _SERIES_CUTOFF and the closed form above it:
    # 1e-14 relative over |z| = 1e-8 .. 60 on one plane that mixes both
    # branches (and spans two series blocks), and each branch within 1e-15
    # just either side of the cutoff, all round the circle, Re z < 0 (arg
    # 2.8) included.
    import mpmath as mp
    span = 0.3
    args = np.array([0.0, 0.7, -1.2, 1.5, 2.8])
    plane = np.geomspace(1e-8, 60.0, 61)[:, None] * np.exp(1j * args)
    cut = quadrature._SERIES_CUTOFF
    edge = (np.array([cut * (1 - 1e-12), cut * (1 + 1e-12)])[:, None]
            * np.exp(1j * np.linspace(-np.pi, np.pi, 48, endpoint=False)))
    for z, rtol in ((plane, 1e-14), (edge, 1e-15)):
        got = np.stack(quadrature._moments(z, span), axis=-1)
        for idx in np.ndindex(z.shape):
            with mp.workdps(50):
                want = np.array([complex(m) for m in mp_moments(z[idx], span)])
            assert np.all(np.abs(got[idx] - want) <= rtol * np.abs(want)), z[idx]
            one = np.array(quadrature._moments(np.asarray(z[idx]), span))
            assert np.all(np.abs(one - want) <= rtol * np.abs(want)), z[idx]


@pytest.mark.parametrize("shape", [(), (4,)])
@pytest.mark.parametrize("radii", [(0.01, 0.3, 0.7, 0.99), (1.01, 2.0, 9.0, 40.0)])
def test_moments_one_sided_match_a_mixed_call(shape, radii):
    # z wholly below (or above) the cutoff is evaluated without masks; its
    # moments are bitwise those of the same entries of a mixed call whose
    # subset on that side has the same size
    cut, span = quadrature._SERIES_CUTOFF, 0.3
    z = cut * np.array(radii) * np.exp(1j * np.array([0.0, 0.7, -2.8, 1.5]))
    z = z[:int(np.prod(shape))]
    far = cut / np.array(radii[:2]) * np.exp(1j * np.array([0.4, -1.0]))  # other side
    mixed = np.insert(z, [0, len(z)], far)
    one = quadrature._moments(z.reshape(shape), span)
    both = quadrature._moments(mixed, span)
    for m_one, m_both in zip(one, both):
        assert np.asarray(m_one).tobytes() == m_both[1:-1].tobytes()


def test_moments_do_not_depend_on_the_call_size():
    # The series sums are an einsum C loop over each block of entries: an
    # entry's moments are bitwise the same alone and inside calls of any
    # size (a one-row BLAS product rounded unlike the same row of a larger
    # one).  195 entries make one series block.
    rng = np.random.default_rng(45)
    span = 0.3
    z = (quadrature._SERIES_CUTOFF * rng.uniform(0.0, 1.0, 1000)
         * np.exp(1j * rng.uniform(-np.pi, np.pi, 1000)))
    whole = np.array(quadrature._moments(z, span))
    for n in (1, 2, 7, 195, 196, 1000):
        for lo in sorted({0, 190, 1000 - n}):
            part = np.array(quadrature._moments(z[lo:lo + n], span))
            assert part.tobytes() == whole[:, lo:lo + n].tobytes(), (n, lo)


def test_moments_where_mu_cubed_overflows():
    # Past |mu| = 5.6e102 mu^3 overflows; m2 is taken by parts from m1, so
    # none is formed.  Where the moment underflows (gamma = 1e110 in a
    # pressure profile) it is 0, and at |mu| = 1e153, where a quotient by
    # mu^3 would be NaN, it is finite; no RuntimeWarning (an error in this
    # suite), and m0, m1 match mpmath.
    span = 0.01
    mu = np.array([1e110 + 18.8j, 1e110 - 6.3j, 2e102 + 1e102j, 1e153 + 18.8j])
    got = np.array(quadrature._moments(mu * span, span))
    assert np.isfinite(got).all()
    for j, m in enumerate(mu):
        want = np.array([complex(v) for v in mp_moments(m * span, span)])
        assert np.all(np.abs(got[:2, j] - want[:2]) <= 1e-15 * np.abs(want[:2])), m
        if j < 3:
            assert abs(got[2, j] - want[2]) <= 1e-15 * abs(want[2]), m
    assert np.all(got[2, :2] == 0.0)


def _interpolant_integral(f, h, mu):
    """integral of exp(-mu*y) times the piecewise quadratic of exp_weighted_integral
    (Simpson pairs, the last odd interval from the last three nodes), in mpmath."""
    import mpmath as mp
    n = len(f) - 1
    with mp.workdps(40):
        mu = mp.mpc(mu)

        def piece(k, part):  # quadratic through nodes k..k+2 over [k + part, k + 2]*h
            f0, f1, f2 = (mp.mpc(x) for x in f[k:k + 3])
            coef = (f0, (-3 * f0 + 4 * f1 - f2) / (2 * h),
                    (f0 - 2 * f1 + f2) / (2 * h * h))
            m = mp_moments(2 * h * mu, 2 * h)
            if part:
                m = [a - b for a, b in zip(m, mp_moments(h * mu, h))]
            return mp.exp(-mu * k * h) * sum(c * mj for c, mj in zip(coef, m))

        total = sum(piece(k, 0) for k in range(0, n - 1, 2))
        if n % 2:
            total += piece(n - 2, 1)
        return complex(total)


@pytest.mark.parametrize("block_entries", [3, 4096])
def test_exp_weighted_integral_where_the_chain_underflows(monkeypatch, block_entries):
    # At |mu*h| = 10..60, s^k = exp(-2k*mu*h) underflows within a few pairs
    # of the in-place chains.  The nodes on the last axis, contiguous and
    # as a strided view of a node-first array, even and odd
    # interval counts, against the same interpolant integrated in mpmath;
    # no RuntimeWarning.  The block size steers only the series moments,
    # which these |mu*h| do not reach: both sizes take the same path.
    import warnings
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(79)
    h = 0.05
    mu = np.array([10.0 * np.exp(0.3j), 40.0 * np.exp(-0.5j), 60.0]) / h
    for n in (40, 41):
        vals = rng.standard_normal((n + 1, 3)) + 1j * rng.standard_normal((n + 1, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            whole = (exp_weighted_integral(np.ascontiguousarray(vals.T), h, mu),
                     exp_weighted_integral(vals.T, h, mu))
            half = (vf.halfline_integral(np.ascontiguousarray(vals[1:].T), mu, h),
                    vf.halfline_integral(vals[1:].T, mu, h))
        for i in range(3):
            full = np.concatenate(([extrapolate_origin(vals[1:, i])], vals[1:, i]))
            for got, f in ((whole, vals[:, i]), (half, full)):
                want = _interpolant_integral(f, h, mu[i])
                for g in got:
                    assert abs(g[i] - want) <= 1e-14 * abs(want)


def test_exp_weighted_segment_pair_tail():
    # pair: the quadratic over [0, 2h]; tail: over [h, 2h] without its
    # factor exp(-mu*h), i.e. integral_0^h exp(-mu*r) q(h + r) dr
    import mpmath as mp
    h = 0.2
    mu = 1.3 - 0.4j
    f = lambda u: 2.0 + u - 0.5 * u * u
    samples = (f(0.0), f(h), f(2 * h))
    pair, tail = exp_weighted_segment(samples, h, mu)
    pair, tail = complex(pair[0]), complex(tail)
    ref_pair = complex(mp.quad(lambda u: mp.e ** (-mp.mpc(mu) * u) * f(u), [0, 2 * h]))
    ref_tail = complex(mp.quad(lambda r: mp.e ** (-mp.mpc(mu) * r) * f(h + r), [0, h]))
    assert abs(pair - ref_pair) <= 1e-13 * abs(ref_pair)
    assert abs(tail - ref_tail) <= 1e-13 * abs(ref_tail)


def test_exp_weighted_segment_pair_weights_are_the_half_line_weights():
    # The pair takes the [0, h] moments at 2*mu*h times 2^(j+1), which is
    # exact: on the Lagrange basis its weights are bitwise those that
    # exp_weighted_integral applies, on both sides of the series cutoff.
    for h in (2.0 / 192, 1.0 / 12, 0.05):
        mu = np.geomspace(1e-3, 1e3, 60) * np.exp(1j * np.linspace(-1.5, 1.5, 60)) / h
        (pair,), _ = exp_weighted_segment(np.eye(3)[:, :, None], h, mu)
        want = quadrature._quadratic_weights(
            *quadrature._moments(mu * (2.0 * h), 2.0 * h), h)
        assert np.array_equal(pair, np.array(want))


def test_exp_weighted_segment_tail_without_cancellation():
    # The tail of 1 is (1 - exp(-mu*h))/mu; its moments are shifted [0, h]
    # moments, so no digits cancel and nothing overflows at large mu*h.
    import cmath
    h = 0.5
    for muh in (1e-3, 0.3, 1.0, 10.0, 20.0, 30.0, 1e3):
        for arg in (0.0, 0.7, -1.2):
            mu = muh / h * cmath.exp(1j * arg)
            got = complex(exp_weighted_segment(np.ones(3), h, mu)[1])
            want = (1.0 - cmath.exp(-mu * h)) / mu
            assert abs(got - want) <= 1e-13 * abs(want)


def test_bump_is_supported_and_smooth():
    u = np.linspace(-2, 2, 101)
    b = bump(u)
    assert np.all(b[np.abs(u) >= 1.0] == 0.0)
    assert b[50] == pytest.approx(1.0)
