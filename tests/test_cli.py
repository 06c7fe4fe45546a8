import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vortexfront as vf
from vortexfront.cli import main
from vortexfront.solver import _bin_system, _front_hat
from vortexfront.symbol import mu_symbol_grid

from conftest import smooth_field


@pytest.fixture(scope="module")
def field_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "field.vfgrid"
    vf.write_field(path, smooth_field(n_t=16, n_x1=8, n_x2=24))
    return str(path)


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """json.loads that raises on Infinity and NaN, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_classify_weakly_stable(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["classify", "--v", "2", "--c", "1",
                                "--out", str(out_path)])
    assert code == 0
    assert "stability_class: weakly_stable" in out
    assert "mach_class: supersonic" in out
    assert "Y2: 0.936426384924" in out          # 12 significant digits
    payload = strict_json(out_path.read_text())
    assert payload["Y1"] is None
    assert payload["Y2"] == pytest.approx(0.936426, abs=5e-7)


def test_classify_elliptic(capsys):
    code, out, _ = run(capsys, ["classify", "--v", "1", "--c", "1"])
    assert code == 0
    assert "stability_class: elliptic_unstable" in out
    assert "Y1: 0.485868271757" in out


def test_classify_invalid_params(capsys):
    code, _, err = run(capsys, ["classify", "--v", "0", "--c", "1"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("v, c", [("2e154", "1"), ("1e308", "1e-308")])
def test_commands_refuse_an_overflowing_mach_ratio(capsys, tmp_path,
                                                   field_file, v, c):
    # 4*(v/c)^2 + 1 overflows: classify reported Y0 inf (and "sonic" for the
    # second medium) with exit 0.  Every command that classifies exits 2
    # naming v and c, and writes nothing.
    out = tmp_path / "out"
    for args in (["classify", "--out", str(out)], ["roots", "--eta", "1"],
                 ["probe", "--eta", "1", "--gammas", "1,2"],
                 ["solve", "--in", field_file, "--out", str(out)],
                 ["verify", "--in", field_file, "--out", str(out)]):
        code, stdout, err = run(capsys, args + ["--v", v, "--c", c])
        assert (code, stdout) == (2, ""), args
        assert err == ("error: 4*(v/c)^2 + 1 in the dispersion relation at "
                       f"v = {float(v)!r}, c = {float(c)!r} is not finite in "
                       "double precision\n")
    assert not out.exists()
    code, stdout, _ = run(capsys, ["classify", "--v", "1e150", "--c", "1"])
    assert code == 0 and "stability_class: weakly_stable" in stdout


def test_grid_single_point_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["grid", "--v", "2", "--c", "1", "--window",
            "0:1:2,-1:1:3,0.5:1:2"]
    code, _, _ = run(capsys, args + ["--out", str(a)])
    assert code == 0
    run(capsys, args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()     # byte-identical reruns
    assert run(capsys, args)[1] == a.read_text()  # stdout: the file's text
    lines = a.read_text().splitlines()
    assert lines[0] == ("gamma,delta,eta,re_sigma,im_sigma,abs_sigma,"
                        "re_mu_plus,im_mu_plus,re_mu_minus,im_mu_minus")
    assert len(lines) == 1 + 2 * 3 * 2          # product of the counts
    # one-point window at (1, 0, 0): Sigma = tau^2 = 1
    code, out, _ = run(capsys, ["grid", "--v", "2", "--c", "1",
                                "--window", "1:1:1,0:0:1,0:0:1"])
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[5]) == 1.0                 # abs_sigma
    # row order: gamma outer, delta middle, eta inner
    vals = [line.split(",")[:3] for line in lines[1:]]
    gammas = [float(v[0]) for v in vals]
    assert gammas == sorted(gammas)


def test_grid_rejects_origin(capsys):
    code, _, err = run(capsys, ["grid", "--v", "2", "--c", "1",
                                "--window", "0:0:1,0:0:1,0:0:1"])
    assert code == 2
    assert "origin" in err


@pytest.mark.parametrize("window", ["1e200:1e200:1,0:0:1,1:1:1",
                                    "0:1:2,1e155:1e155:1,1:1:1",
                                    "0:1e200:2,0:0:1,1:1:1"])
def test_grid_refuses_overflow(capsys, tmp_path, window):
    # An overflowing window exits 2 before it writes, with no RuntimeWarning
    # (an error in this suite); it used to write nan and inf rows with exit 0.
    # In the last window only the second plane overflows: the first, finite
    # plane is not written either.
    out_path = tmp_path / "grid.csv"
    args = ["grid", "--v", "2", "--c", "1", "--window", window]
    code, out, err = run(capsys, args + ["--out", str(out_path)])
    assert (code, out) == (2, "") and "not finite" in err
    assert not out_path.exists()
    assert run(capsys, args)[:2] == (2, "")


@pytest.mark.parametrize("window,bad", [
    ("inf:inf:1,0:0:1,1:1:1", "inf:inf:1"), ("0:1:2,nan:0:1,1:1:1", "nan:0:1"),
    ("-1e308:1e308:3,0:0:1,1:1:1", "-1e308:1e308:3")])
def test_grid_refuses_a_window_it_cannot_sample(capsys, tmp_path, window, bad):
    # A range whose hi - lo is not finite has no linspace: exit 2 naming its
    # ends, where the first two once blamed the symbol and the last one
    # warned (a RuntimeWarning is an error in this suite).
    out_path = tmp_path / "grid.csv"
    code, out, err = run(capsys, ["grid", "--v", "2", "--c", "1",
                                  f"--window={window}", "--out", str(out_path)])
    assert (code, out) == (2, "")
    lo, hi, _ = (float(x) for x in bad.split(":"))
    assert err == (f"error: the span max - min of a range at min = {lo!r}, "
                   f"max = {hi!r} is not finite in double precision\n")
    assert not out_path.exists()


def test_installed_entry_refuses_an_infinite_window_under_warnings_as_errors():
    # The warning filter of this suite acts only in-process: a child run
    # with -W error::RuntimeWarning once exited 1 with a traceback.
    env = dict(os.environ, PYTHONPATH=str(Path(vf.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "vortexfront.cli",
         "grid", "--v", "2", "--c", "1", "--window", "inf:inf:1,0:0:1,1:1:1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the span max - min of a range at min = inf, "
                           "max = inf is not finite in double precision\n")


@pytest.mark.parametrize("v", ["2", "1"])
def test_roots_refuses_overflow(capsys, tmp_path, v):
    # |Sigma| at the roots overflows at eta = 1e300 in both regimes: exit 2,
    # nothing printed or written (it used to print NaN with exit 0).
    out_path = tmp_path / "roots.json"
    code, out, err = run(capsys, ["roots", "--v", v, "--c", "1", "--eta",
                                  "1e300", "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err == (f"error: the roots and symbol at eta = 1e+300, v = {float(v)!r}, "
                   "c = 1.0 is not finite in double precision\n")
    assert not out_path.exists()


def test_roots_output(capsys, tmp_path):
    path = tmp_path / "roots.json"
    code, out, _ = run(capsys, ["roots", "--v", "2", "--c", "1", "--eta", "1",
                                "--out", str(path)])
    assert code == 0
    assert path.read_text() == out              # --out writes what it prints
    payload = strict_json(out)
    assert payload["regime"] == "weakly_stable"
    assert payload["roots_im"] == pytest.approx([0.936426384924271,
                                                 -0.936426384924271], abs=1e-12)
    assert max(payload["abs_sigma_at_roots"]) <= 1e-10
    code, out, _ = run(capsys, ["roots", "--v", "1", "--c", "1", "--eta", "-3"])
    payload = strict_json(out)
    assert payload["roots_re"] == pytest.approx([3 * 0.485868271756646], rel=1e-12)
    code, _, _ = run(capsys, ["roots", "--v", str(math.sqrt(2)), "--c", "1",
                              "--eta", "1"])
    assert code == 3                            # degenerate transition regime


def test_solve_outputs(capsys, tmp_path, field_file):
    outdir = tmp_path / "sol"
    code, out, _ = run(capsys, ["solve", "--v", "2", "--c", "1",
                                "--in", field_file, "--gamma", "1",
                                "--s", "0", "--out", str(outdir)])
    assert code == 0
    front = (outdir / "front.csv").read_text().splitlines()
    assert front[0] == "t,x1,f"
    assert len(front) == 1 + 16 * 8
    norms = strict_json((outdir / "norms.json").read_text())
    assert set(norms) == {"gamma", "s", "norms", "r"}
    assert set(norms["norms"]) == {"0", "1"}
    assert all(math.isfinite(v) and v > 0 for v in norms["norms"].values())
    assert norms["r"] > 0 and math.isfinite(norms["r"])
    # idempotent: second run produces identical bytes
    first = (outdir / "front.csv").read_bytes()
    run(capsys, ["solve", "--v", "2", "--c", "1", "--in", field_file,
                 "--gamma", "1", "--s", "0", "--out", str(outdir)])
    assert (outdir / "front.csv").read_bytes() == first


def test_solve_zero_field(capsys, tmp_path):
    grid = vf.GridSpec(16, 8, 24, 1.0, 1.0, 2.0)
    zero = vf.FieldGrid(np.zeros((16, 8, 24)), np.zeros((16, 8, 24)), grid)
    path = tmp_path / "zero.vfgrid"
    vf.write_field(path, zero)
    outdir = tmp_path / "out"
    code, _, _ = run(capsys, ["solve", "--v", "2", "--c", "1", "--in",
                              str(path), "--out", str(outdir)])
    assert code == 0
    rows = (outdir / "front.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[2]) == 0.0 for r in rows)
    assert strict_json((outdir / "norms.json").read_text())["r"] is None
    code, _, err = run(capsys, ["verify", "--v", "2", "--c", "1", "--in",
                                str(path)])
    assert code == 2 and "zero field" in err


@pytest.mark.parametrize("exponent", [540, -540])
def test_solve_and_verify_refuse_a_forcing_whose_squares_leave_the_range(
        capsys, tmp_path, exponent):
    # Scaled by 2^+-540, solve wrote norms Infinity (not JSON) or 0 and
    # verify r NaN or 0, or blamed gamma's weight, with exit 0.  Exit 2
    # naming the magnitude, no RuntimeWarning, nothing written.
    field_path = tmp_path / "field.vfgrid"
    vf.write_field(field_path, smooth_field(n_t=16, n_x1=16, n_x2=32).scaled(
        2.0 ** exponent))
    outdir, sweep = tmp_path / "sol", tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in (["solve", "--s", "1", "--out", str(outdir)],
                     ["verify", "--gammas", "1,2", "--s", "1", "--out", str(sweep)]):
            code, out, err = run(capsys, args + ["--v", "2", "--c", "1",
                                                 "--in", str(field_path)])
            assert (code, out) == (2, ""), args
            assert "error: the forcing's magnitude max|F| = " in err
    assert not outdir.exists() and not sweep.exists()


def test_solve_and_verify_refuse_a_norm_that_overflows(capsys, tmp_path):
    # max|F| = 1.4e60 is inside the magnitude range, but at s = 60 the
    # weighted squares overflow: solve wrote the norms as Infinity (not
    # JSON) and verify r and r' as NaN, with exit 0 and RuntimeWarnings.
    # Exit 2 naming gamma and s, nothing written; s = 20 still answers.
    field_path = tmp_path / "field.vfgrid"
    vf.write_field(field_path, smooth_field(n_t=16, n_x1=16, n_x2=32).scaled(
        2.0 ** 200))
    medium = ["--v", "2", "--c", "1", "--in", str(field_path)]
    outdir, sweep = tmp_path / "sol", tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm, args in (
                ("Sobolev", ["solve", "--s", "60", "--out", str(outdir)]),
                ("half-space", ["verify", "--gammas", "1,2", "--s", "60",
                                "--out", str(sweep)])):
            code, out, err = run(capsys, args + medium)
            for path in outdir.glob("*.json"):  # "60": Infinity, once
                strict_json(path.read_text())
            assert (code, out) == (2, ""), args
            assert err == (f"error: the squared {norm} norm at gamma = 1.0, "
                           "s = 60.0 is not finite in double precision\n")
        assert not outdir.exists() and not sweep.exists()
        code, out, _ = run(capsys, ["solve", "--s", "20", "--out", str(outdir),
                                    *medium])
    assert code == 0 and "r(gamma): 6.16130963115e-07\n" in out
    norms = strict_json((outdir / "norms.json").read_text())["norms"]
    sol = vf.solve_front(vf.read_field(field_path), vf.Medium(2.0, 1.0), s=20.0)
    grid = sol.grid
    for s in (0.0, 20.0, 21.0):  # the norm's formula, bit for bit
        ref = np.sqrt((grid.lambda_sq(1.0) ** s * np.abs(sol.f_hat) ** 2).sum()
                      / (grid.L_t * grid.L_x1))
        assert norms[format(s, "g")] == float(ref)


def test_solve_regime_refusal_and_io_error(capsys, tmp_path, field_file):
    code, _, err = run(capsys, ["solve", "--v", "1", "--c", "1",
                                "--in", field_file, "--out", str(tmp_path / "x")])
    assert code == 3
    assert "elliptic_unstable" in err
    code, _, _ = run(capsys, ["solve", "--v", "2", "--c", "1",
                              "--in", str(tmp_path / "missing.vfgrid"),
                              "--out", str(tmp_path / "y")])
    assert code == 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_refuses_overflowing_front(capsys, tmp_path, field_file):
    # exp(gamma*t) overflows once gamma*L_t > ~709: exit 2, no file written
    outdir = tmp_path / "big"
    code, _, err = run(capsys, ["solve", "--v", "2", "--c", "1",
                                "--in", field_file, "--gamma", "800",
                                "--out", str(outdir)])
    L_t = vf.read_field(field_file).grid.L_t
    assert (code, err) == (2, f"error: the front exp(gamma*t)*u at gamma = 800.0, "
                              f"L_t = {L_t!r}, v = 2.0, c = 1.0 is not finite in "
                              "double precision\n")
    assert not outdir.exists()


def test_verify_table(capsys, tmp_path, field_file):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, ["verify", "--v", "2", "--c", "1",
                                "--in", field_file, "--gammas", "1,2,4",
                                "--s", "0", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "gamma,r,r_prime,g1_ratio,pointwise_min,pointwise_ok"
    assert len(lines) == 4
    assert all(line.endswith(",1") for line in lines[1:])  # pointwise holds
    assert "c_pointwise" in out and "rhs_constant" in out


def test_probe_output_and_refusal(capsys):
    root = 0.485868271756646
    gammas = ",".join(str(root + o) for o in (1e-1, 1e-2, 1e-3))
    code, out, _ = run(capsys, ["probe", "--v", "1", "--c", "1",
                                "--eta", "1", "--gammas", gammas])
    assert code == 0
    exp_line = [l for l in out.splitlines() if l.startswith("fitted_exponent")]
    assert abs(float(exp_line[0].split(":")[1]) + 1.0) <= 0.05
    code, _, _ = run(capsys, ["probe", "--v", "2", "--c", "1",
                              "--eta", "1", "--gammas", "1.0"])
    assert code == 3


@pytest.mark.parametrize("flag,value,name", [
    ("--eta", "nan", "eta0"), ("--gammas", "nan,1", "gamma"),
    ("--eta", "inf", "eta0"), ("--eta", "1e300", "eta0")])
def test_probe_refuses_what_it_cannot_answer(capsys, tmp_path, flag, value, name):
    # A non-finite --eta or gamma would give NaN rows, and an |Sigma| that
    # overflows rows of 0.  Exit 2 naming the input, no RuntimeWarning,
    # nothing written.
    args = {"--eta": "1", "--gammas": "0.6,0.5", flag: value}
    out = tmp_path / "probe.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, err = run(capsys, ["probe", "--v", "1", "--c", "1", *(
            x for item in args.items() for x in item), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and name in err
    assert not out.exists()


def test_reconstruct_profile_csv(capsys, tmp_path, field_file):
    out_path = tmp_path / "profile.csv"
    code, out, _ = run(capsys, ["reconstruct", "--v", "2", "--c", "1",
                                "--in", field_file, "--gamma", "1",
                                "--delta", "6.3", "--eta", "6.3",
                                "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x2,re_p_plus,im_p_plus,re_p_minus,im_p_minus"
    assert len(lines) == 1 + 24 + 1             # nodes include x2 = 0
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # continuity of P at the interface: both sides share P(0)
    assert float(first[1]) == pytest.approx(float(first[3]), rel=1e-12)


@pytest.mark.parametrize("delta,eta", [(6.3, 6.3), (-12.6, -18.8), (0.0, 0.0)])
def test_reconstruct_matches_full_slices(capsys, tmp_path, field_file,
                                         delta, eta):
    # The command reads the bin by a direct weighted DFT; the reference
    # takes it from the full complex spectral_slices stacks.
    out_path = tmp_path / "profile.csv"
    code, _, _ = run(capsys, ["reconstruct", "--v", "2", "--c", "1",
                              "--in", field_file, "--gamma", "1",
                              "--delta", str(delta), "--eta", str(eta),
                              "--out", str(out_path)])
    assert code == 0
    got = np.loadtxt(out_path, delimiter=",", skiprows=1)
    field = vf.read_field(field_file)
    grid, medium = field.grid, vf.Medium.symmetric(2.0, 1.0)
    it = int(np.argmin(np.abs(grid.delta_axis - delta)))
    ix = int(np.argmin(np.abs(grid.eta_axis - eta)))
    freq = vf.Frequency(1.0, float(grid.delta_axis[it]), float(grid.eta_axis[ix]))
    sol = vf.solve_front(field, medium)
    state = vf.solve_boundary_system(freq, medium, complex(sol.f_hat[it, ix]),
                                     complex(sol.system.i_plus[it, ix]),
                                     complex(sol.system.i_minus[it, ix]))
    sp, sm = vf.spectral_slices(field, 1.0)
    prof = vf.reconstruct_profile(freq, medium, state, sp[it, ix], sm[it, ix],
                                  grid.dx2)
    want = np.column_stack((prof.x2_nodes, prof.p_plus.real, prof.p_plus.imag,
                            prof.p_minus.real, prof.p_minus.imag))
    assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), axis=0))


@pytest.mark.parametrize("delta,eta", [(0.0, -25.0), (-50.0, 6.3)])
def test_reconstruct_refuses_nyquist_bins(capsys, tmp_path, field_file,
                                          delta, eta):
    # The row n_t//2 and the column n_x1//2 are unpaired: the solver zeroes
    # them, so no decaying profile exists there.
    out_path = tmp_path / "profile.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run(capsys, ["reconstruct", "--v", "2", "--c", "1",
                                    "--in", field_file, "--gamma", "1",
                                    "--delta", str(delta), "--eta", str(eta),
                                    "--out", str(out_path)])
    assert code == 2
    assert "Nyquist bin" in err
    assert not out_path.exists()


def test_reconstruct_regime_refusal(capsys, tmp_path, field_file):
    out_path = tmp_path / "profile.csv"
    code, _, err = run(capsys, ["reconstruct", "--v", "1", "--c", "1",
                                "--in", field_file, "--delta", "6.3",
                                "--eta", "6.3", "--out", str(out_path)])
    assert code == 3
    assert "elliptic_unstable" in err
    assert not out_path.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reconstruct_large_gamma(capsys, tmp_path, field_file):
    # One bin and no physical front: nothing overflows at gamma*L_t > 709.
    out_path = tmp_path / "profile.csv"
    code, _, _ = run(capsys, ["reconstruct", "--v", "2", "--c", "1",
                              "--in", field_file, "--gamma", "800",
                              "--delta", "6.3", "--eta", "6.3",
                              "--out", str(out_path)])
    assert code == 0
    got = np.loadtxt(out_path, delimiter=",", skiprows=1)
    assert got.shape == (24 + 1, 5) and np.all(np.isfinite(got))


@pytest.mark.parametrize("gamma", [1e5, 1e6, 1e110])
def test_reconstruct_where_exp_mu_h_overflows(capsys, tmp_path, gamma):
    # Re(mu)*dx2 is far above 709, so exp(+mu*h) would overflow; the profile
    # weights never form it.  A dense field keeps the t = 0 samples, all that
    # exp(-gamma*t) leaves: the profile is finite and nonzero, the decay rows
    # of both sides hold to 1e-10 (criterion 9), and no mode grows.  At
    # 1e110, mu^3 overflows in a moment that itself underflows to 0: no
    # RuntimeWarning either, from the command or from the library call
    # (under the suite's error::RuntimeWarning filter).
    grid = vf.GridSpec(16, 8, 24, 1.0, 1.0, 2.0)
    plane = np.cos(2.0 * np.pi * (grid.t_nodes[:, None] + grid.x1_nodes) + 0.3)
    f = plane[:, :, None] * np.exp(-(grid.x2_nodes / 0.2) ** 2)
    path, out_path = tmp_path / "dense.vfgrid", tmp_path / "profile.csv"
    vf.write_field(path, vf.FieldGrid(f, 0.7 * f, grid))
    code, out, _ = run(capsys, ["reconstruct", "--v", "2", "--c", "1",
                                "--in", str(path), "--gamma", str(gamma),
                                "--delta", "6.3", "--eta", "6.3",
                                "--out", str(out_path)])
    assert code == 0
    got = np.loadtxt(out_path, delimiter=",", skiprows=1)
    assert got.shape == (24 + 1, 5) and np.all(np.isfinite(got))
    assert np.all(got[0, 1:] != 0.0)
    medium = vf.Medium.symmetric(2.0, 1.0)
    freq = vf.Frequency(gamma, 2.0 * np.pi, 2.0 * np.pi)
    assert f"delta={freq.delta:.12g} eta={freq.eta:.12g}" in out
    field = vf.read_field(path, gamma=gamma)
    system, (sp, sm) = _bin_system(field, freq, medium)
    state = vf.solve_boundary_system(freq, medium, complex(_front_hat(system)),
                                     complex(system.i_plus), complex(system.i_minus))
    roots, c2 = vf.decay_root_pair(freq, medium), medium.c ** 2
    for p0, b, t in ((state.p_plus0, state.dp_plus0 / roots.mu_plus,
                      complex(system.i_plus) / (c2 * roots.mu_plus)),
                     (state.p_minus0, -state.dp_minus0 / roots.mu_minus,
                      complex(system.i_minus) / (c2 * roots.mu_minus))):
        assert abs(p0 + b - t) <= 1e-10 * (abs(p0) + abs(b) + abs(t))
    prof = vf.reconstruct_profile(freq, medium, state, sp, sm, grid.dx2)
    assert not (prof.growing_plus or prof.growing_minus)
    assert np.array_equal(got[:, 1] + 1j * got[:, 2], prof.p_plus)
    assert np.array_equal(got[:, 3] + 1j * got[:, 4], prof.p_minus)


def test_verify_refuses_a_gamma_that_underflows_the_forcing(capsys, tmp_path):
    # The 16x16x32 smooth field starts at t = 0.1, so exp(-gamma*t)
    # underflows every weighted sample from about gamma = 7.5e3: both
    # half-space norms are zero (the parent exited 2 with the bare message
    # "float division by zero").  Exit 2 naming gamma, nothing written.
    field_path, out = tmp_path / "field.vfgrid", tmp_path / "sweep.csv"
    vf.write_field(field_path, smooth_field(n_t=16, n_x1=16, n_x2=32))
    code, _, err = run(capsys, ["verify", "--v", "2", "--c", "1", "--in",
                                str(field_path), "--gammas", "1,1e4",
                                "--out", str(out)])
    assert code == 2
    assert "error: gamma = 10000 underflows" in err
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["1e153", "1e154"])
def test_reconstruct_writes_a_finite_profile_at_a_huge_gamma(capsys, tmp_path,
                                                             gamma):
    # At these gammas |mu+| is past 5.6e102, where mu^3 overflows; the
    # profile moments form no mu^3 (m2 is taken by parts), so the profile,
    # finite in exact arithmetic, is written: exit 0, no RuntimeWarning.
    field_path, out = tmp_path / "field.vfgrid", tmp_path / "profile.csv"
    vf.write_field(field_path, smooth_field(n_t=16, n_x1=16, n_x2=32))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, _ = run(capsys, ["reconstruct", "--v", "2", "--c", "1",
                                  "--in", str(field_path), "--gamma", gamma,
                                  "--delta", "6.3", "--eta", "6.3",
                                  "--out", str(out)])
    assert code == 0
    assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()


def test_reconstruct_refuses_a_gamma_that_overflows_the_bin(capsys, tmp_path):
    # From gamma = 1e155 the bin's system overflows before any profile is
    # formed: exit 2 naming gamma, v and c, no RuntimeWarning, nothing written.
    field_path, out = tmp_path / "field.vfgrid", tmp_path / "profile.csv"
    vf.write_field(field_path, smooth_field(n_t=16, n_x1=16, n_x2=32))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run(capsys, ["reconstruct", "--v", "2", "--c", "1",
                                    "--in", str(field_path), "--gamma", "1e155",
                                    "--delta", "6.3", "--eta", "6.3",
                                    "--out", str(out)])
    assert err == ("error: the decay roots, symbol and forcing integrals at "
                   "gamma = 1e+155, v = 2.0, c = 1.0 is not finite in double "
                   "precision\n")
    assert code == 2 and not out.exists()


@pytest.mark.parametrize("flag,value", [("--gamma", "nan"), ("--gamma", "inf"),
                                        ("--s", "nan"), ("--s", "inf")])
def test_solve_refuses_non_finite_gamma_and_s(capsys, tmp_path, field_file,
                                              flag, value):
    outdir = tmp_path / "out"
    code, _, err = run(capsys, ["solve", "--v", "2", "--c", "1",
                                "--in", field_file, flag, value,
                                "--out", str(outdir)])
    assert code == 2
    assert f"{flag[2:]} must be finite" in err
    assert not outdir.exists()


@pytest.mark.parametrize("flag,value", [("--gammas", "1,inf"), ("--gammas", "1,nan"),
                                        ("--gammas", "nan,1"), ("--s", "nan"),
                                        ("--s", "inf")])
def test_verify_refuses_non_finite_gamma_and_s(capsys, tmp_path, field_file,
                                               flag, value):
    out_path = tmp_path / "sweep.csv"
    code, _, err = run(capsys, ["verify", "--v", "2", "--c", "1",
                                "--in", field_file, flag, value,
                                "--out", str(out_path)])
    assert code == 2
    assert f"{flag[2:].rstrip('s')} must be finite" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag,value", [("--gamma", "nan"), ("--gamma", "inf")])
def test_reconstruct_refuses_non_finite_gamma_and_s(capsys, tmp_path, field_file,
                                                    flag, value):
    out_path = tmp_path / "profile.csv"
    code, _, err = run(capsys, ["reconstruct", "--v", "2", "--c", "1",
                                "--in", field_file, flag, value,
                                "--delta", "6.3", "--eta", "6.3",
                                "--out", str(out_path)])
    assert code == 2
    assert f"{flag[2:]} must be finite" in err
    assert not out_path.exists()


def test_every_gamma_floor_refusal_reads_the_same(capsys, tmp_path, field_file):
    # One check and one message for the floor gamma >= 1 of the solver's
    # weight, whichever call refuses.
    message = "gamma must be finite and at least 1, got 0.5"
    field = vf.read_field(field_file)
    medium = vf.Medium(2.0, 1.0)
    calls = (lambda: vf.GridSpec(16, 8, 24, 1.0, 1.0, 1.0, gamma=0.5),
             lambda: vf.read_field(field_file, gamma=0.5),
             lambda: vf.build_system(field, medium, 0.5),
             lambda: vf.solve_front(field, medium, 0.5),
             lambda: vf.forcing_functional(field, vf.Frequency(0.5, 0.0, 0.0), medium),
             lambda: vf.verify_estimate(field, medium, [1.0, 0.5], 0.0))
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    out = tmp_path / "out"
    for argv in (["solve", "--gamma", "0.5"], ["verify", "--gammas", "1,0.5"],
                 ["reconstruct", "--gamma", "0.5", "--delta", "0", "--eta", "0"]):
        code, _, err = run(capsys, [argv[0], "--v", "2", "--c", "1", "--in",
                                    field_file, *argv[1:], "--out", str(out)])
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize("v", [1.0, math.sqrt(2.0), 2.0])
def test_every_regime_refusal_names_the_regime_and_the_call(capsys, tmp_path,
                                                            field_file, v):
    # One gate: each refusal names the medium's regime and the refusing call,
    # in the library (RegimeError) and on the command line (exit 3).
    medium = vf.Medium(v, 1.0)
    regime = vf.classify(medium).stability_class.value
    field = vf.read_field(field_file)
    stable, unstable = ("weakly_stable", ">"), ("elliptic_unstable", "<")
    gates = [
        ("solve_front", stable, lambda: vf.solve_front(field, medium),
         ["solve", "--in", field_file]),
        ("verify_estimate", stable,
         lambda: vf.verify_estimate(field, medium, [1.0], 0.0),
         ["verify", "--in", field_file]),
        ("root_cofactor", stable,
         lambda: vf.root_cofactor(vf.Frequency(0.0, 0.9, 1.0), medium), None),
        ("reconstruct", stable, None,
         ["reconstruct", "--in", field_file, "--delta", "0", "--eta", "0"]),
        ("blowup_probe", unstable, lambda: vf.blowup_probe(medium, 1.0, [2.0]),
         ["probe", "--eta", "1", "--gammas", "2"])]
    refused = [gate for gate in gates if gate[1][0] != regime]
    assert len(refused) == {1.0: 4, math.sqrt(2.0): 5, 2.0: 1}[v]
    for what, (wanted, side), call, argv in refused:
        message = (f"{what} requires the {wanted} regime (v/c {side} sqrt(2)); "
                   f"medium is {regime} (v/c = {v:g})")
        if call is not None:
            with pytest.raises(vf.RegimeError) as exc:
                call()
            assert (exc.value.regime, str(exc.value)) == (regime, message)
        if argv is not None:
            out = tmp_path / "out"
            code, _, err = run(capsys, [argv[0], "--v", repr(v), "--c", "1",
                                        *argv[1:], "--out", str(out)])
            assert (code, err) == (3, f"error: {message}\n")
            assert not out.exists()


def bin_args(flag, value):
    """reconstruct's --delta and --eta at 6.3, with flag set to value."""
    bins = {"--delta": "6.3", "--eta": "6.3", flag: value}
    return [f"{name}={text}" for name, text in bins.items()]


@pytest.mark.parametrize("flag", ["--delta", "--eta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_reconstruct_refuses_a_non_finite_bin(capsys, tmp_path, field_file,
                                              flag, value):
    # argmin over NaN or infinite distances is 0: bin 0 was written, exit 0.
    out_path = tmp_path / "profile.csv"
    code, _, err = run(capsys, ["reconstruct", "--v", "2", "--c", "1",
                                "--in", field_file, *bin_args(flag, value),
                                "--out", str(out_path)])
    assert code == 2
    assert err == f"error: {flag[2:]} must be finite, got {value}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("flag", ["--delta", "--eta"])
def test_reconstruct_takes_a_far_value_to_the_end_of_its_axis(capsys, tmp_path,
                                                             field_file, flag):
    # Every distance to 1e300 rounds to 1e300, so argmin gave bin 0; clipped
    # to the axis first, 1e300 takes the largest bin.  -1e300 takes the
    # smallest, the unpaired Nyquist bin, which is refused.
    grid = vf.read_field(field_file).grid
    top = float({"--delta": grid.delta_axis, "--eta": grid.eta_axis}[flag].max())
    paths = {}
    for value in ("1e300", repr(top)):
        paths[value] = tmp_path / f"{value}.csv"
        code, out, _ = run(capsys, ["reconstruct", "--v", "2", "--c", "1",
                                    "--in", field_file, *bin_args(flag, value),
                                    "--out", str(paths[value])])
        assert code == 0 and f"{flag[2:]}={top:.12g}" in out
    assert paths["1e300"].read_bytes() == paths[repr(top)].read_bytes()
    code, _, err = run(capsys, ["reconstruct", "--v", "2", "--c", "1",
                                "--in", field_file, *bin_args(flag, "-1e300"),
                                "--out", str(tmp_path / "low.csv")])
    assert code == 2 and "unpaired Nyquist bin" in err
    assert not (tmp_path / "low.csv").exists()


@pytest.mark.parametrize("cmd,flag,value,name", [
    ("solve", "--s", "200", "s"), ("solve", "--gamma", "1e160", "gamma"),
    ("verify", "--s", "200", "s"), ("verify", "--gammas", "1,1e160", "gamma"),
    ("verify", "--gammas", "1,1e110", "gamma"),
    ("reconstruct", "--gamma", "1e160", "gamma")])
def test_commands_refuse_an_overflowing_weight(capsys, tmp_path, cmd, flag,
                                               value, name):
    # (gamma^2 + delta^2 + eta^2)^s overflows at s = 200 on a 16x16x32
    # field (the parent wrote NaN norms and verify rows with exit 0), and
    # gamma^2 at gamma = 1e160 (the parent exited 2 after RuntimeWarnings,
    # blaming a vanishing symbol); at gamma = 1e110 the ratio r's gamma^3
    # once gave an exit 2 with the bare message "(34, 'Numerical result out
    # of range')", where this field, starting at t = 0.1, is now refused for
    # the weight exp(-gamma*t) that underflows on it.  Exit 2 naming the
    # argument (s + 1 for the solve's norm at s + 1), no RuntimeWarning,
    # nothing written.
    field_path = tmp_path / "field.vfgrid"
    vf.write_field(field_path, smooth_field(n_t=16, n_x1=16, n_x2=32))
    out = tmp_path / "out"
    where = ["--delta", "6.3", "--eta", "6.3"] if cmd == "reconstruct" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run(capsys, [cmd, "--v", "2", "--c", "1", "--in",
                                    str(field_path), flag, value, *where,
                                    "--out", str(out)])
    weight = "the Sobolev weight (gamma^2 + delta^2 + eta^2)^s at {}"
    system = "the decay roots, symbol and forcing integrals at {}, v = 2.0, c = 1.0"
    expected = {
        ("solve", "200"): weight.format("gamma = 1.0, s = 201.0"),
        ("solve", "1e160"): system.format("gamma = 1e+160"),
        ("verify", "200"): weight.format("gamma = 1.0, s = 200.0"),
        ("verify", "1,1e160"): weight.format("gamma = 1e+160, s = 0.0"),
        ("reconstruct", "1e160"): system.format("gamma = 1e+160")}
    message = ("gamma = 1e+110 underflows the weight exp(-gamma*t) on the "
               "forcing: both half-space norms are zero"
               if value == "1,1e110" else
               expected[cmd, value] + " is not finite in double precision")
    assert (code, err) == (2, f"error: {message}\n") and f"{name} = " in err
    assert not out.exists()


def test_grid_csv_bytes(capsys, tmp_path):
    # Each value formatted on its own, |Sigma| by the scalar abs: the
    # command's table writer must give the same bytes.
    medium = vf.Medium.symmetric(2.0, 1.0)
    gammas = np.linspace(0.0, 2.0, 3)
    deltas, etas = np.linspace(-6.0, 6.3, 21), np.linspace(-6.1, 6.2, 21)
    lines = ["gamma,delta,eta,re_sigma,im_sigma,abs_sigma,"
             "re_mu_plus,im_mu_plus,re_mu_minus,im_mu_minus"]
    for g in gammas:
        dd, ee = np.meshgrid(deltas, etas, indexing="ij")
        mu_p, mu_m, sig = mu_symbol_grid(g + 1j * dd, ee, medium)
        for i in range(len(deltas)):
            for j in range(len(etas)):
                lines.append(",".join(format(float(x), ".17g") for x in (
                    g, deltas[i], etas[j], sig[i, j].real, sig[i, j].imag,
                    abs(sig[i, j]), mu_p[i, j].real, mu_p[i, j].imag,
                    mu_m[i, j].real, mu_m[i, j].imag)))
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, ["grid", "--v", "2", "--c", "1", "--window",
                              "0:2:3,-6:6.3:21,-6.1:6.2:21",
                              "--out", str(out_path)])
    assert code == 0
    assert out_path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and two usable CPUs")
def test_outputs_do_not_depend_on_the_core_count(tmp_path):
    # The same commands pinned to one CPU (one worker) and unpinned, on a
    # field whose stages are above the work floor of domain._split.
    env = dict(os.environ, PYTHONPATH=str(Path(vf.__file__).resolve().parents[1]))
    one_cpu = {min(os.sched_getaffinity(0))}
    field_file = str(tmp_path / "field.vfgrid")
    assert 128 * 64 * 17 > vf.domain._SPLIT_MIN_ENTRIES  # the x1 half spectrum
    vf.write_field(field_file, smooth_field(n_t=64, n_x1=32, n_x2=128))

    def outputs(preexec_fn):
        out = tmp_path / "out"  # stdout names the output paths
        shutil.rmtree(out, ignore_errors=True)
        base = [sys.executable, "-m", "vortexfront.cli"]
        medium = ["--v", "2", "--c", "1", "--in", field_file]
        texts = [subprocess.run(base + cmd, env=env, preexec_fn=preexec_fn,
                                capture_output=True, check=True,
                                timeout=300).stdout
                 for cmd in (["solve", *medium, "--gamma", "1", "--s", "1",
                              "--out", str(out / "solve")],
                             ["verify", *medium, "--gammas", "1,2,4", "--s", "0",
                              "--out", str(out / "verify.csv")])]
        return texts + [p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()]

    pinned = outputs(lambda: os.sched_setaffinity(0, one_cpu))
    assert pinned == outputs(None)
    assert len(pinned) == 5
