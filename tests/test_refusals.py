"""One table of refusals: every finiteness gate, in the library and per command,
and every other refusal of an input that no test at its own site checks.

Two gates hold the finiteness policy.  An input that is not finite is refused by
domain._refuse_nonfinite, ValueError "<name> must be finite, got <value>";
a result that leaves the double range by domain._require_finite,
ArithmeticError "<what> at <inputs> is not finite in double precision",
naming the result and the gamma, s, v and c it scales with.  One gate holds
the shape policy: an array that does not fit its grid is refused by
grids._refuse_shape, ValueError "<name> has shape <shape>, expected <shape>".
Each library row raises its gate's exception with that message and emits no
warning (an error in those calls); each command row exits 2 with
"error: <message>", prints and writes nothing, and emits no warning (an
error in those runs, and under -W error in the child runs).  A refusal
whose message a test at its own site already checks has no row here.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vortexfront as vf
from vortexfront.cli import main
from vortexfront.quadrature import (exp_weighted_integral, extrapolate_origin,
                                    simpson_closed)
from vortexfront.symbol import mu_grid

from conftest import smooth_field

STABLE = vf.Medium(2.0, 1.0)
HUGE = vf.Medium(1e150, 5e149)     # v/c = 2 at the top of the double range
TINY = vf.Medium(1e-300, 5e-301)   # and at the bottom
FIELD = smooth_field(n_t=16, n_x1=16, n_x2=32)


def dense_field():
    """A field nonzero at t = 0, all that exp(-gamma*t) leaves at a huge gamma."""
    grid = vf.GridSpec(16, 8, 24, 1.0, 1.0, 2.0)
    plane = np.cos(2.0 * np.pi * (grid.t_nodes[:, None] + grid.x1_nodes) + 0.3)
    f = plane[:, :, None] * np.exp(-(grid.x2_nodes / 0.2) ** 2)
    return vf.FieldGrid(f, 0.7 * f, grid)


def must_be_finite(name, value):
    return f"{name} must be finite, got {value}"


def not_finite(what):
    return f"{what} is not finite in double precision"


def bad_input(name, value):
    return ValueError, must_be_finite(name, value)


def bad_result(what):
    return ArithmeticError, not_finite(what)


SYSTEM = "the decay roots, symbol and forcing integrals at gamma = 1.0, {}"
AT_TINY, AT_HUGE = "v = 1e-300, c = 5e-301", "v = 1e+150, c = 5e+149"
CONSTANTS = "the estimate constants at {}"
RATIOS = "the estimate ratios at gamma = {}, s = 0.0, {}"
PROBE = "Sigma or |1/Sigma| at gamma = 1.0, eta0 = 1.0, v = 1e-300, c = 1e-300"
NO_FIT = ("the fit needs two gammas above the root gamma = c*Y1*|eta0| = "
          "0.48586827175664576; 0 of 3 lie above it")
FAR_ETA = vf.Frequency(1.0, 0.0, 1e200)   # the root kernel's eta^2 overflows
WIDE = vf.Medium(4e154, 2e154)            # c^2 and (v*eta)^2 overflow
AT_FAR_ETA = "gamma = 1.0, delta = 0.0, eta = 1e+200, v{} = 2.0, c = 1.0"
AT_WIDE = "gamma = 1.0, delta = 0.0, eta = 1.0, v = 4e+154, c = 2e+154"
SLOW = vf.Medium(1e-300, 1e10)            # c/v overflows
AT_SLOW = "gamma = 1.0, delta = 0.0, eta = 1.0, v = 1e-300, c = 10000000000.0"
POWERS = "n_t and n_x1 must be powers of two, at least 2"
_BIN = vf.Frequency(1.0, float(FIELD.grid.delta_axis[1]), float(FIELD.grid.eta_axis[1]))
ONES = vf.GridSpec(8, 8, 16, 1.0, 1.0, 2.0)   # with all-ones planes and stacks
PLANE, STACK = np.ones((8, 8)), np.ones((8, 8, 16))

LIBRARY = {
    "Medium v": (lambda: vf.Medium(math.inf, 1.0), bad_input("v", math.inf)),
    "Medium c": (lambda: vf.Medium(2.0, math.nan), bad_input("c", math.nan)),
    "Frequency gamma": (lambda: vf.Frequency(math.nan, 0.0, 1.0),
                        bad_input("gamma", math.nan)),
    "Frequency delta": (lambda: vf.Frequency(1.0, math.inf, 1.0),
                        bad_input("delta", math.inf)),
    "Frequency eta": (lambda: vf.Frequency(1.0, 0.0, -math.inf),
                      bad_input("eta", -math.inf)),
    "GridSpec": (lambda: vf.GridSpec(16, 8, 24, 1.0, 1.0, math.inf),
                 bad_input("L_x2", math.inf)),
    "blowup_probe eta0": (lambda: vf.blowup_probe(vf.Medium(1.0, 1.0), math.nan, [1.0]),
                          bad_input("eta0", math.nan)),
    "blowup_probe gamma": (lambda: vf.blowup_probe(vf.Medium(1.0, 1.0), 1.0,
                                                   [1.0, math.nan]),
                           bad_input("gamma", math.nan)),
    "symbol_roots nan": (lambda: vf.symbol_roots(STABLE, math.nan),
                         bad_input("eta", math.nan)),
    "symbol_roots inf": (lambda: vf.symbol_roots(STABLE, math.inf),
                         bad_input("eta", math.inf)),
    "symbol_roots -inf": (lambda: vf.symbol_roots(STABLE, -math.inf),
                          bad_input("eta", -math.inf)),
    "system": (lambda: vf.build_system(FIELD, TINY, 1.0), bad_result(SYSTEM.format(AT_TINY))),
    "system at one bin": (lambda: vf.forcing_functional(FIELD, _BIN, TINY),
                          bad_result(SYSTEM.format(AT_TINY))),
    "estimate constants huge": (lambda: vf.estimate_constants(HUGE),
                                bad_result(CONSTANTS.format(AT_HUGE))),
    "estimate constants tiny": (lambda: vf.estimate_constants(TINY),
                                bad_result(CONSTANTS.format(AT_TINY))),
    "verify_estimate huge": (lambda: vf.verify_estimate(FIELD, HUGE, [1.0, 2.0], 0.0),
                             bad_result(CONSTANTS.format(AT_HUGE))),
    "verify_estimate tiny": (lambda: vf.verify_estimate(FIELD, TINY, [1.0, 2.0], 0.0),
                             bad_result(CONSTANTS.format(AT_TINY))),
    "estimate ratios": (lambda: vf.verify_estimate(dense_field(), STABLE,
                                                   [1.0, 1e110], 0.0),
                        bad_result(RATIOS.format("1e+110", "v = 2.0, c = 1.0"))),
    "probe": (lambda: vf.blowup_probe(vf.Medium(1e-300, 1e-300), 1.0, [1.0, 2.0]),
              bad_result(PROBE)),
    "probe fit": (lambda: vf.blowup_probe(vf.Medium(1.0, 1.0), 1.0, [0.1, 0.2, 0.3]),
                  (ValueError, NO_FIT)),
    "symbol": (lambda: vf.symbol(FAR_ETA, STABLE),
               bad_result("the symbol at " + AT_FAR_ETA.format(""))),
    "decay_root": (lambda: vf.decay_root(FAR_ETA, 2.0, 1.0),
                   bad_result("the decay root at " + AT_FAR_ETA.format("1"))),
    "decay_root_pair": (lambda: vf.decay_root_pair(FAR_ETA, STABLE),
                        bad_result("the decay roots at " + AT_FAR_ETA.format(""))),
    "ratio_sq far eta": (lambda: vf.ratio_sq(FAR_ETA, STABLE),
                         bad_result("the decay roots at " + AT_FAR_ETA.format(""))),
    "ratio_sq": (lambda: vf.ratio_sq(vf.Frequency(1.0, 0.0, 1.0), SLOW),
                 bad_result("the squared ratio at " + AT_SLOW)),
    "symbol_factored": (lambda: vf.symbol_factored(vf.Frequency(1.0, 0.0, 1.0), WIDE),
                        bad_result("the factored symbol at " + AT_WIDE)),
    "Frequency.scaled": (lambda: vf.Frequency(1.0, 0.0, 1.0).scaled(0.0),
                         (ValueError, "scale factor must be positive")),
    "GridSpec L_t": (lambda: vf.GridSpec(16, 8, 24, 0.0, 1.0, 2.0),
                     (ValueError, "box lengths must be positive")),
    "FieldGrid shape": (lambda: vf.FieldGrid(FIELD.f_plus[:, :, 1:], FIELD.f_minus,
                                             FIELD.grid),
                        (ValueError, "f_plus has shape (16, 16, 31), "
                                     "expected (16, 16, 32)")),
    "extrapolate_origin": (lambda: extrapolate_origin(np.ones(4)),
                           (ValueError, "need at least five samples to "
                                        "extrapolate the origin")),
    "simpson_closed": (lambda: simpson_closed(np.ones(1), 0.1),
                       (ValueError, "need at least five samples")),
    "simpson_closed four samples": (lambda: simpson_closed(np.ones(4), 0.1),
                                    (ValueError, "need at least five samples")),
    "exp_weighted_integral": (lambda: exp_weighted_integral(np.ones(2), 0.1, 1.0),
                              (ValueError, "need at least three samples")),
    "verify_estimate no gamma": (lambda: vf.verify_estimate(FIELD, STABLE, [], 0.0),
                                 (ValueError, "need at least one gamma")),
    "blowup_probe eta0 = 0": (lambda: vf.blowup_probe(vf.Medium(1.0, 1.0), 0.0, [1.0]),
                              (ValueError, "eta0 must be nonzero")),
    "blowup_probe no gamma": (lambda: vf.blowup_probe(vf.Medium(1.0, 1.0), 1.0, []),
                              (ValueError, "need at least one gamma")),
    "mu_grid c = 0": (lambda: mu_grid(1.0, 1.0, 2.0, 0.0),
                      (ValueError, "sound speed c must be positive")),
    "symbol_roots eta = 0": (lambda: vf.symbol_roots(STABLE, 0.0),
                             (ValueError, "eta must be nonzero (Sigma(tau, 0) = "
                                          "tau^2 has no roots)")),
    "root_cofactor sign": (lambda: vf.root_cofactor(vf.Frequency(1.0, 0.0, 1.0),
                                                    STABLE, 0),
                           (ValueError, "root_sign must be +1 or -1")),
    "weighted_forward shape": (lambda: vf.weighted_forward(np.zeros((8, 16)),
                                                           FIELD.grid, 1.0),
                               (ValueError, "samples has shape (8, 16), "
                                            "expected (16, 16)")),
    "weighted_inverse shape": (lambda: vf.weighted_inverse(np.zeros((16, 8, 2)),
                                                           FIELD.grid, 1.0),
                               (ValueError, "spectrum has shape (16, 8, 2), "
                                            "expected (16, 16, 2)")),
    "GridSpec n_t = 1": (lambda: vf.GridSpec(1, 8, 24, 1.0, 1.0, 2.0),
                         (ValueError, POWERS)),
    "GridSpec n_x1 = 1": (lambda: vf.GridSpec(16, 1, 24, 1.0, 1.0, 2.0),
                          (ValueError, POWERS)),
    "halfspace_norm depth": (lambda: vf.halfspace_norm(np.zeros((16, 16, 33)),
                                                       FIELD.grid, 0.0, 1.0),
                             (ValueError, "samples has shape (16, 16, 33), "
                                          "expected (16, 16, 32)")),
    "sobolev_norm vector": (lambda: vf.sobolev_norm(np.zeros(16), 0.0, 1.0,
                                                    FIELD.grid),
                            (ValueError, "f_hat has shape (16,), expected (16, 16)")),
    "sobolev_norm stack": (lambda: vf.sobolev_norm(np.zeros((16, 16, 2)), 0.0, 1.0,
                                                   FIELD.grid),
                           (ValueError, "f_hat has shape (16, 16, 2), "
                                        "expected (16, 16)")),
    "weighted_forward gamma nan": (lambda: vf.weighted_forward(STACK, ONES, math.nan),
                                   bad_input("gamma", math.nan)),
    "weighted_forward gamma inf": (lambda: vf.weighted_forward(STACK, ONES, math.inf),
                                   bad_input("gamma", math.inf)),
    "weighted_inverse gamma nan": (lambda: vf.weighted_inverse(PLANE, ONES, math.nan),
                                   bad_input("gamma", math.nan)),
    "weighted_inverse gamma inf": (lambda: vf.weighted_inverse(PLANE, ONES, math.inf),
                                   bad_input("gamma", math.inf)),
    "weighted_inverse overflow": (lambda: vf.weighted_inverse(PLANE, ONES, 1000.0),
                                  bad_result("the front exp(gamma*t)*u at "
                                             "gamma = 1000.0, L_t = 1.0")),
    "halfspace_norm gamma inf": (lambda: vf.halfspace_norm(STACK, ONES, 0.0, math.inf),
                                 bad_input("gamma", math.inf)),
    "halfspace_norm gamma nan s = 1": (lambda: vf.halfspace_norm(STACK, ONES, 1.0,
                                                                 math.nan),
                                       bad_input("gamma", math.nan)),
    "halfspace_norm s -inf": (lambda: vf.halfspace_norm(STACK, ONES, -math.inf, 1.0),
                              bad_input("s", -math.inf)),
    "sobolev_norm s -inf": (lambda: vf.sobolev_norm(PLANE, -math.inf, 1.0, ONES),
                            bad_input("s", -math.inf)),
    "sobolev_norm gamma nan": (lambda: vf.sobolev_norm(PLANE, 1.0, math.nan, ONES),
                               bad_input("gamma", math.nan)),
    # The norms come before the front, which overflows at gamma = 800.
    "solve_front s nan": (lambda: vf.solve_front(FIELD, STABLE, 800.0, math.nan),
                          bad_input("s", math.nan)),
}


@pytest.mark.parametrize("name", LIBRARY)
def test_every_library_gate_raises_its_message(name):
    call, (kind, message) = LIBRARY[name]
    with warnings.catch_warnings(), pytest.raises(Exception) as exc:
        warnings.simplefilter("error")
        call()
    assert (type(exc.value), str(exc.value)) == (kind, message)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("refusals")
    paths = {"field": root / "field.vfgrid", "dense": root / "dense.vfgrid",
             "flat": root / "flat.vfgrid", "empty": root / "empty.vfgrid"}
    vf.write_field(paths["field"], FIELD)
    vf.write_field(paths["dense"], dense_field())
    # An x1-independent forcing on n_x1 = 1, the eta = 0 mode alone: no
    # GridSpec holds it, so it is written by hand.
    t, y = np.arange(16) / 16, np.arange(1, 25) / 12
    f = np.cos(2.0 * np.pi * t + 0.3)[:, None] * np.exp(-(y / 0.2) ** 2)
    paths["flat"].write_text("VFGRID 1 16 1 24 1 1 2\n" + "".join(
        f"{a:.17g} {0.7 * a:.17g}\n" for a in f.ravel()))
    paths["empty"].write_text("VFGRID 1 16 8 24 1 1 2\n")
    return {name: str(path) for name, path in paths.items()}


TINY_ARGS, HUGE_ARGS = ["--v", "1e-300", "--c", "5e-301"], ["--v", "1e150", "--c", "5e149"]
ON_BIN = ["--delta", "6.3", "--eta", "6.3"]
ROOTS = "the roots and symbol at eta = 1e+300, v = 2.0, c = 1.0"

# (argv with {field}, {dense}, {flat} or {empty} for an input file, medium,
# error message)
COMMANDS = {
    "classify v": (["classify"], ["--v", "inf", "--c", "1"], "v must be finite, got inf"),
    "grid symbol": (["grid", "--window", "1:1:1,0:1:2,1:1:1"], TINY_ARGS,
                    not_finite(f"the symbol at gamma = 1.0, {AT_TINY}")),
    "roots nan": (["roots", "--eta", "nan"], None, "eta must be finite, got nan"),
    "roots -inf": (["roots", "--eta=-inf"], None, "eta must be finite, got -inf"),
    "solve system": (["solve", "--in", "{field}"], TINY_ARGS,
                     not_finite(SYSTEM.format(AT_TINY))),
    "verify huge": (["verify", "--in", "{field}"], HUGE_ARGS,
                    not_finite(CONSTANTS.format(AT_HUGE))),
    "verify tiny": (["verify", "--in", "{field}"], TINY_ARGS,
                    not_finite(CONSTANTS.format(AT_TINY))),
    "verify ratios": (["verify", "--in", "{dense}", "--gammas", "1,1e110"], None,
                      not_finite(RATIOS.format("1e+110", "v = 2.0, c = 1.0"))),
    "probe symbol": (["probe", "--eta", "1", "--gammas", "1,2"],
                     ["--v", "1e-300", "--c", "1e-300"], not_finite(PROBE)),
    "probe fit": (["probe", "--eta", "1", "--gammas", "0.1,0.2,0.3"],
                  ["--v", "1", "--c", "1"], NO_FIT),
    "reconstruct system": (["reconstruct", "--in", "{field}", *ON_BIN], TINY_ARGS,
                           not_finite(SYSTEM.format(AT_TINY))),
    "grid two ranges": (["grid", "--window", "0:1:2,0:0:1"], None,
                        "--window needs three ranges gamma,delta,eta"),
    "grid range": (["grid", "--window", "0:1,0:0:1,1:1:1"], None,
                   "range '0:1' is not min:max:count"),
    "grid count 0": (["grid", "--window", "0:1:0,0:0:1,1:1:1"], None,
                     "range counts must be at least 1"),
    "grid negative gamma": (["grid", "--window=-1:1:3,0:0:1,1:1:1"], None,
                            "gamma samples must be nonnegative"),
    "solve n_x1 = 1": (["solve", "--in", "{flat}"], None, POWERS),
    "verify n_x1 = 1": (["verify", "--in", "{flat}"], None, POWERS),
    "reconstruct n_x1 = 1": (["reconstruct", "--in", "{flat}", "--delta", "0",
                              "--eta", "0"], None, POWERS),
    "solve s nan": (["solve", "--in", "{field}", "--gamma", "800", "--s", "nan"], None,
                    must_be_finite("s", math.nan)),
    "solve header only": (["solve", "--in", "{empty}"], None,
                          "expected 3072 data rows of 2 columns, got array of "
                          "shape (0, 1)"),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_every_command_refusal_exits_2_with_its_message(capsys, tmp_path, files,
                                                        name):
    argv, medium, message = COMMANDS[name]
    out = tmp_path / "out"
    args = [arg.format(**files) for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args + (medium or ["--v", "2", "--c", "1"]) + ["--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["verify", "--in", "{field}", *HUGE_ARGS], COMMANDS["verify huge"][2]),
    (["verify", "--in", "{field}", *TINY_ARGS], COMMANDS["verify tiny"][2]),
    (["roots", "--v", "2", "--c", "1", "--eta", "nan"], "eta must be finite, got nan"),
    (["roots", "--v", "2", "--c", "1", "--eta", "1e300"], not_finite(ROOTS))])
def test_extreme_media_and_etas_exit_2_under_warnings_as_errors(files, argv, message):
    # verify printed c_cofactor: inf and rhs_constant: inf with exit 0 at
    # the huge scale, and warned on the way to its refusal at the tiny one;
    # under -W error both exited 1 with a traceback.
    env = dict(os.environ, PYTHONPATH=str(Path(vf.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "vortexfront.cli",
         *(arg.format(**files) for arg in argv)],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_a_singular_boundary_system_blames_gamma_over_c(capsys, tmp_path, files):
    # At v = 1e150, c = 5e149 and gamma = 1 the roots are nearly imaginary:
    # gamma/c, not gamma, is what tends to 0.
    out = tmp_path / "profile.csv"
    code = main(["reconstruct", "--in", files["field"], "--delta", "0", "--eta",
                 "6.283185307179586", *HUGE_ARGS, "--out", str(out)])
    assert (code, capsys.readouterr().err) == (
        2, "error: boundary system is singular: mu_plus + mu_minus vanishes "
           "(possible only as gamma/c -> 0 with v >= c)\n")
    assert not out.exists()


def test_a_medium_of_dimensional_scale_keeps_its_rows(capsys, tmp_path, files):
    # Air at Mach 2 in SI units: v/c = 2 at c = 340.  The unit hemisphere
    # sample of estimate_constants has no point near a root ray from about
    # c = 106, so c_cofactor is inf there; that is no overflow, and the
    # sweep answers with finite rows and constants.
    out = tmp_path / "sweep.csv"
    code = main(["verify", "--in", files["field"], "--v", "680", "--c", "340",
                 "--out", str(out)])
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert code == 0
    assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()
    assert all(math.isfinite(float(printed[name])) for name in (
        "c_elliptic", "c_pointwise", "c_bound", "rhs_constant"))
    constants = vf.estimate_constants(vf.Medium(680.0, 340.0))
    assert math.isfinite(constants.c_elliptic) and math.isfinite(constants.c_bound)
