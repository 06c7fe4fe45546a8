"""Command-line harness: classification, symbol grids, roots, solving,
estimate sweeps, the ill-posedness probe and pressure reconstruction.

Exit codes: 0 success, 2 argument/validation error, 3 regime refusal,
4 I/O error.  All output is deterministic: identical inputs produce
byte-identical files, with every CSV value written as %.17g.
`reconstruct` solves only the bin nearest to --delta, --eta.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys

import numpy as np

from .domain import (Frequency, Medium, RegimeError, StabilityClass,
                     _refuse_nonfinite, _require_finite)
from .grids import _rows, read_field
from .pressure import reconstruct_profile, solve_boundary_system
from .solver import (_bin_system, _front_hat, blowup_probe, solve_front,
                     verify_estimate)
from .symbol import (_require_regime, classify, mu_symbol_grid, symbol_grid,
                     symbol_roots)
from .transforms import halfspace_norm


def _emit(text, out: str | None) -> None:
    """Write text, a string or an iterable of strings written in turn, to the
    file out, or to stdout when out is not given."""
    chunks = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _parse_window(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--window needs three ranges gamma,delta,eta")
    axes = []
    for part in parts:
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(f"range '{part}' is not min:max:count")
        lo, hi, count = float(fields[0]), float(fields[1]), int(fields[2])
        if count < 1:
            raise ValueError("range counts must be at least 1")
        _require_finite("the span max - min of a range", hi - lo, min=lo, max=hi)
        axes.append(np.linspace(lo, hi, count))
    return axes[0], axes[1], axes[2]


def cmd_classify(args, medium: Medium) -> int:
    report = classify(medium)
    payload = {"mach_class": report.mach_class.value,
               "stability_class": report.stability_class.value,
               "mach_ratio": report.mach_ratio,
               "Y0": report.y0, "Y1": report.y1, "Y2": report.y2}
    print("\n".join(f"{k}: {v if isinstance(v, str) else format(v, '.12g')}"
                    for k, v in payload.items() if v is not None))
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_grid(args, medium: Medium) -> int:
    gammas, deltas, etas = _parse_window(args.window)
    if np.any(gammas < 0):
        raise ValueError("gamma samples must be nonnegative")
    dd, ee = np.meshgrid(deltas, etas, indexing="ij")
    header = ("gamma,delta,eta,re_sigma,im_sigma,abs_sigma,"
              "re_mu_plus,im_mu_plus,re_mu_minus,im_mu_minus\n")
    # Every plane is checked before any is written; then one plane's text is
    # held at a time, since the text of the whole window raises the peak RSS.
    planes = []
    for g in gammas:
        if g == 0.0 and np.any((dd == 0.0) & (ee == 0.0)):
            raise ValueError("window contains the excluded origin (0, 0, 0)")
        with np.errstate(over="ignore", invalid="ignore"):
            mu_p, mu_m, sig = mu_symbol_grid(g + 1j * dd, ee, medium)
            # hypot, not np.abs: the vector abs loop may round differently.
            cols = (g, dd, ee, sig.real, sig.imag, np.hypot(sig.real, sig.imag),
                    mu_p.real, mu_p.imag, mu_m.real, mu_m.imag)
        _require_finite("the symbol", *cols, gamma=g, v=medium.v, c=medium.c)
        planes.append(cols)
    _emit(itertools.chain([header], (_rows(*cols) for cols in planes)), args.out)
    return 0


def cmd_roots(args, medium: Medium) -> int:
    roots = symbol_roots(medium, args.eta)
    with np.errstate(over="ignore", invalid="ignore"):
        sig = np.abs(symbol_grid(np.asarray(roots),
                                 np.full(len(roots), args.eta), medium))
    _require_finite("the roots and symbol", roots, sig, eta=args.eta, v=medium.v,
                    c=medium.c)
    payload = {"eta": args.eta,
               "regime": classify(medium).stability_class.value,
               "roots_re": [r.real for r in roots],
               "roots_im": [r.imag for r in roots],
               "abs_sigma_at_roots": [float(a) for a in sig]}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        _emit(text + "\n", args.out)
    return 0


def cmd_solve(args, medium: Medium) -> int:
    field = read_field(args.infile, gamma=args.gamma)
    sol = solve_front(field, medium, s=args.s)
    grid = field.grid
    # Every norm before any file, so that a refused norm leaves none behind.
    nfp = halfspace_norm(field.f_plus, grid, args.s, args.gamma)
    nfm = halfspace_norm(field.f_minus, grid, args.s, args.gamma)
    denom = nfp ** 2 + nfm ** 2
    with np.errstate(over="ignore"):  # r is None for a zero forcing
        r = (float(np.float64(args.gamma) ** 3 * sol.norms[args.s + 1.0] ** 2 / denom)
             if denom > 0 else None)
    _require_finite("the ratio r", r or 0.0, gamma=args.gamma, s=args.s, v=medium.v,
                    c=medium.c)
    os.makedirs(args.out, exist_ok=True)
    front_path = os.path.join(args.out, "front.csv")
    _emit("t,x1,f\n" + _rows(grid.t_nodes[:, None], grid.x1_nodes,
                             sol.f_phys), front_path)
    norms = {format(k, ".17g"): v for k, v in sorted(sol.norms.items())}
    payload = {"gamma": args.gamma, "s": args.s, "norms": norms, "r": r}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n",
          os.path.join(args.out, "norms.json"))
    print(f"front written to {front_path}")
    for k, v in sorted(sol.norms.items()):
        print(f"norm s={k:g}: {v:.12g}")
    if r is not None:
        print(f"r(gamma): {r:.12g}")
    return 0


def cmd_verify(args, medium: Medium) -> int:
    gammas = [float(x) for x in args.gammas.split(",")]
    field = read_field(args.infile)
    report = verify_estimate(field, medium, gammas, args.s)
    rows = [(r.gamma, r.r, r.r_prime, r.g1_ratio, r.pointwise_min,
             float(r.pointwise_ok)) for r in report.rows]
    _emit("gamma,r,r_prime,g1_ratio,pointwise_min,pointwise_ok\n"
          + _rows(*np.array(rows).T), args.out)
    c = report.constants
    print(f"c_elliptic: {c.c_elliptic:.12g}")
    print(f"c_cofactor: {c.c_cofactor:.12g}")
    print(f"c_pointwise: {c.c_pointwise:.12g}")
    print(f"c_bound: {c.c_bound:.12g}")
    print(f"rhs_constant: {report.rhs_constant:.12g}")
    return 0


def cmd_probe(args, medium: Medium) -> int:
    gammas = [float(x) for x in args.gammas.split(",")]
    result = blowup_probe(medium, args.eta, gammas)
    _emit("gamma,abs_inv_sigma\n"
          + _rows(result.gammas, result.inv_abs_sigma), args.out)
    print(f"root_gamma: {result.root_gamma:.12g}")
    print(f"fitted_exponent: {result.fitted_exponent:.6g}")
    return 0


def cmd_reconstruct(args, medium: Medium) -> int:
    _refuse_nonfinite(delta=args.delta, eta=args.eta)
    field = read_field(args.infile, gamma=args.gamma)
    _require_regime(medium, StabilityClass.WEAKLY_STABLE, "reconstruct")
    sys_, (sp, sm), freq = _bin_system(
        field, Frequency(args.gamma, args.delta, args.eta), medium)
    with np.errstate(all="ignore"):  # as in _bin_system: refused if not finite
        state = solve_boundary_system(freq, medium, complex(_front_hat(sys_)),
                                      complex(sys_.i_plus), complex(sys_.i_minus))
        profile = reconstruct_profile(freq, medium, state, sp, sm, field.grid.dx2)
    _emit("x2,re_p_plus,im_p_plus,re_p_minus,im_p_minus\n"
          + _rows(profile.x2_nodes, profile.p_plus.real, profile.p_plus.imag,
                  profile.p_minus.real, profile.p_minus.imag), args.out)
    print(f"bin: delta={freq.delta:.12g} eta={freq.eta:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexfront",
        description="Front-symbol analysis and spectral front solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--v", type=float, required=True,
                       help="half tangential velocity jump (> 0)")
        p.add_argument("--c", type=float, required=True, help="sound speed (> 0)")
        p.set_defaults(func=func)
        return p

    p = command("classify", cmd_classify, "stability classification")
    p.add_argument("--out", help="optional JSON output path")

    p = command("grid", cmd_grid, "sample the symbol over a frequency window")
    p.add_argument("--window", required=True,
                   help="gmin:gmax:gn,dmin:dmax:dn,emin:emax:en")
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = command("roots", cmd_roots, "symbol roots for a fixed eta")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--out", help="optional JSON output path")

    p = command("solve", cmd_solve, "solve the front equation for a field file")
    p.add_argument("--in", dest="infile", required=True, help="VFGRID input")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output directory")

    p = command("verify", cmd_verify, "estimate sweep over a gamma list")
    p.add_argument("--in", dest="infile", required=True, help="VFGRID input")
    p.add_argument("--gammas", default="1,2,4,8,16,32,64",
                   help="comma-separated gamma values (each >= 1)")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = command("probe", cmd_probe, "ill-posedness probe near the real root")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--gammas", required=True,
                   help="comma-separated gamma values")
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = command("reconstruct", cmd_reconstruct,
                "pressure profiles at one grid frequency")
    p.add_argument("--in", dest="infile", required=True, help="VFGRID input")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--out", help="CSV output path (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse takes a value that starts with '-' only in the forms -1 and
    # -0.001, and reads -1e-3 or -inf as an option: such a value is joined
    # to the option before it as --eta=-1e-3 (every option takes a value).
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if (argv[i - 1][:2] == "--" and "=" not in argv[i - 1]
                and re.match(r"-(\.?\d|inf|nan)", argv[i], re.IGNORECASE)):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args, Medium(args.v, args.c))
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
