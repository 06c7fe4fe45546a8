"""Command-line harness: classification, symbol grids, roots, solving,
estimate sweeps, the ill-posedness probe and pressure reconstruction.

Exit codes: 0 success, 2 argument/validation error, 3 regime refusal,
4 I/O error.  All output is deterministic: identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .domain import Frequency, Medium, RegimeError
from .grids import read_field
from .pressure import reconstruct_profile, solve_boundary_system
from .solver import blowup_probe, solve_front, verify_estimate
from .symbol import classify, mu_symbol_grid, symbol_grid, symbol_roots
from .transforms import _bin_slices, halfspace_norm


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
        axes.append(np.linspace(lo, hi, count))
    return axes[0], axes[1], axes[2]


def _medium(args) -> Medium:
    if args.v <= 0 or args.c <= 0:
        raise ValueError("--v and --c must be positive")
    return Medium.symmetric(args.v, args.c)


def cmd_classify(args) -> int:
    report = classify(_medium(args))
    lines = [f"mach_class: {report.mach_class.value}",
             f"stability_class: {report.stability_class.value}",
             f"mach_ratio: {report.mach_ratio:.12g}",
             f"Y0: {report.y0:.12g}"]
    if report.y1 is not None:
        lines.append(f"Y1: {report.y1:.12g}")
    if report.y2 is not None:
        lines.append(f"Y2: {report.y2:.12g}")
    print("\n".join(lines))
    payload = {"mach_class": report.mach_class.value,
               "stability_class": report.stability_class.value,
               "mach_ratio": report.mach_ratio,
               "Y0": report.y0, "Y1": report.y1, "Y2": report.y2}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_grid(args) -> int:
    medium = _medium(args)
    gammas, deltas, etas = _parse_window(args.window)
    if np.any(gammas < 0):
        raise ValueError("gamma samples must be nonnegative")
    rows = []
    header = ("gamma,delta,eta,re_sigma,im_sigma,abs_sigma,"
              "re_mu_plus,im_mu_plus,re_mu_minus,im_mu_minus")
    for g in gammas:
        dd, ee = np.meshgrid(deltas, etas, indexing="ij")
        if g == 0.0 and np.any((dd == 0.0) & (ee == 0.0)):
            raise ValueError("window contains the excluded origin (0, 0, 0)")
        tau = g + 1j * dd
        mu_p, mu_m, sig = mu_symbol_grid(tau, ee, medium)
        for i in range(len(deltas)):
            for j in range(len(etas)):
                rows.append(",".join(_fmt(x) for x in (
                    g, deltas[i], etas[j], sig[i, j].real, sig[i, j].imag,
                    abs(sig[i, j]), mu_p[i, j].real, mu_p[i, j].imag,
                    mu_m[i, j].real, mu_m[i, j].imag)))
    text = header + "\n" + "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_roots(args) -> int:
    medium = _medium(args)
    if args.eta == 0.0:
        raise ValueError("--eta must be nonzero")
    roots = symbol_roots(medium, args.eta)
    sig = symbol_grid(np.asarray(roots), np.full(len(roots), args.eta), medium)
    payload = {"eta": args.eta,
               "regime": classify(medium).stability_class.value,
               "roots_re": [r.real for r in roots],
               "roots_im": [r.imag for r in roots],
               "abs_sigma_at_roots": [float(a) for a in np.abs(sig)]}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text + "\n")
    return 0


def cmd_solve(args) -> int:
    medium = _medium(args)
    field = read_field(args.infile, gamma=args.gamma, s=args.s)
    sol = solve_front(field, medium)
    grid = field.grid
    os.makedirs(args.out, exist_ok=True)
    front_path = os.path.join(args.out, "front.csv")
    with open(front_path, "w", newline="\n") as fh:
        fh.write("t,x1,f\n")
        for i, t in enumerate(grid.t_nodes):
            for j, x1 in enumerate(grid.x1_nodes):
                fh.write(f"{_fmt(t)},{_fmt(x1)},{_fmt(sol.f_phys[i, j])}\n")
    nfp = halfspace_norm(field.f_plus, grid, args.s, args.gamma)
    nfm = halfspace_norm(field.f_minus, grid, args.s, args.gamma)
    denom = nfp ** 2 + nfm ** 2
    r = args.gamma ** 3 * sol.norms[args.s + 1.0] ** 2 / denom if denom > 0 else None
    norms = {_fmt(k): v for k, v in sorted(sol.norms.items())}
    payload = {"gamma": args.gamma, "s": args.s, "norms": norms, "r": r}
    with open(os.path.join(args.out, "norms.json"), "w", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"front written to {front_path}")
    for k, v in sorted(sol.norms.items()):
        print(f"norm s={k:g}: {v:.12g}")
    if r is not None:
        print(f"r(gamma): {r:.12g}")
    return 0


def cmd_verify(args) -> int:
    medium = _medium(args)
    gammas = [float(x) for x in args.gammas.split(",")]
    field = read_field(args.infile, gamma=min(gammas), s=args.s)
    report = verify_estimate(field, medium, gammas, args.s)
    header = "gamma,r,r_prime,g1_ratio,pointwise_min,pointwise_ok"
    lines = [header]
    for row in report.rows:
        lines.append(",".join([_fmt(row.gamma), _fmt(row.r), _fmt(row.r_prime),
                               _fmt(row.g1_ratio), _fmt(row.pointwise_min),
                               "1" if row.pointwise_ok else "0"]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    c = report.constants
    print(f"c_elliptic: {c.c_elliptic:.12g}")
    print(f"c_cofactor: {c.c_cofactor:.12g}")
    print(f"c_pointwise: {c.c_pointwise:.12g}")
    print(f"c_bound: {c.c_bound:.12g}")
    print(f"rhs_constant: {report.rhs_constant:.12g}")
    return 0


def cmd_probe(args) -> int:
    medium = _medium(args)
    gammas = [float(x) for x in args.gammas.split(",")]
    result = blowup_probe(medium, args.eta, gammas)
    lines = ["gamma,abs_inv_sigma"]
    for g, v in zip(result.gammas, result.inv_abs_sigma):
        lines.append(f"{_fmt(g)},{_fmt(v)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"root_gamma: {result.root_gamma:.12g}")
    print(f"fitted_exponent: {result.fitted_exponent:.6g}")
    return 0


def cmd_reconstruct(args) -> int:
    medium = _medium(args)
    field = read_field(args.infile, gamma=args.gamma, s=args.s)
    grid = field.grid
    deltas = grid.delta_axis
    etas = grid.eta_axis
    it = int(np.argmin(np.abs(deltas - args.delta)))
    ix = int(np.argmin(np.abs(etas - args.eta)))
    if it == grid.n_t // 2 or ix == grid.n_x1 // 2:
        raise ValueError(f"bin delta={deltas[it]:.12g} eta={etas[ix]:.12g} is "
                         "an unpaired Nyquist bin, which the solver zeroes")
    sol = solve_front(field, medium)
    freq = Frequency(args.gamma, float(deltas[it]), float(etas[ix]))
    sys_ = sol.system
    state = solve_boundary_system(freq, medium, complex(sol.f_hat[it, ix]),
                                  complex(sys_.i_plus[it, ix]),
                                  complex(sys_.i_minus[it, ix]))
    sp, sm = _bin_slices(field, args.gamma, it, ix)
    profile = reconstruct_profile(freq, medium, state, sp, sm, grid.dx2)
    lines = ["x2,re_p_plus,im_p_plus,re_p_minus,im_p_minus"]
    for k in range(len(profile.x2_nodes)):
        lines.append(",".join(_fmt(x) for x in (
            profile.x2_nodes[k], profile.p_plus[k].real, profile.p_plus[k].imag,
            profile.p_minus[k].real, profile.p_minus[k].imag)))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"bin: delta={deltas[it]:.12g} eta={etas[ix]:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexfront",
        description="Front-symbol analysis and spectral front solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_medium(p):
        p.add_argument("--v", type=float, required=True,
                       help="half tangential velocity jump (> 0)")
        p.add_argument("--c", type=float, required=True,
                       help="sound speed (> 0)")

    p = sub.add_parser("classify", help="stability classification")
    add_medium(p)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("grid", help="sample the symbol over a frequency window")
    add_medium(p)
    p.add_argument("--window", required=True,
                   help="gmin:gmax:gn,dmin:dmax:dn,emin:emax:en")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("roots", help="symbol roots for a fixed eta")
    add_medium(p)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("solve", help="solve the front equation for a field file")
    add_medium(p)
    p.add_argument("--in", dest="infile", required=True, help="VFGRID input")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="estimate sweep over a gamma list")
    add_medium(p)
    p.add_argument("--in", dest="infile", required=True, help="VFGRID input")
    p.add_argument("--gammas", default="1,2,4,8,16,32,64",
                   help="comma-separated gamma values (each >= 1)")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe", help="ill-posedness probe near the real root")
    add_medium(p)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--gammas", required=True,
                   help="comma-separated gamma values")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("reconstruct",
                       help="pressure profiles at one grid frequency")
    add_medium(p)
    p.add_argument("--in", dest="infile", required=True, help="VFGRID input")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
