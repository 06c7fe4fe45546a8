"""Self-check of the benchmark.

    python3 bench/selfcheck.py

Run from the repository root.  It runs every workload at toy size, traced
and untraced, and checks that every metric BENCHMARK.json names is printed
with its unit, that all six end-to-end metrics are named, that no op
fails, and that the spans a traced run records by wrapping module globals
found those globals.  It feeds each oracle a deliberately perturbed result, which the
oracle must reject, and checks that the benchmark refuses to run without
the package.  Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIX = ("op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb", "setup_s",
       "fail_frac")
# Spans that a traced run records by wrapping module globals
# (workloads.wrap_globals); each must find its globals and record calls.
WRAPPED = {"pressure_bins": ("quadrature.scalar",),
           "gamma_sweep": ("solver.estimate_constants", "symbol.symbol_grid")}


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(spec) -> list[str]:
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{w} --trace {trace}"
            out = run_bench(ROOT, w, trace)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {out.returncode}\n{out.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            for k, v in result["metrics"].items():
                if type(v["value"]) not in (int, float):
                    problems.append(f"{tag}: {k} = {v['value']!r}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{tag}: {result['failed']} of "
                                f"{result['attempted']} ops failed\n"
                                f"{out.stderr[-2000:]}")
            named = {line.split(":")[0]: line for line in lines[:-1]}
            for name in SIX:
                if name not in named:
                    problems.append(f"{tag}: {name} is not printed")
            if not named.get("fail_frac", "").startswith("fail_frac: 0.0 ratio"):
                problems.append(f"{tag}: {named.get('fail_frac')}")
            if trace:
                problems += wrapped_spans(w, result)
    return problems


def wrapped_spans(workload, result) -> list[str]:
    """The globals-wrapped spans of a traced run found their functions."""
    record = json.loads((ROOT / ".bench_out" / "results" /
                         f"{workload}-seed7-trace1.json").read_text())
    found = record["wrapped_globals"]
    problems = [f"{workload}: {name} not found"
                for name in record["missing_globals"]]
    for span in WRAPPED.get(workload, ()):
        calls = result["metrics"][f"{span}.calls"]["value"]
        if not found.get(span) or not calls:
            problems.append(f"{workload}: span {span} wrapped "
                            f"{found.get(span)} and recorded {calls} calls")
    return problems


def bare_checkout() -> list[str]:
    """Only BENCHMARK.json and bench/: the run must fail without a result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(bare, "solve_large", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return [f"bare checkout: exit {out.returncode}, stdout {out.stdout!r}"]
    return []


def _perturbed(name, x, result):
    """(label, inputs, result) variants that the oracle must reject."""
    if name == "solve_large":
        sol, r = result
        nan_phys = sol.f_phys.copy()
        nan_phys[0, 0] = float("nan")
        yield ("f_hat off by 1e-9", x,
               (dataclasses.replace(sol, f_hat=sol.f_hat * (1 + 1e-9)), r))
        yield "NaN in f_phys", x, (dataclasses.replace(sol, f_phys=nan_phys), r)
    elif name == "gamma_sweep":
        rows = list(result.rows)
        low = rows[:-1] + [dataclasses.replace(rows[-1], r=rows[-1].r / 100)]
        bad_pw = [dataclasses.replace(rows[0], pointwise_ok=False)] + rows[1:]
        yield "r(64) too small", x, dataclasses.replace(result, rows=low)
        yield "pointwise row fails", x, dataclasses.replace(result, rows=bad_pw)
    elif name == "pressure_bins":
        state = result["state"]
        off = dataclasses.replace(state, dp_plus0=state.dp_plus0 * (1 + 1e-6))
        grow = dataclasses.replace(result["profile"], growing_minus=True)
        yield "P'(0) off by 1e-6", x, {**result, "state": off}
        yield "growing mode", x, {**result, "profile": grow}
    elif name == "cli_files":
        front = result / "solve" / "front.csv"
        text = front.read_text()  # ends in a digit of the last f, then "\n"
        digit = "1" if text[-2] != "1" else "2"
        front.write_text(text[:-2] + digit + "\n")
        yield "front.csv last digit changed", x, result


def negative_controls() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from tracing import NullTracer
    from workloads import WORKLOADS, child_env, run_child
    problems = []
    workdir = ROOT / ".bench_out" / "selfcheck"
    try:
        for name, cls in WORKLOADS.items():
            w = cls(7, True, workdir)
            w.setup()
            x = w.prepare(1)
            result = w.op(x, NullTracer())
            found = w.check(x, result)
            if found:
                problems.append(f"{name}: unperturbed result rejected: {found}")
            for label, bad_x, bad in _perturbed(name, x, result):
                found = w.check(bad_x, bad)
                print(f"{name}: {label}: "
                      + (f"rejected ({found[0]})" if found else "ACCEPTED"))
                if not found:
                    problems.append(f"{name}: oracle accepted {label}")
            w.close()
        log = workdir / "exit.log"
        try:
            run_child([sys.executable, "-c", "raise SystemExit(3)"], child_env(),
                      log)
            problems.append("cli_files: a non-zero exit was not refused")
        except subprocess.CalledProcessError as exc:
            print(f"cli_files: exit {exc.returncode}: rejected")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = negative_controls() + bare_checkout() + smoke(spec)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
