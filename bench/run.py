"""Run one vortexfront benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: the package is imported from ``src/``.
One process is the only client and runs one op after another (a closed
loop).  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs untraced, then traced with spans, then one op under
tracemalloc, and prints the per-layer metrics.  The last line of standard
output is one JSON object with the metrics that BENCHMARK.json names; the
lines before it name all six end-to-end metrics with their units, and
op_p50_ref.  A full record, and the spans of a traced run, go to
``.bench_out/results/``.
``--tiny`` runs every workload at a toy size for the self-check.
"""

import os

# Single-threaded numerics for this process and its children; set before
# numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({v: "1" for v in THREAD_VARS})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# An untraced run sets up at least SETUP_REPS times, and more, up to
# SETUP_MAX, until SETUP_BUDGET_S has run; setup_s is the median.  Short
# setups are the noisiest, and they get the most repetitions.
SETUP_REPS, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
UNTRACED_SHARE = 0.4    # of --seconds, in a traced run, for the overhead


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="toy input sizes, for the self-check")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    from fields import cache_sizes
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "vortexfront").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_bytes": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git repository or git is
    missing."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_op(w, tr, i) -> tuple[bool, float, float]:
    """One op: prepare, time the op on the workload's clock, then check it.

    Returns (passed, op seconds, op time in reference-kernel units).
    """
    x = w.prepare(i)
    tr.op = i
    w.clock.start(tr)
    try:
        result = w.op(x, tr)
    except Exception:
        print(f"op {i} raised:", file=sys.stderr)
        traceback.print_exc()
        return False, 0.0, 0.0
    w.clock.lap()
    try:
        problems = w.check(x, result)
    except Exception:
        traceback.print_exc()
        problems = ["the oracle raised"]
    for problem in problems:
        print(f"op {i} failed its oracle: {problem}", file=sys.stderr)
    return not problems, w.clock.seconds, w.clock.units


def run_loop(w, tr, seconds, first):
    """Ops from index first until seconds have passed (at least one op).

    Returns (op seconds, op reference units, attempted, failed, next index).
    """
    times, units, attempted, failed, i = [], [], 0, 0, first
    end = time.perf_counter() + seconds
    while True:
        ok, dt, u = run_op(w, tr, i)
        attempted += 1
        i += 1
        if ok:
            times.append(dt)
            units.append(u)
        else:
            failed += 1
        if time.perf_counter() >= end:
            return times, units, attempted, failed, i


def set_up(cls, args, workdir, reps, budget_s, null):
    """Set up at least reps times, and more, up to SETUP_MAX, until
    budget_s of setup has run; keep the last workload.

    Each setup is the CLI import (timed in a fresh interpreter), input
    generation with the setup solve, and one warm-up op (op 0), whose
    oracle runs after the clock stops.  Each part is also converted to
    seconds at a reference kernel's nominal speed, to take host drift out
    (see workloads.Reference): the import on the ``scalar`` kernel, the
    build on the ``bulk`` one, the warm-up op on the workload's own clock.
    Returns (workload, nominal seconds per setup, wall seconds per setup,
    failed warm-up ops).
    """
    from workloads import Reference, child_env, measure_import
    scalar, bulk = Reference("scalar"), Reference("bulk")
    env = child_env()

    def build():
        t0 = time.perf_counter()
        w = cls(args.seed, args.tiny, workdir)
        w.setup()
        return w, time.perf_counter() - t0

    nominal, walls, failed, w = [], [], 0, None
    while len(walls) < reps or (sum(walls) < budget_s
                                and len(walls) < SETUP_MAX):
        if w is not None:
            w.close()
            w = None  # freed before the next build, so peaks do not add up
        _, import_s, import_n = scalar.at_nominal(
            lambda: (None, measure_import(env)))
        w, build_s, build_n = bulk.at_nominal(build)
        ok, warm_s, warm_units = run_op(w, null, 0)
        failed += not ok
        nominal.append(import_n + build_n + warm_units * w.clock.ref.nominal_s)
        walls.append(import_s + build_s + warm_s)
    return w, nominal, walls, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vortexfront" / "__init__.py").is_file():
        print(f"error: no vortexfront package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import report
    from fields import field_props
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    null = NullTracer()
    w = None
    try:
        reps, budget = (1, 0.0) if args.trace else (SETUP_REPS, SETUP_BUDGET_S)
        w, setups, setup_walls, failed = set_up(
            WORKLOADS[args.workload], args, workdir, reps, budget, null)
        attempted = len(setups)
        share = UNTRACED_SHARE if args.trace else 1.0
        times, units, n, bad, i = run_loop(w, null, share * args.seconds, 1)
        attempted, failed = attempted + n, failed + bad
        tr = mem = None
        if args.trace:
            tr = Tracer()
            traced_times, _, traced_ops, bad, i = run_loop(
                w, tr, (1.0 - share) * args.seconds, i)
            attempted, failed = attempted + traced_ops, failed + bad
            for name in sorted(tr.missing):
                print(f"warning: {name} not found; the traced run does not "
                      "record its calls", file=sys.stderr)
            mem = Tracer(memory=True)
            tracemalloc.start()
            try:
                ok, _, _ = run_op(w, mem, i)
            finally:
                tracemalloc.stop()
            attempted, failed = attempted + 1, failed + (not ok)
        if not times or (args.trace and not traced_times):
            print("error: no op passed; no metrics to report", file=sys.stderr)
            return 1
        field_bytes = w.field.f_plus.nbytes + w.field.f_minus.nbytes
        e2e = report.end_to_end(times, units, attempted, failed, setups,
                                setup_walls, w.peak_rss_bytes())
        layers = (report.per_layer(tr, mem, traced_ops, field_bytes,
                                   statistics.median(traced_times),
                                   statistics.median(times))
                  if args.trace else {})
        record = {
            "workload": args.workload, "why": w.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "environment": environment(),
            "inputs": field_props(w.field, w.working_set_bytes(),
                                  w.vfgrid_bytes()),
            "attempted": attempted, "failed": failed,
            "end_to_end": e2e, "per_layer": layers, "op_times_s": times,
            "op_ref_units": units, "setup_s": setups,
            "setup_wall_s": setup_walls,
            "wrapped_globals": ({k: sorted(v) for k, v in tr.wrapped.items()}
                                if tr is not None else None),
            "missing_globals": sorted(tr.missing) if tr is not None else None,
            "output_sha256": getattr(w, "digests", None),
        }
    finally:
        if w is not None:
            w.close()
        shutil.rmtree(workdir, ignore_errors=True)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tr is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(tr.dump()) + "\n")

    for name in ("op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb",
                 "setup_s", "fail_frac", "op_p50_ref"):
        m = e2e.get(name)
        if m is None:
            print(f"{name}: omitted, {len(times)} ops leave no percentile "
                  "above the median with ten ops beyond it")
        else:
            extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
            print(f"{name}: {m['value']!r} {m['unit']} {json.dumps(extra)}")
    print(f"record: {(results / f'{stem}.json').relative_to(ROOT)}")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    source = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": source[k]["value"], "unit": source[k]["unit"]}
                    for k in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
