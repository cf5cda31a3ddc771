"""eigopt benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload optimize-batched --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (it imports `src/eigopt` and reads
`configs/*.yaml` there) in one process on one BLAS thread.  After set-up
and a short warm-up it repeats whole rounds of the workload's calls until
`--seconds` have passed, checks the outputs, and prints one JSON object as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (set-up time, median
round time, forward evaluations per second, peak resident memory).  With
`--trace 1` the rounds alternate untraced and traced, and the metrics are
per-layer self times, counts and ratios from the traced rounds; the spans
are written to `.perfbench_out/<workload>/trace.npz`.  See README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("optimize-batched", "optimize-chains", "validate", "stat5")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="eigopt benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_process():
    """One BLAS thread, and bytecode read and written only under the
    benchmark's output directory, never next to the sources: what ran in the
    tree before (a test run leaves __pycache__ behind) and whether the
    environment sets PYTHONDONTWRITEBYTECODE do not change set-up time.  The
    first run in a checkout compiles every module it imports from then on;
    later runs read that cache."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.pycache_prefix = str(ROOT / ".perfbench_out" / "pycache")
    sys.dont_write_bytecode = False


def import_program():
    """Import eigopt from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "eigopt" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        sys.exit(f"benchmark: no eigopt sources or configs under {ROOT}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import eigopt

    if Path(eigopt.__file__).resolve().parent != (src / "eigopt").resolve():
        sys.exit(f"benchmark: imported eigopt from {eigopt.__file__}, not {src}")


def round_totals(results):
    wall = sum(r.seconds for r in results)
    evals = sum(r.evals for r in results if r.evals is not None)
    evals_s = sum(r.seconds for r in results if r.evals is not None)
    return wall, evals, evals_s


def run_rounds(workload, seconds, scratch, tracer):
    """Whole rounds until `seconds` have passed: (traced, results) each, and
    the peak resident set after the first round.  With a tracer, every
    untraced round is followed by a traced one."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        rounds.append((False, workload.run_round(scratch / f"round{len(rounds)}")))
        if len(rounds) == 1:
            # The workload's own peak: later rounds repeat its calls, and
            # the checks that follow allocate (and import scipy) for
            # themselves.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.install()
            try:
                rounds.append((True, workload.run_round(scratch / f"round{len(rounds)}")))
            finally:
                tracer.uninstall()
        if time.perf_counter() - t_start >= seconds:
            return rounds, rss_kb


def check_rounds(workload, rounds, seed) -> list[str]:
    import checks
    from workloads import csv_without_wall_time

    failures = []
    first = rounds[0][1]
    try:
        workload.check(first, seed)
    except checks.CheckFailed as exc:
        failures.append(str(exc))
    # Every round repeats the same calls on the same inputs: their
    # deterministic outputs, traced or not, must match the first round's.
    for k, (traced, results) in enumerate(rounds[1:], start=1):
        for ref, res in zip(first, results):
            if csv_without_wall_time(res.csv_path) != csv_without_wall_time(ref.csv_path):
                kind = "traced" if traced else "untraced"
                failures.append(f"{res.name}: {kind} round {k} output differs from round 0")
    return failures


def end_to_end_metrics(rounds, setup_s, rss_kb) -> dict:
    untraced = [round_totals(rs) for _, rs in rounds]
    evals = sum(e for _, e, _ in untraced)
    evals_s = sum(s for _, _, s in untraced)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(w for w, _, _ in untraced), "s"),
        "forward_evals_per_s": (evals / evals_s, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in BENCHMARK.json's order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def layer_metrics(rounds, tracer, config_load_s, trace_path) -> dict:
    walls = {False: [], True: []}
    for traced, results in rounds:
        walls[traced].append(round_totals(results)[0])
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    layer = tracer.layer_metrics(len(walls[True]), config_load_s, overhead)
    tracer.save(trace_path)
    units = per_layer_units()
    if set(layer) != set(units):
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: "
                           f"{sorted(set(layer) ^ set(units))}")
    return {k: (layer[k], unit) for k, unit in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_process()
    import_program()
    from workloads import WORKLOADS, Inputs

    out_dir = ROOT / ".perfbench_out" / args.workload
    inputs = Inputs(ROOT, out_dir, args.seed)
    workload = WORKLOADS[args.workload](inputs)
    setup_s = time.perf_counter() - _T0

    workload.warmup()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    # Round outputs live only until they are checked; removing them at the
    # end keeps file I/O out of the next run's set-up time.
    scratch = out_dir / "rounds"
    try:
        rounds, rss_kb = run_rounds(workload, args.seconds, scratch, tracer)
        failures = check_rounds(workload, rounds, args.seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for _, results in rounds:
        for r in results:
            print(f"  {r.name:24s} {r.seconds:8.3f} s  evals={r.evals}  "
                  f"attempted={r.attempted} failed={r.failed}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end_metrics(rounds, setup_s, rss_kb)
    else:
        metrics = layer_metrics(rounds, tracer, inputs.load_s, out_dir / "trace.npz")
    for k, (v, unit) in metrics.items():
        print(f"  {k:40s} {v:14.6g} {unit}", file=sys.stderr)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    # Every round repeats the same operations, so one round's counts are
    # the run's: they do not grow with the number of rounds that fit.
    first = rounds[0][1]
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in first),
        "failed": sum(r.failed for r in first),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
