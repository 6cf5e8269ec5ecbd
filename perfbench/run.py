"""orthopt benchmark: multi-start throughput and solution quality.

Usage (from the repository root):

    python3 perfbench/run.py --workload qap_grid --seed 1 --seconds 22 --trace 0

Workloads: qap_grid, gm_dense, proj_tall, diag_errorbound (see
perfbench/README.md). ``--trace 0`` runs the timed, untraced measurement and
prints the end-to-end metrics; ``--trace 1`` runs the same tasks untraced and
then traced in one process and prints the per-layer metrics. Report lines
(``env``, ``metric``, ``check``, ``drift``) come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Spans and count snapshots go to .perfbench_out/.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, fixed before numpy is imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("qap_grid", "gm_dense", "proj_tall", "diag_errorbound")
SETUP_REPS = 9
SETUP_TIMEOUT_S = 120
# share of --seconds each pass of a traced run is sized for: it makes two
# single-process passes, plus one through the pool for pooled workloads
TRACE_SHARE = 1 / 4
MAX_REPORTED_ERRORS = 20

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "quality_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": nproc(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MiB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def percentile_or_none(values, q: int):
    """The q-th percentile, or None with fewer than ten values beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cold_setups(name: str, seed: int, tiny: bool) -> list[dict]:
    """Time SETUP_REPS set-ups, each in a fresh interpreter so that imports
    and lazy caches are paid every time."""
    cmd = [sys.executable, str(HERE / "workloads.py"), name, str(seed)]
    if tiny:
        cmd.append("tiny")
    results = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
        )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


class Report:
    """Prints report lines and collects correctness problems."""

    def __init__(self):
        self.errors: list[str] = []

    def metric(self, name: str, value, unit: str, note: str = "") -> None:
        shown = "n/a" if value is None else repr(value)
        print(f"metric {name} {shown} {unit}{'  # ' + note if note else ''}")

    def error(self, message: str) -> None:
        if len(self.errors) < MAX_REPORTED_ERRORS:
            print(f"check {message}")
        self.errors.append(message)


def timed_run(workload, inputs, args, tiny, report: Report) -> tuple[dict, object]:
    setups = cold_setups(args.workload, args.seed, tiny)
    digest = workload.digest(inputs)
    for s in setups:
        if s["digest"] != digest:
            report.error(f"inputs differ between set-ups: {s['digest']} vs {digest}")
    setup_s = statistics.median(s["setup_s"] for s in setups)

    jobs, clients = workload.parallelism(nproc())
    outcome = workload.run(inputs, workload.plan(args.seconds, jobs * clients), jobs, clients)
    for message in outcome.errors:
        report.error(message)

    wall = outcome.wall
    rss = peak_rss_mb()
    metrics = {
        "setup_s": setup_s,
        "tasks_per_s": len(outcome.task_s) / wall,
        **({"quality_ratio": workload.quality_ratio(outcome)} if outcome.gaps else {}),
        "peak_rss_mb": rss,
    }

    unit = workload.unit
    report.metric("setup_s", setup_s, "s", f"median of {SETUP_REPS} cold set-ups")
    report.metric(f"{unit}s_per_s", outcome.units / wall, "1/s",
                  f"{outcome.units} {unit}s in {wall:.3f} s, jobs={jobs}, clients={clients}")
    if unit == "start":
        starts = outcome.task_s
        report.metric("start_s_p50", statistics.median(starts), "s", f"n={len(starts)}")
        p90 = percentile_or_none(starts, 90)
        report.metric("start_s_p90", p90, "s",
                      f"n={len(starts)}" + ("" if p90 is not None else "; needs 100 starts"))
        gaps = [100.0 * g for g in outcome.gaps]
        report.metric("rgap_min_pct", min(gaps) if gaps else None, "%")
        report.metric("rgap_med_pct", statistics.median(gaps) if gaps else None, "%")
    else:
        report.metric("bound_holds_frac", sum(outcome.holds) / len(outcome.holds), "frac")
    report.metric("fail_frac", outcome.unit_failures / outcome.units, "frac",
                  f"{outcome.unit_failures} of {outcome.units} {unit}s")
    if outcome.ninf:
        report.metric("ninf_max", max(outcome.ninf), "l1")
    report.metric("peak_rss_mb", rss, "MB", "max of self and children")
    return metrics, outcome


def traced_run(workload, inputs, args, tiny, report: Report) -> tuple[dict, object]:
    from tracer import LAYER_METRICS, Tracer

    jobs, _ = workload.parallelism(nproc())
    plan = workload.plan(args.seconds * TRACE_SHARE, jobs)
    passes = []
    if jobs > 1:
        passes.append(("pool", workload.run(inputs, plan, jobs, 1)))
    plain = workload.run(inputs, plan, 1, 1)
    passes.append(("single", plain))
    with Tracer() as tracer:
        traced = workload.run(inputs, plan, 1, 1)
    passes.append(("traced", traced))

    reference = sorted(plain.fingerprints)
    for label, outcome in passes:
        for message in outcome.errors:
            report.error(f"{label} pass: {message}")
        if sorted(outcome.fingerprints) != reference:
            report.error(f"{label} pass: per-start iterations or values differ from the single pass")

    own = passes[0][1]
    metrics = tracer.layer_metrics()
    metrics["bench.harness_s"] = own.wall - own.busy_s / own.jobs
    metrics["bench.fanout_efficiency"] = own.busy_s / (own.jobs * own.wall)
    metrics["trace_overhead_frac"] = traced.wall / plain.wall - 1.0

    for name, unit in LAYER_METRICS.items():
        report.metric(name, metrics[name], unit)
    print(f"note passes={[p[0] for p in passes]} tasks={len(traced.task_s)} jobs={jobs} "
          f"spans={len(tracer.spans)}")

    tag = f"{args.workload}{'-tiny' if tiny else ''}-seed{args.seed}-s{args.seconds:g}"
    tracer.dump(OUT / f"spans-{tag}.csv")
    report_count_drift(OUT / f"counts-{tag}.json",
                       {k: metrics[k] for k, u in LAYER_METRICS.items() if u == "count"})
    return {k: metrics[k] for k in LAYER_METRICS}, traced


def report_count_drift(path: Path, counts: dict) -> None:
    """Compare count metrics with the previous traced run of the same
    workload, seed and length, and keep this run's counts for the next."""
    if path.is_file():
        previous = json.loads(path.read_text())
        for name, value in counts.items():
            if previous.get(name) != value:
                print(f"drift {name} previous={previous.get(name)} now={value}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True) + "\n")


def main(argv=None, tiny: bool = False) -> int:
    args = parse_args(argv)
    if not (SRC / "orthopt" / "__init__.py").is_file():
        print(f"error: orthopt sources not found at {SRC / 'orthopt'}", file=sys.stderr)
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    from tracer import LAYER_METRICS

    print("env " + json.dumps(environment(), sort_keys=True))
    workload = workloads.make_workloads(tiny)[args.workload]
    inputs = workload.prepare(args.seed)
    workload.warm_up(inputs)

    report = Report()
    if args.trace:
        metrics, outcome = traced_run(workload, inputs, args, tiny, report)
        units = LAYER_METRICS
    else:
        metrics, outcome = timed_run(workload, inputs, args, tiny, report)
        units = END_TO_END

    result = {
        "correct": not report.errors and outcome.units > 0,
        "attempted": outcome.tasks,
        "failed": len(outcome.failed_tasks),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
