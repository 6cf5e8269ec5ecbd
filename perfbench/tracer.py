"""In-memory span tracer that wraps orthopt's public functions and methods.

Each wrapper replaces a function in the module that calls it (for example
``orthopt.pgm.qr_orthonormalize``, which ``pgm_step`` looks up in its own
module), or a method on an objective class, and records one span per call:
name, start, end, parent span and start id. Counts that only the return
value carries (inner iterations, backtracks, outer iterations, flags) are
added at the same boundary. Spans stay in memory until ``dump``.

Patches are installed by ``with Tracer() as tr:`` and removed on exit, so
untraced passes run the unmodified code. Spans recorded in pool workers would
stay in the workers' memory, so traced passes run in a single process.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from pathlib import Path

from orthopt import bench, diagnostics, driver, penalty, pgm, problems, stiefel

# per-layer metric names, in report order
LAYER_METRICS = {
    "problems.value_calls": "count",
    "problems.value_s": "s",
    "problems.grad_calls": "count",
    "problems.grad_s": "s",
    "problems.value_per_iter": "ratio",
    "problems.bytes_computed": "bytes",
    "stiefel.qr_calls": "count",
    "stiefel.qr_s": "s",
    "stiefel.proj_tangent_s": "s",
    "stiefel.point_checks": "count",
    "stiefel.point_check_s": "s",
    "stiefel.dist_to_stiefel_s": "s",
    "penalty.value_calls": "count",
    "penalty.grad_calls": "count",
    "penalty.self_s": "s",
    "pgm.solve_calls": "count",
    "pgm.inner_iters": "count",
    "pgm.backtracks": "count",
    "pgm.self_s": "s",
    "pgm.inner_converged_frac": "frac",
    "driver.outer_iters": "count",
    "driver.self_s": "s",
    "driver.round_calls": "count",
    "driver.round_s": "s",
    "driver.flags": "count",
    "bench.harness_s": "s",
    "bench.fanout_efficiency": "frac",
    "diagnostics.oracle_calls": "count",
    "diagnostics.oracle_s": "s",
    "diagnostics.patterns": "count",
    "diagnostics.sweep_self_s": "s",
    "trace_overhead_frac": "frac",
}


def _data_bytes(obj) -> int:
    """Bytes of instance data one objective evaluation reads (computed, not
    measured): the n^2 x n^2 affinity for gm (8 n^4), A and B for qap, the
    target for projection."""
    if isinstance(obj, problems.GraphMatchingObjective):
        return obj.inst.k.nbytes
    if isinstance(obj, problems.QapLiftedObjective):
        return obj.inst.a.nbytes + obj.inst.b.nbytes
    if isinstance(obj, problems.ProjectionObjective):
        return obj.target.nbytes
    return 0


def _count_objective(counts, args, _out):
    counts["problems.bytes_computed"] += _data_bytes(args[0])


def _count_pgm(counts, _args, out):
    trace = out[1]
    counts["pgm.inner_iters"] += trace.iterations
    counts["pgm.backtracks"] += sum(trace.backtracks)
    counts["pgm.converged"] += int(trace.converged)


def _count_driver(counts, _args, report):
    counts["driver.outer_iters"] += report.outer_iters
    counts["driver.flags"] += len(report.flags)


def _count_oracle(counts, args, _out):
    n, r = args[0].shape
    counts["diagnostics.patterns"] += (r + 1) ** n


class Tracer:
    """Spans ``[name, start, end, parent, start_id]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.start_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, count=None, new_start=False):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if new_start:
                self.start_id += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.start_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, name, **kw):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, **kw))

    def __enter__(self) -> "Tracer":
        for cls in (
            problems.QapLiftedObjective,
            problems.GraphMatchingObjective,
            problems.ProjectionObjective,
        ):
            self._patch(cls, "value", "problems.value", count=_count_objective)
            self._patch(cls, "gradient", "problems.grad", count=_count_objective)
        for cls in (penalty.PenaltyObjective, driver.AugLagObjective):
            self._patch(cls, "value", "penalty.value")
            self._patch(cls, "gradient", "penalty.grad")
        self._patch(pgm, "qr_orthonormalize", "stiefel.qr")
        self._patch(problems, "qr_orthonormalize", "stiefel.qr")
        self._patch(pgm, "proj_tangent", "stiefel.proj_tangent")
        self._patch(driver, "proj_tangent", "stiefel.proj_tangent")
        self._patch(stiefel, "orthogonality_residual", "stiefel.point_check")
        self._patch(diagnostics, "dist_to_stiefel", "stiefel.dist_to_stiefel")
        self._patch(driver, "pgm_solve", "pgm.solve", count=_count_pgm)
        self._patch(bench, "penalty_solve", "driver.solve", count=_count_driver)
        self._patch(bench, "alm_solve", "driver.solve", count=_count_driver)
        self._patch(bench, "round_to_feasible", "driver.round")
        self._patch(driver, "round_to_feasible", "driver.round")
        self._patch(bench, "random_stiefel_start", "bench.start_point", new_start=True)
        self._patch(bench, "run_experiment", "bench.experiment")
        self._patch(diagnostics, "brute_force_dist_splus", "diagnostics.oracle", count=_count_oracle)
        self._patch(diagnostics, "error_bound_sweep", "diagnostics.sweep", new_start=True)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict:
        """Per-layer counts and times; self time is a span's duration minus
        the durations of its direct children."""
        calls: Counter = Counter()
        total: dict = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        own: dict = defaultdict(float)
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            own[name] += t1 - t0 - c

        iters = self.counts["pgm.inner_iters"]
        solves = calls["pgm.solve"]
        return {
            "problems.value_calls": calls["problems.value"],
            "problems.value_s": total["problems.value"],
            "problems.grad_calls": calls["problems.grad"],
            "problems.grad_s": total["problems.grad"],
            "problems.value_per_iter": calls["problems.value"] / iters if iters else 0.0,
            "problems.bytes_computed": self.counts["problems.bytes_computed"],
            "stiefel.qr_calls": calls["stiefel.qr"],
            "stiefel.qr_s": total["stiefel.qr"],
            "stiefel.proj_tangent_s": total["stiefel.proj_tangent"],
            "stiefel.point_checks": calls["stiefel.point_check"],
            "stiefel.point_check_s": total["stiefel.point_check"],
            "stiefel.dist_to_stiefel_s": total["stiefel.dist_to_stiefel"],
            "penalty.value_calls": calls["penalty.value"],
            "penalty.grad_calls": calls["penalty.grad"],
            "penalty.self_s": own["penalty.value"] + own["penalty.grad"],
            "pgm.solve_calls": solves,
            "pgm.inner_iters": iters,
            "pgm.backtracks": self.counts["pgm.backtracks"],
            "pgm.self_s": own["pgm.solve"],
            "pgm.inner_converged_frac": self.counts["pgm.converged"] / solves if solves else 0.0,
            "driver.outer_iters": self.counts["driver.outer_iters"],
            "driver.self_s": own["driver.solve"],
            "driver.round_calls": calls["driver.round"],
            "driver.round_s": total["driver.round"],
            "driver.flags": self.counts["driver.flags"],
            "diagnostics.oracle_calls": calls["diagnostics.oracle"],
            "diagnostics.oracle_s": total["diagnostics.oracle"],
            "diagnostics.patterns": self.counts["diagnostics.patterns"],
            "diagnostics.sweep_self_s": own["diagnostics.sweep"],
        }

    def dump(self, path: Path) -> None:
        """Write the spans as CSV: name,start,end,parent,start_id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,start_id\n")
            for name, t0, t1, parent, sid in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent},{sid}\n")
