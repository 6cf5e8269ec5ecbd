"""Benchmark workloads: seeded inputs, reference values, runs and checks.

Every input is generated from the workload seed. The solver workloads drive
``orthopt.bench.run_experiment`` (and through it ``penalty_solve`` or
``alm_solve``); the diagnostics workload drives ``error_bound_sweep``. All
calls go through module attributes at call time, so the tracer can wrap them.

Run as a script (``python3 perfbench/workloads.py <workload> <seed>``) it
times one cold set-up in a fresh interpreter: imports, input generation,
reference values and warm-up, and prints that time with a digest of the
inputs as one JSON line.
"""

from __future__ import annotations

import hashlib
import time

_IMPORT_START = time.perf_counter()

import json
import multiprocessing
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from orthopt import bench, diagnostics  # noqa: E402
from orthopt.driver import round_to_feasible  # noqa: E402
from orthopt.problems import (  # noqa: E402
    AffinityInstance,
    GraphMatchingObjective,
    ProjectionObjective,
    QapInstance,
    QapLiftedObjective,
    noisy_projection_target,
    permutation_matrix,
    qap_permutation_value,
    random_stiefel_start,
)

_IMPORT_S = time.perf_counter() - _IMPORT_START

# per-start acceptance limits at solver exit
ORTH_RESIDUAL_MAX = 1e-10
NINF_MAX = 5e-6
CLIENT_START_TIMEOUT_S = 120


@dataclass
class Outcome:
    """What one pass over a workload's task list produced.

    A task is one start for the solver workloads and one sweep call for
    diag; ``task_s`` holds the times of the tasks that completed. ``units``
    are starts or error-bound samples.
    """

    wall: float
    jobs: int
    tasks: int = 0
    task_s: list = field(default_factory=list)
    units: int = 0
    unit_failures: int = 0
    failed_tasks: set = field(default_factory=set)
    errors: list = field(default_factory=list)
    gaps: list = field(default_factory=list)  # (f - ref) / |ref| per unit
    ninf: list = field(default_factory=list)
    holds: list = field(default_factory=list)
    fingerprints: list = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return float(sum(self.task_s))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _sub_seeds(seed: int, count: int, stream: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


# ---------------------------------------------------------------- QAP


def qap_grid_instance(seed: int, n: int) -> QapInstance:
    """nug-style instance: Manhattan distances on a near-square grid (A) and
    seeded symmetric integer flows with about 40% zeros (B)."""
    rng = np.random.default_rng(seed)
    rows = max(d for d in range(1, int(n**0.5) + 1) if n % d == 0)
    cols = n // rows
    pts = np.array([(i // cols, i % cols) for i in range(n)])
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1).astype(float)
    flow = rng.integers(0, 10, size=(n, n)).astype(float)
    flow[rng.random((n, n)) < 0.4] = 0.0
    flow = np.triu(flow, 1)
    return QapInstance(a=dist, b=flow + flow.T)


def _swap_deltas(a: np.ndarray, b: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Change of sum_ij a_ij b_p(i)p(j) for swapping p(r), p(s), for every pair.

    Valid for symmetric a and b with zero diagonals.
    """
    bp = b[np.ix_(perm, perm)]
    m = a @ bp.T
    d = np.diag(m)
    return 2.0 * (m + m.T - d[:, None] - d[None, :] + 2.0 * a * bp)


def qap_best_known(inst: QapInstance, seed: int, restarts: int) -> float:
    """Best value of a best-improvement pairwise-swap local search from
    ``restarts`` seeded random permutations; the stored reference for gaps."""
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        perm = rng.permutation(inst.n)
        while True:
            delta = _swap_deltas(inst.a, inst.b, perm)
            np.fill_diagonal(delta, 0.0)
            r, s = np.unravel_index(int(np.argmin(delta)), delta.shape)
            if delta[r, s] >= 0.0:
                break
            perm[[r, s]] = perm[[s, r]]
        best = min(best, qap_permutation_value(inst, perm))
    return float(best)


# ---------------------------------------------------------------- GM


def gm_planted_instance(
    seed: int, n: int, noise: float = 0.02, sigma2: float = 0.02
) -> tuple[AffinityInstance, np.ndarray]:
    """Dense graph-matching affinity with a planted permutation.

    Graph 1 has symmetric uniform edge weights W1; graph 2 relabels it by a
    seeded permutation p and adds symmetric Gaussian noise, so that
    W2[p(i), p(j)] = W1[i, j] + noise. The affinity of the edge pairs
    (i, j) -> (a, b) is exp(-(W2[a, b] - W1[i, j])^2 / sigma2), indexed by the
    column-stacked vec of X[i, a]. Returns the instance and p.
    """
    rng = np.random.default_rng(seed)
    w1 = np.triu(rng.random((n, n)), 1)
    w1 = w1 + w1.T
    perm = rng.permutation(n)
    e = np.triu(noise * rng.standard_normal((n, n)), 1)
    w2 = np.zeros((n, n))
    w2[np.ix_(perm, perm)] = w1 + e + e.T
    d = w2[:, None, :, None] - w1[None, :, None, :]
    return AffinityInstance(np.exp(-d * d / sigma2).reshape(n * n, n * n)), perm


# ---------------------------------------------------------------- projection


def planted_support_projection(target: np.ndarray, x_true: np.ndarray) -> np.ndarray:
    """Closest point of S+(n, r) to the target among those with the planted
    row support: per column, the normalized positive part on its rows."""
    out = np.zeros_like(target)
    for j in range(target.shape[1]):
        rows = x_true[:, j] > 0
        col = np.maximum(target[rows, j], 0.0)
        out[rows, j] = col / np.linalg.norm(col)
    return out


# ---------------------------------------------------------------- workloads


@dataclass
class Problem:
    """One generated instance with its reference objective value."""

    instance: object
    ref: float
    spec_seed: int
    arrays: tuple


# (workload, inputs) of a client process, set once by the pool initializer
_CLIENT: tuple | None = None


def _client_init(workload, inputs, ready) -> None:
    global _CLIENT
    _CLIENT = (workload, inputs)
    workload.warm_up(inputs)
    ready.wait()


def _client_task(task):
    workload, inputs = _CLIENT
    return workload.task(inputs, task)


def run_tasks(workload, inputs, tasks: list, clients: int) -> tuple[list, float]:
    """Run ``workload.task`` over ``tasks`` in a closed loop of ``clients``
    processes (each takes the next task when it finishes one); returns the
    results in task order and the wall time. Client start-up and warm-up
    happen before the clock starts."""
    if clients == 1:
        start = time.perf_counter()
        results = [workload.task(inputs, t) for t in tasks]
        return results, time.perf_counter() - start
    # fork, not spawn: spawn's named semaphores start multiprocessing's
    # resource tracker, a process that outlives the benchmark
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Barrier(clients + 1)
    pool = ctx.Pool(clients, _client_init, (workload, inputs, ready))
    try:
        ready.wait(timeout=CLIENT_START_TIMEOUT_S)
        start = time.perf_counter()
        results = list(pool.imap(_client_task, tasks, chunksize=1))
        wall = time.perf_counter() - start
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return results, wall


@dataclass(frozen=True)
class SolverWorkload:
    """Closed-loop multi-start runs through ``bench.run_experiment``.

    Pooled workloads call ``run_experiment`` once per instance with
    ``jobs=nproc``; the others run every start as its own ``run_experiment``
    call with ``jobs=1`` (start i of a spec draws from seed XOR i, so the
    starts are the same), spread over nproc client processes.

    ``size`` is (n, local-search restarts) for qap, (n,) for gm and (n, r)
    for proj. ``rate`` is the nominal start rate per core on a 2-core
    machine with both cores busy; it converts the requested seconds into a
    fixed task list, so the same seed and seconds always run the same starts.
    """

    name: str
    kind: str
    solvers: tuple
    size: tuple
    instances: int
    rate: float
    pool: bool
    unit = "start"

    def parallelism(self, nproc: int) -> tuple[int, int]:
        """(run_experiment jobs, client processes) for a timed run."""
        return (nproc, 1) if self.pool else (1, nproc)

    def plan(self, seconds: float, workers: int) -> tuple[int, int]:
        """Instances used and starts per instance and solver for a run of
        about ``seconds`` on ``workers`` cores; a pooled run gets at least
        one start per worker and instance."""
        per_solver = max(workers, round(seconds * self.rate * workers / len(self.solvers)))
        used = min(self.instances, per_solver // (workers if self.pool else 1))
        return used, round(per_solver / used)

    def prepare(self, seed: int) -> list[Problem]:
        seeds = _sub_seeds(seed, 2 * self.instances, stream=1)
        return [self._problem(s, t) for s, t in zip(seeds[::2], seeds[1::2])]

    def _problem(self, seed: int, spec_seed: int) -> Problem:
        if self.kind == "qap":
            inst = qap_grid_instance(seed, self.size[0])
            ref = qap_best_known(inst, seed, restarts=self.size[1])
            return Problem(inst, ref, spec_seed, (inst.a, inst.b))
        if self.kind == "gm":
            inst, perm = gm_planted_instance(seed, self.size[0])
            ref = GraphMatchingObjective(inst).value(permutation_matrix(perm))
            return Problem(inst, ref, spec_seed, (inst.k,))
        n, r = self.size
        target, x_true = noisy_projection_target(n, r, 0.25 / np.sqrt(n), seed)
        x_ref = planted_support_projection(target, x_true)
        ref = ProjectionObjective(target).value(x_ref)
        return Problem(target, ref, spec_seed, (target,))

    def warm_up(self, problems: list[Problem]) -> None:
        """First calls of the objective, QR and rounding on the first instance."""
        prob = problems[0]
        if self.kind == "qap":
            obj, shape = QapLiftedObjective(prob.instance), (prob.instance.n,) * 2
        elif self.kind == "gm":
            obj, shape = GraphMatchingObjective(prob.instance), (prob.instance.n,) * 2
        else:
            obj, shape = ProjectionObjective(prob.instance), prob.instance.shape
        x = random_stiefel_start(*shape, seed=0).mat
        obj.value(x)
        obj.gradient(x)
        round_to_feasible(x)

    def digest(self, problems: list[Problem]) -> str:
        return _digest(*(a for p in problems for a in p.arrays), [p.ref for p in problems])

    def _spec(self, k: int, prob: Problem, solver: str, starts: int, seed: int, jobs: int):
        return bench.ExperimentSpec(
            kind=self.kind,
            name=f"{self.name}-{k}",
            instance=prob.instance,
            solver=solver,
            num_starts=starts,
            seed=seed,
            jobs=jobs,
        )

    def task(self, problems: list[Problem], task: tuple):
        """Start i of instance k with one solver, as its own experiment."""
        k, solver, i = task
        prob = problems[k]
        rec = bench.run_experiment(self._spec(k, prob, solver, 1, prob.spec_seed ^ i, 1)).records[0]
        rec.index = i
        rec.report = None  # the solve trace is not needed by the checks
        return rec

    def run(self, problems: list[Problem], plan: tuple[int, int], jobs: int, clients: int) -> Outcome:
        used, count = plan
        keys = [(k, solver) for k in range(used) for solver in self.solvers]
        if self.pool:
            start = time.perf_counter()
            rows = [
                bench.run_experiment(self._spec(k, problems[k], solver, count, problems[k].spec_seed, jobs))
                for k, solver in keys
            ]
            wall = time.perf_counter() - start
            results = [((k, solver, rec.index), rec) for (k, solver), row in zip(keys, rows)
                       for rec in row.records]
            out = Outcome(wall=wall, jobs=min(jobs, count))
        else:
            tasks = [(k, solver, i) for k, solver in keys for i in range(count)]
            records, wall = run_tasks(self, problems, tasks, clients)
            results = list(zip(tasks, records))
            out = Outcome(wall=wall, jobs=clients)
        for task, rec in results:
            self._check(problems[task[0]], task, rec, out)
        return out

    @staticmethod
    def quality_ratio(out: Outcome) -> float:
        """1 + the best start's gap: what a multi-start run returns."""
        return 1.0 + min(out.gaps)

    def _check(self, prob: Problem, task: tuple, rec, out: Outcome) -> None:
        out.tasks += 1
        out.units += 1
        problems = []
        if rec.failed:
            problems.append(rec.error)
        else:
            out.task_s.append(rec.wall_time)
            out.fingerprints.append(
                (task, rec.outer_iters, rec.inner_iters, rec.f_final, rec.f_rounded)
            )
            out.ninf.append(rec.ninf)
            if rec.orth_residual > ORTH_RESIDUAL_MAX:
                problems.append(f"orth_residual {rec.orth_residual:.3e}")
            if rec.ninf > NINF_MAX:
                problems.append(f"ninf {rec.ninf:.3e}")
            if rec.f_rounded is None:
                problems.append("rounding failed")
            else:
                out.gaps.append((rec.f_rounded - prob.ref) / abs(prob.ref))
                if self.kind == "qap":
                    problems.extend(self._check_qap(prob.instance, rec))
        if problems:
            out.unit_failures += 1
            out.failed_tasks.add(task)
            out.errors.append(f"{self.name} instance {task[0]} {task[1]} start {task[2]}: "
                              f"{'; '.join(problems)}")

    @staticmethod
    def _check_qap(inst: QapInstance, rec) -> list[str]:
        rounded = round_to_feasible(rec.x_final).mat
        perm = np.argmax(rounded, axis=1)
        lifted = QapLiftedObjective(inst).value(rounded)
        classic = qap_permutation_value(inst, perm)
        if not lifted == classic == rec.f_rounded:
            return [f"lifted {lifted!r}, permutation {classic!r}, reported {rec.f_rounded!r}"]
        return []


@dataclass(frozen=True)
class DiagWorkload:
    """Closed-loop ``error_bound_sweep`` calls around one base point, spread
    over nproc client processes; ``rate`` is the nominal call rate per core
    with both cores of a 2-core machine busy."""

    name: str
    shape: tuple
    delta: float
    samples_per_call: int
    rate: float
    unit = "sample"

    def parallelism(self, nproc: int) -> tuple[int, int]:
        return 1, nproc

    def plan(self, seconds: float, workers: int) -> tuple[int, int]:
        """One base point and the sweep calls for a run of about ``seconds``."""
        return 1, max(workers, round(seconds * self.rate * workers))

    def prepare(self, seed: int):
        base = diagnostics.default_base_point(*self.shape)
        return base, seed

    def warm_up(self, inputs) -> None:
        base, _ = inputs
        diagnostics.brute_force_dist_splus(base.mat)

    def digest(self, inputs) -> str:
        base, seed = inputs
        return _digest(base.mat, _sub_seeds(seed, 4, stream=2))

    @staticmethod
    def quality_ratio(out: Outcome) -> float:
        """1 + the median sample's gap: oracle distance over base distance."""
        return 1.0 + float(np.median(out.gaps))

    def task(self, inputs, call_seed: int):
        base, _ = inputs
        t0 = time.perf_counter()
        samples = diagnostics.error_bound_sweep(base, self.delta, self.samples_per_call, call_seed)
        return time.perf_counter() - t0, samples

    def run(self, inputs, plan: tuple[int, int], jobs: int, clients: int) -> Outcome:
        base, seed = inputs
        calls, wall = run_tasks(self, inputs, _sub_seeds(seed, plan[1], stream=2), clients)
        out = Outcome(wall=wall, jobs=clients)
        for t, (seconds, samples) in enumerate(calls):
            out.tasks += 1
            out.task_s.append(seconds)
            for i, smp in enumerate(samples):
                out.units += 1
                # base is feasible, so the exact oracle can never be farther away
                ref = float(np.linalg.norm(smp.x - base.mat))
                out.gaps.append((smp.dist_splus - ref) / ref)
                out.holds.append(smp.holds)
                out.fingerprints.append((t, i, smp.dist_splus, smp.dist_cone, smp.dist_st))
                problems = []
                if not smp.holds:
                    problems.append("error bound violated")
                if smp.dist_splus > ref * (1.0 + 1e-12):
                    problems.append(f"oracle distance {smp.dist_splus!r} exceeds base distance {ref!r}")
                if problems:
                    out.unit_failures += 1
                    out.failed_tasks.add(t)
                    out.errors.append(f"{self.name} call {t} sample {i}: {'; '.join(problems)}")
        return out


def make_workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads; ``tiny`` shrinks every size for smoke runs."""
    if tiny:
        items = [
            SolverWorkload("qap_grid", "qap", ("seppg_plus", "seppg_zero"), (6, 5), 1, 2.0, False),
            SolverWorkload("gm_dense", "gm", ("seppg_plus",), (4,), 1, 1.0, True),
            SolverWorkload("proj_tall", "proj", ("alm",), (30, 3), 1, 1.0, False),
            DiagWorkload("diag_errorbound", (4, 2), 0.05, 5, 2.0),
        ]
    else:
        items = [
            SolverWorkload("qap_grid", "qap", ("seppg_plus", "seppg_zero"), (20, 100), 4, 2.3, False),
            SolverWorkload("gm_dense", "gm", ("seppg_plus",), (24,), 6, 0.55, True),
            SolverWorkload("proj_tall", "proj", ("alm",), (600, 8), 40, 0.9, False),
            DiagWorkload("diag_errorbound", (8, 2), 0.05, 20, 52.0),
        ]
    return {w.name: w for w in items}


def cold_setup(name: str, seed: int, tiny: bool) -> dict:
    """Time imports, input generation, references and warm-up in this process."""
    start = time.perf_counter()
    workload = make_workloads(tiny)[name]
    inputs = workload.prepare(seed)
    workload.warm_up(inputs)
    return {
        "setup_s": _IMPORT_S + time.perf_counter() - start,
        "digest": workload.digest(inputs),
    }


if __name__ == "__main__":
    print(json.dumps(cold_setup(sys.argv[1], int(sys.argv[2]), len(sys.argv) > 3)))
