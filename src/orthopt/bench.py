"""Benchmark harness: instance parsing, quality metrics, multi-start runs,
and the one CSV writer.

All randomness flows from the experiment seed; start i draws from seed XOR i.
Each start is kept as a flat ``StartRecord`` summary, not its solve trace.
Every CSV goes through ``write_csv``; the files are deterministic byte for
byte for a fixed spec and seed, so wall-clock timings are kept out of them
and only reported in memory.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import os
import re
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .driver import PenaltyConfig, alm_solve, penalty_solve, round_to_feasible
from .penalty import Objective
from .problems import (
    AffinityInstance,
    GraphMatchingObjective,
    ProjectionObjective,
    QapInstance,
    QapLiftedObjective,
    random_stiefel_start,
)
from .stiefel import check_count, check_matrix

SOLVERS = ("seppg_plus", "seppg_zero", "alm")
# per kind: the instance type (None for a proj target, a matrix) and the objective
KINDS = {
    "qap": (QapInstance, QapLiftedObjective),
    "gm": (AffinityInstance, GraphMatchingObjective),
    "proj": (None, ProjectionObjective),
}

_FLOAT_FMT = "%.17g"  # lossless float round-trip
_TOKEN = re.compile(rb"\S+")


class QaplibParseError(ValueError):
    """Malformed instance file; ``offset`` is the byte position of the fault."""

    def __init__(self, msg: str, offset: int):
        super().__init__(f"{msg} (byte offset {offset})")
        self.offset = offset


def parse_qaplib(path) -> QapInstance:
    """Parse the de-facto QAPLIB format: n, then A row-major, then B row-major.

    Tokens are whitespace separated; token count must be exactly 1 + 2 n^2.
    """
    data = Path(path).read_bytes()
    tokens = _TOKEN.finditer(data)
    first = next(tokens, None)
    if first is None:
        raise QaplibParseError("empty instance file", 0)
    try:
        n = int(first.group())
    except ValueError:
        raise QaplibParseError(f"bad dimension token {first.group()!r}", first.start())
    if n <= 0:
        raise QaplibParseError(f"dimension must be positive, got {n}", first.start())

    need = 2 * n * n

    def too_few(count: int) -> QaplibParseError:
        return QaplibParseError(
            f"expected {need + 1} tokens (1 + 2*{n}^2), found {count + 1}", len(data)
        )

    # k tokens take at least 2 k - 1 bytes: a file too short for its
    # dimension is rejected before the values are allocated
    if need > len(data) // 2:
        raise too_few(sum(1 for _ in tokens))
    values = np.empty(need)
    count = 0
    for match in tokens:
        if count == need:
            raise QaplibParseError(
                f"expected {need + 1} tokens (1 + 2*{n}^2), found extra data",
                match.start(),
            )
        try:
            values[count] = float(match.group())
        except ValueError:
            raise QaplibParseError(f"bad numeric token {match.group()!r}", match.start())
        count += 1
    if count < need:
        raise too_few(count)
    a = values[: n * n].reshape(n, n)
    b = values[n * n :].reshape(n, n)
    return QapInstance(a=a, b=b)


def load_best_known(path) -> dict[str, float]:
    """Read a sidecar of ``name value`` lines, naming the line of a rejection;
    '#' starts a comment, a name may appear once and a value is finite."""
    out: dict[str, float] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'name value', got {raw!r} on line {lineno}")
        name, text = parts
        if name in out:
            raise ValueError(f"duplicate name {name!r} on line {lineno}")
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"bad value {text!r} on line {lineno}")
        out[name] = value
    return out


def load_dense_matrix(path) -> np.ndarray:
    """Whitespace-separated dense matrix, one row per line.

    Raises:
        ValueError: naming the file, if it holds no numbers or is malformed.
    """
    with warnings.catch_warnings():
        # loadtxt's one warning is for a file without numbers
        warnings.simplefilter("error", UserWarning)
        try:
            return np.loadtxt(path, dtype=float, ndmin=2)
        except UserWarning:
            raise ValueError(f"matrix file {path} holds no numbers") from None
        except ValueError as err:
            # numpy's advice after ';' names a loadtxt keyword callers cannot pass
            raise ValueError(f"matrix file {path}: {str(err).split(';')[0]}") from None


def save_dense_matrix(path, mat) -> None:
    Path(path).write_text(
        "\n".join(" ".join(_FLOAT_FMT % v for v in row) for row in np.asarray(mat)) + "\n"
    )


def relgap(f_final: float, best: float) -> float:
    """Percentage excess over the best known value: (f - best)/|best| * 100.

    Dividing by |best| keeps an excess positive for negative references, such
    as graph matching's negated scores.
    """
    if best == 0:
        raise ValueError("relative gap is undefined for best == 0")
    return (f_final - best) / abs(best) * 100.0


def clustering_metrics(truth, pred, r: int) -> tuple[float, float, float]:
    """Purity, normalized entropy, and NMI of a predicted clustering.

    Labels are integers in [1, r]; zero-count terms drop out of every sum.
    Metrics depend only on the confusion counts, so they are invariant to
    relabeling of the prediction.
    """
    check_count(r, "r")
    t = np.asarray(truth, dtype=float)
    p = np.asarray(pred, dtype=float)
    if t.ndim != 1 or t.shape != p.shape or t.size == 0:
        raise ValueError("truth and pred must be equal-length nonempty 1-d label vectors")
    for name, v in (("truth", t), ("pred", p)):
        fractional = v[v != np.round(v)]  # NaN included
        if fractional.size:
            raise ValueError(f"{name} labels must be integers, got {fractional[0]}")
        if v.min() < 1 or v.max() > r:
            raise ValueError(f"{name} labels must lie in [1, {r}]")
    t, p = t.astype(int), p.astype(int)
    n = t.size
    counts = np.zeros((r, r))  # counts[i, j] = |truth cluster i  ∩  pred cluster j|
    np.add.at(counts, (t - 1, p - 1), 1.0)
    n_true = counts.sum(axis=1)
    n_pred = counts.sum(axis=0)

    pidx = float(counts.max(axis=0).sum() / n)

    acc = mutual = 0.0
    for i in range(r):
        for j in range(r):
            c = counts[i, j]
            if c > 0:
                acc += c * np.log2(c / n_pred[j])
                mutual += (c / n) * np.log2((n * c) / (n_true[i] * n_pred[j]))
    eidx = 0.0 if r == 1 else float(-acc / (n * np.log2(r))) + 0.0  # normalize signed zero
    # log2(n/c) rather than -log2(c/n): bitwise identical to the mutual terms
    # on a perfect confusion matrix, so NMI is exactly 1 there
    h_true = sum((c / n) * np.log2(n / c) for c in n_true if c > 0)
    h_pred = sum((c / n) * np.log2(n / c) for c in n_pred if c > 0)
    denom = max(h_true, h_pred)
    nmi = float(mutual / denom) if denom > 0 else 1.0
    return pidx, eidx, nmi


@dataclass
class ExperimentSpec:
    """A multi-start experiment on one instance.

    ``instance`` must fit ``kind``: a ``QapInstance`` for qap, an
    ``AffinityInstance`` for gm, and a finite n x r matrix with n >= r for
    proj; otherwise the constructor raises ValueError naming it. The
    constructor builds the kind's ``objective`` and the starts' ``shape``
    once. ``config`` replaces ``default_config`` for every solver. Start i
    uses seed XOR i.
    """

    kind: str
    name: str
    instance: object
    solver: str = "seppg_plus"
    num_starts: int = 1
    seed: int = 0
    config: PenaltyConfig | None = None
    best_known: float | None = None
    jobs: int = 1
    objective: Objective = field(init=False, repr=False, compare=False)
    shape: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {tuple(KINDS)}, got {self.kind!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        check_count(self.num_starts, "num_starts")
        check_count(self.seed, "seed", minimum=0)
        check_count(self.jobs, "jobs")
        if self.best_known is not None and not math.isfinite(self.best_known):
            raise ValueError(f"best_known must be finite, got {self.best_known}")
        if self.best_known == 0:
            raise ValueError("best_known must be nonzero: relative gaps divide by it")
        want, objective_class = KINDS[self.kind]
        try:
            if want is None:
                check_matrix(self.instance, "projection target")
            elif not isinstance(self.instance, want):
                raise TypeError(f"expected {want.__name__}, got {type(self.instance).__name__}")
        except (TypeError, ValueError) as err:
            raise ValueError(
                f"instance {self.name!r} does not fit kind {self.kind!r}: {err}"
            ) from None
        self.objective = objective_class(self.instance)
        self.shape = (self.instance.n,) * 2 if want else self.objective.target.shape


# the metadata of a record field the CSVs leave out: timings and matrices stay
# in memory, so the bytes are reproducible for identical specs and seeds
_IN_MEMORY = {"header": None}


@dataclass
class StartRecord:
    """Summary of one start, and a line of the starts CSV: its fields in
    order, each under its name unless its metadata names another header or
    None. A failed start keeps its result fields None. ``certified_exit`` is
    the report's flag: whether ``penalty_solve`` returned through its
    certified support exit (never for ``alm``). The solve's outer records and
    inner traces are not kept: call ``penalty_solve`` or ``alm_solve`` for
    those."""

    index: int = field(metadata={"header": "start"})
    seed: int
    failed: bool = False
    error: str | None = None
    f_final: float | None = None
    f_rounded: float | None = None
    gap_pct: float | None = None
    rgap_pct: float | None = None
    ninf: float | None = None
    orth_residual: float | None = None
    stationarity: float | None = None
    outer_iters: int | None = None
    inner_iters: int | None = None
    certified_exit: bool | None = None
    wall_time: float | None = field(default=None, metadata=_IN_MEMORY)
    x_final: np.ndarray | None = field(default=None, metadata=_IN_MEMORY)


@dataclass
class MetricsRow:
    """Aggregate of one experiment, and the line of the summary CSV as
    ``StartRecord`` is of the starts CSV; gap fields stay None without a
    bound."""

    name: str = field(metadata={"header": "instance"})
    solver: str
    num_starts: int = field(metadata={"header": "starts"})
    failures: int
    min_gap_pct: float | None
    med_gap_pct: float | None
    rmed_gap_pct: float | None
    mean_ninf: float
    mean_orth_residual: float
    mean_wall_time: float = field(metadata=_IN_MEMORY)
    records: list = field(default_factory=list, metadata=_IN_MEMORY)


def _csv_columns(record_class) -> dict[str, str]:
    """{header: attribute} per CSV column of a record class, in field order."""
    headers = {f.name: f.metadata.get("header", f.name) for f in fields(record_class)}
    return {header: name for name, header in headers.items() if header is not None}


def default_config(solver: str, kind: str, instance) -> PenaltyConfig:
    """The solver's configuration: the quadratic penalty (gamma 0) for
    seppg_zero and the default envelope otherwise, with the initial weight
    rho0: 1/||data||_2 of the proj target or the onmf matrix (1 for zero data)
    for every solver; on qap and gm, 10 and 0.1 for alm, and None for the
    penalty solvers, which then scale it to the start."""
    if kind == "qap":
        rho0 = 10.0 if solver == "alm" else None
    elif kind == "gm":
        rho0 = 0.1 if solver == "alm" else None
    else:
        data = instance.a if kind == "onmf" else instance
        scale = float(np.linalg.norm(np.asarray(data, dtype=float), 2))
        rho0 = 1.0 / scale if scale > 0 else 1.0
    if solver == "seppg_zero":
        return PenaltyConfig(gamma=0.0, rho0=rho0)
    return PenaltyConfig(rho0=rho0)


def solver_function(solver: str):
    """The driver of ``solver``, read from the module globals perfbench/tracer.py patches."""
    return alm_solve if solver == "alm" else penalty_solve


def _run_start(spec: ExperimentSpec, index: int) -> StartRecord:
    start_seed = spec.seed ^ index
    objective = spec.objective
    x0 = random_stiefel_start(*spec.shape, start_seed)
    cfg = spec.config or default_config(spec.solver, spec.kind, spec.instance)
    try:
        report = solver_function(spec.solver)(objective, x0, cfg)
    except Exception as err:  # per-start failures are recorded, not fatal
        return StartRecord(index, start_seed, failed=True, error=f"{type(err).__name__}: {err}")
    f_rounded = objective.value(round_to_feasible(report.x_final.mat).mat)
    rgap = relgap(f_rounded, spec.best_known) if spec.best_known is not None else None
    gap = relgap(report.f_final, spec.best_known) if spec.best_known is not None else None
    return StartRecord(
        index=index,
        seed=start_seed,
        f_final=report.f_final,
        f_rounded=f_rounded,
        gap_pct=gap,
        rgap_pct=rgap,
        ninf=report.ninf,
        orth_residual=report.orth_residual,
        stationarity=report.stationarity,
        outer_iters=report.outer_iters,
        inner_iters=report.inner_iters_total,
        certified_exit=report.certified_exit,
        wall_time=report.wall_time,
        x_final=np.asarray(report.x_final.mat),
    )


# the data every start of a pooled map shares, set once per worker process
_SHARED = None


def _set_shared(shared) -> None:
    global _SHARED
    _SHARED = shared


def _call_shared(fn, index: int):
    return fn(_SHARED, index)


def _map_starts(fn, shared, count: int, jobs: int) -> list:
    """[fn(shared, i) for i in range(count)], in index order, on
    min(jobs, count) worker processes; one job runs in this process.

    ``shared`` reaches each worker once, through the pool's initializer (a
    forked worker inherits it without pickling), and the tasks are the bare
    indices, so large instance data is not pickled with every start. fn must
    be a module-level function; its results must pickle.
    """
    jobs = min(jobs, count)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, initializer=_set_shared, initargs=(shared,)
        ) as pool:
            return list(pool.map(functools.partial(_call_shared, fn), range(count)))
    return [fn(shared, i) for i in range(count)]


def run_experiment(
    spec: ExperimentSpec, out_prefix: str | None = None, dump_x: bool = False
) -> MetricsRow:
    """Run ``num_starts`` independent seeded solves and aggregate the results.

    Records come back in start order. Failed starts are excluded from the
    aggregates and counted in ``failures``. With an output prefix, writes
    ``<prefix>_summary.csv`` and ``<prefix>_starts.csv`` (and the final
    matrices with ``dump_x``); the CSV bytes are a deterministic function of
    (spec, seed).
    """
    records = _map_starts(_run_start, spec, spec.num_starts, spec.jobs)
    good = [rec for rec in records if not rec.failed]
    failures = spec.num_starts - len(good)
    gaps = [rec.gap_pct for rec in good if rec.gap_pct is not None]
    rgaps = [rec.rgap_pct for rec in good if rec.rgap_pct is not None]
    row = MetricsRow(
        name=spec.name,
        solver=spec.solver,
        num_starts=spec.num_starts,
        failures=failures,
        min_gap_pct=min(gaps) if gaps else None,
        med_gap_pct=float(np.median(gaps)) if gaps else None,
        rmed_gap_pct=float(np.median(rgaps)) if rgaps else None,
        mean_ninf=_mean(good, "ninf"),
        mean_orth_residual=_mean(good, "orth_residual"),
        mean_wall_time=_mean(good, "wall_time"),
        records=records,
    )
    if out_prefix is not None:
        for suffix, items in (("summary", [row]), ("starts", records)):
            columns = _csv_columns(type(items[0]))
            write_csv(
                f"{out_prefix}_{suffix}.csv",
                columns,
                ([getattr(item, attr) for attr in columns.values()] for item in items),
            )
        if dump_x:
            for rec in records:
                if rec.x_final is not None:
                    save_dense_matrix(f"{out_prefix}_x_start{rec.index}.txt", rec.x_final)
    return row


def _mean(records, attr: str) -> float:
    """The mean of ``attr`` over the records, NaN for none."""
    return float(np.mean([getattr(rec, attr) for rec in records])) if records else float("nan")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row of cells. Floats keep every
    digit, bools read 1/0, None leaves the cell empty, and commas or newlines
    in text become ';' or ' ' so the column count holds."""
    lines = [",".join(header)]
    lines += [",".join(_cell(value) for value in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def default_jobs() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform exposes one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
