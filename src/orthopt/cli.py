"""Command-line benchmark harness.

Subcommands: qap, gm, proj, onmf, diag-errorbound, diag-sosc. On failure a
single machine-readable line ``error: <message>`` goes to stderr and the exit
code is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import bench, diagnostics
from .driver import PenaltyConfig
from .pgm import PgmConfig
from .problems import (
    AffinityInstance,
    OnmfInstance,
    ProjectionObjective,
    cluster_labels,
    onmf_alternate,
    random_stiefel_start,
)
from .stiefel import StiefelPoint, check_count, check_matrix


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--solver", choices=bench.SOLVERS, default="seppg_plus")
    parser.add_argument("--starts", type=int, default=1, help="independent starts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="output prefix for CSV artifacts")
    parser.add_argument(
        "--config",
        help="file of key=value overrides for the penalty configuration "
        "(inner options as pgm.<key>)",
    )
    parser.add_argument("--jobs", type=int, default=bench.default_jobs())
    parser.add_argument(
        "--dump-x", action="store_true", help="write final matrices next to the CSVs"
    )


# every key a --config file may set: the PenaltyConfig fields, with the
# inner solver's PgmConfig fields as pgm.<field>
_CONFIG_KEYS = frozenset(
    [f.name for f in dataclasses.fields(PenaltyConfig) if f.name != "pgm"]
    + [f"pgm.{f.name}" for f in dataclasses.fields(PgmConfig)]
)


def _coerce(key: str, text: str, lineno: int):
    """A ``--config`` value: an int or a float, or None for ``none`` or
    nothing on ``rho0``, the only field whose None means something (the
    data-driven initial weight)."""
    if key == "rho0" and text.lower() in ("none", ""):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {text!r} on line {lineno}") from None


def load_config_overrides(path, base: PenaltyConfig) -> PenaltyConfig:
    """Apply key=value lines to a PenaltyConfig; pgm.<key> reaches the inner
    solver, and a key may appear once. A rejected line is named by its key
    and line number, and a rejected value by the key as the file writes it."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"expected key=value, got {raw!r} on line {lineno}")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unexpected key {key!r} on line {lineno}")
        if key in values:
            raise ValueError(f"duplicate key {key!r} on line {lineno}")
        values[key] = _coerce(key, text, lineno)
    inner = {key[4:]: values.pop(key) for key in list(values) if key.startswith("pgm.")}
    try:
        pgm = dataclasses.replace(base.pgm, **inner)
    except ValueError as err:  # each PgmConfig check names its field first, bare
        raise ValueError(f"pgm.{err}") from None
    return dataclasses.replace(base, **values, pgm=pgm)


def _config(args, kind: str, instance) -> PenaltyConfig:
    """The solver's default configuration with the ``--config`` overrides on top."""
    cfg = bench.default_config(args.solver, kind, instance)
    return cfg if args.config is None else load_config_overrides(args.config, cfg)


def _run_spec(args, kind: str, name: str, instance, best_known=None) -> int:
    spec = bench.ExperimentSpec(
        kind=kind,
        name=name,
        instance=instance,
        solver=args.solver,
        num_starts=args.starts,
        seed=args.seed,
        config=_config(args, kind, instance),
        best_known=best_known,
        jobs=args.jobs,
    )
    row = bench.run_experiment(spec, out_prefix=args.out, dump_x=args.dump_x)
    gap = "" if row.med_gap_pct is None else f" med_gap={row.med_gap_pct:.4f}%"
    print(
        f"{row.name} solver={row.solver} starts={row.num_starts} "
        f"failures={row.failures}{gap} mean_ninf={row.mean_ninf:.3e} "
        f"mean_orth={row.mean_orth_residual:.3e} mean_time={row.mean_wall_time:.3f}s"
    )
    return 0


def _cmd_qap(args) -> int:
    inst = bench.parse_qaplib(args.instance)
    name = Path(args.instance).stem
    best = None
    if args.best_known is not None:
        table = bench.load_best_known(args.best_known)
        best = table.get(name)
        if best is None:
            raise ValueError(f"no best-known value for {name!r} in {args.best_known}")
    return _run_spec(args, "qap", name, inst, best)


def _cmd_gm(args) -> int:
    k = bench.load_dense_matrix(args.instance)
    inst = AffinityInstance(k=k)
    return _run_spec(args, "gm", Path(args.instance).stem, inst)


def _cmd_proj(args) -> int:
    c = check_matrix(bench.load_dense_matrix(args.instance), "projection target")
    return _run_spec(args, "proj", Path(args.instance).stem, c)


def _onmf_start(shared, index: int):
    """Start ``index`` of an onmf run: (final X as an array, residual, rounds)."""
    inst, cfg, solve, seed = shared
    x0 = random_stiefel_start(inst.a.shape[0], inst.r, seed ^ index)
    x, _, history = onmf_alternate(inst, x0, cfg, solve)
    return x.mat, history[-1], len(history)


def _load_labels(path, rows: int, r: int) -> np.ndarray:
    """One integer label in [1, r] per data row, read as a column or a row of numbers."""
    labels = bench.load_dense_matrix(path)
    if 1 not in labels.shape or labels.size != rows or not np.isin(labels, range(1, r + 1)).all():
        raise ValueError(f"labels file {path} needs an integer in [1, {r}] per data row ({rows})")
    return labels.ravel().astype(int)


def _cmd_onmf(args) -> int:
    check_count(args.starts, "starts")
    check_count(args.jobs, "jobs")
    a = bench.load_dense_matrix(args.instance)
    inst = OnmfInstance(a=a, r=args.clusters)
    truth = None if args.labels is None else _load_labels(args.labels, a.shape[0], inst.r)
    cfg = _config(args, "onmf", inst)
    solve = bench.solver_function(args.solver)
    results = bench._map_starts(_onmf_start, (inst, cfg, solve, args.seed), args.starts, args.jobs)

    rows = []
    for i, (x, resid, rounds) in enumerate(results):
        seed_i = args.seed ^ i
        if truth is not None:
            pidx, eidx, nmi = bench.clustering_metrics(truth, cluster_labels(x), inst.r)
            print(
                f"start {i}: objective={resid:.6e} purity={pidx:.4f} "
                f"entropy={eidx:.4f} nmi={nmi:.4f} rounds={rounds}"
            )
        else:
            pidx = eidx = nmi = None
            print(f"start {i}: objective={resid:.6e} rounds={rounds}")
        rows.append((i, seed_i, resid, pidx, eidx, nmi))
        if args.out and args.dump_x:
            bench.save_dense_matrix(f"{args.out}_x_start{i}.txt", x)
    if args.out:
        header = ("start", "seed", "objective", "pidx", "eidx", "nmi")
        bench.write_csv(f"{args.out}_onmf.csv", header, rows)
    return 0


def _cmd_diag_errorbound(args) -> int:
    if args.base is not None:
        base = StiefelPoint(bench.load_dense_matrix(args.base))
    else:
        base = diagnostics.default_base_point(args.shape[0], args.shape[1])
    samples = diagnostics.error_bound_sweep(base, args.delta, args.samples, args.seed)
    n, r = base.shape
    violations = int(np.count_nonzero(~samples.holds))
    print(
        f"shape=({n},{r}) kappa={samples.kappa:.4f} samples={len(samples)} "
        f"violations={violations}"
    )
    if args.out:
        header = [f"x{i}" for i in range(n * r)]
        header += ["dist_splus", "dist_cone", "dist_st", "kappa", "holds"]
        rows = (
            [*s.x.ravel(), s.dist_splus, s.dist_cone, s.dist_st, samples.kappa, s.holds]
            for s in samples
        )
        bench.write_csv(args.out, header, rows)
    return 0


def _cmd_diag_sosc(args) -> int:
    point = StiefelPoint(bench.load_dense_matrix(args.point))
    target = point.mat if args.target is None else bench.load_dense_matrix(args.target)
    if target.shape != point.shape:
        raise ValueError(f"target shape {target.shape} differs from the point's shape {point.shape}")
    objective = ProjectionObjective(target)
    report = diagnostics.sosc_probe(objective, point, args.dirs, args.seed)
    if report.min_form is None:
        print(f"inconclusive: 0 of {report.sampled} sampled directions lie in the cone")
    else:
        print(
            f"min_form={report.min_form:.6e} surviving={report.surviving} "
            f"sampled={report.sampled}"
        )
    if args.out:
        bench.write_csv(args.out, ["form"], ([v] for v in report.forms))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthopt-bench",
        description="Benchmarks for optimization over the nonnegative orthogonal set",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qap", help="quadratic assignment from a QAPLIB file")
    p.add_argument("instance")
    p.add_argument("--best-known", help="sidecar of 'name value' lines")
    _add_common(p)
    p.set_defaults(func=_cmd_qap)

    p = sub.add_parser("gm", help="graph matching from a dense affinity matrix")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(func=_cmd_gm)

    p = sub.add_parser("proj", help="projection onto the feasible set")
    p.add_argument("instance", help="dense target matrix file")
    _add_common(p)
    p.set_defaults(func=_cmd_proj)

    p = sub.add_parser("onmf", help="orthogonal nonnegative matrix factorization")
    p.add_argument("instance", help="dense nonnegative data matrix file")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--labels", help="ground-truth labels for clustering metrics")
    _add_common(p)
    p.set_defaults(func=_cmd_onmf)

    p = sub.add_parser("diag-errorbound", help="sample the error-bound inequality")
    p.add_argument("--shape", type=int, nargs=2, metavar=("N", "R"), default=(4, 2))
    p.add_argument("--base", help="feasible base point file (overrides --shape)")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_diag_errorbound)

    p = sub.add_parser("diag-sosc", help="sampled second-order sufficiency probe")
    p.add_argument("point", help="feasible stationary point file")
    p.add_argument("--target", help="projection target (defaults to the point itself)")
    p.add_argument("--dirs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_diag_sosc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # output options are checked before any work, so no run is lost at its end
        if getattr(args, "dump_x", False) and args.out is None:
            raise ValueError("--dump-x needs --out")
        if args.out is not None and not Path(args.out).parent.is_dir():
            raise ValueError(f"output directory {Path(args.out).parent} does not exist")
        return args.func(args)
    except Exception as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
