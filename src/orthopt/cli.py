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
from .driver import PenaltyConfig, alm_solve, penalty_solve
from .problems import (
    AffinityInstance,
    OnmfFactorObjective,
    OnmfInstance,
    ProjectionObjective,
    cluster_labels,
    onmf_alternate,
    random_stiefel_start,
)
from .stiefel import StiefelPoint


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


def _coerce(key: str, text: str):
    """A ``--config`` value: an int or a float, or None for ``none`` or
    nothing on ``rho0``, the only field whose None means something (the
    data-driven initial weight)."""
    if text.lower() in ("none", ""):
        if key == "rho0":
            return None
        raise ValueError(f"{key} must be a number, got {text!r}")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {text!r}") from None


def load_config_overrides(path, base: PenaltyConfig) -> PenaltyConfig:
    """Apply key=value lines to a PenaltyConfig; pgm.<key> reaches the inner solver."""
    outer: dict = {}
    inner: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "pgm":
            raise ValueError("pgm takes no value: set the inner options as pgm.<key>")
        if key.startswith("pgm."):
            inner[key[4:]] = _coerce(key, value)
        else:
            outer[key] = _coerce(key, value)
    if inner:
        outer["pgm"] = dataclasses.replace(base.pgm, **inner)
    return dataclasses.replace(base, **outer)


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
    c = bench.load_dense_matrix(args.instance)
    return _run_spec(args, "proj", Path(args.instance).stem, c)


def _onmf_start(task):
    """One onmf start: (final X as an array, residual, rounds)."""
    inst, cfg, solve, seed = task
    x0 = random_stiefel_start(inst.a.shape[0], inst.r, seed)
    x, y, history = onmf_alternate(inst, x0, cfg, solve)
    return x.mat, OnmfFactorObjective(inst.a, y).value(x.mat), len(history)


def _cmd_onmf(args) -> int:
    if args.starts < 1:
        raise ValueError(f"starts must be at least 1, got {args.starts}")
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    a = bench.load_dense_matrix(args.instance)
    inst = OnmfInstance(a=a, r=args.clusters)
    truth = None
    if args.labels is not None:
        truth = np.loadtxt(args.labels, dtype=int)
    cfg = _config(args, "onmf", inst)
    solve = alm_solve if args.solver == "alm" else penalty_solve
    seeds = [args.seed ^ i for i in range(args.starts)]
    results = bench._map_starts(_onmf_start, [(inst, cfg, solve, s) for s in seeds], args.jobs)

    rows = []
    for i, (seed_i, (x, resid, rounds)) in enumerate(zip(seeds, results)):
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
    violations = sum(1 for s in samples if not s.holds)
    print(
        f"shape=({n},{r}) kappa={samples[0].kappa:.4f} samples={len(samples)} "
        f"violations={violations}"
    )
    if args.out:
        header = [f"x{i}" for i in range(n * r)]
        header += ["dist_splus", "dist_cone", "dist_st", "kappa", "holds"]
        rows = (
            [*s.x.ravel(), s.dist_splus, s.dist_cone, s.dist_st, s.kappa, s.holds]
            for s in samples
        )
        bench.write_csv(args.out, header, rows)
    return 0


def _cmd_diag_sosc(args) -> int:
    point = StiefelPoint(bench.load_dense_matrix(args.point))
    target = point.mat if args.target is None else bench.load_dense_matrix(args.target)
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
        return args.func(args)
    except Exception as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
