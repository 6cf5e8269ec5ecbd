"""Pinned per-start trajectories on tiny seeded instances.

Refactors of the inner loop, the objectives or the driver must keep the
floating-point expressions that decide each step, so every start keeps its
outer and inner iteration counts and its rounded objective value exactly.
A change to any of these numbers is a change of trajectory, not a refactor.

The same instances check the flipped-column trap of the penalty driver and
the paper's quality claim against the augmented-Lagrangian baseline.
"""

import numpy as np
import pytest

from orthopt.bench import ExperimentSpec, default_config, run_experiment
from orthopt.driver import PenaltyConfig, penalty_solve
from orthopt.problems import (
    AffinityInstance,
    GraphMatchingObjective,
    QapInstance,
    QapLiftedObjective,
    noisy_projection_target,
    permutation_matrix,
    random_stiefel_start,
)
from orthopt.stiefel import StiefelPoint


def tiny_qap() -> QapInstance:
    """n = 6: Manhattan distances on a 2 x 3 grid, seeded integer flows."""
    rng = np.random.default_rng(2024)
    pts = np.array([(i // 3, i % 3) for i in range(6)])
    a = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1).astype(float)
    flow = np.triu(rng.integers(0, 10, size=(6, 6)).astype(float), 1)
    return QapInstance(a=a, b=flow + flow.T)


def qap_grid_instance(seed: int, n: int) -> QapInstance:
    """nug-style instance: Manhattan distances on a near-square grid and
    seeded symmetric integer flows with about 40% zeros."""
    rng = np.random.default_rng(seed)
    rows = max(d for d in range(1, int(n**0.5) + 1) if n % d == 0)
    cols = n // rows
    pts = np.array([(i // cols, i % cols) for i in range(n)])
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1).astype(float)
    flow = rng.integers(0, 10, size=(n, n)).astype(float)
    flow[rng.random((n, n)) < 0.4] = 0.0
    flow = np.triu(flow, 1)
    return QapInstance(a=dist, b=flow + flow.T)


def tiny_gm() -> AffinityInstance:
    """n = 4: a seeded uniform 16 x 16 affinity, symmetrized by the instance."""
    return AffinityInstance(np.random.default_rng(2025).random((16, 16)))


def tiny_proj() -> np.ndarray:
    """8 x 3 projection target: a seeded feasible point plus small noise."""
    return noisy_projection_target(8, 3, 0.25 / np.sqrt(8), 5)[0]


TINY = {"qap": tiny_qap, "gm": tiny_gm, "proj": tiny_proj}

# (outer_iters, inner_iters, f_rounded) per start, starts 0..3 of seed 3
PINNED = {
    ("qap", "seppg_plus"): [(60, 60, 152.0), (62, 96, 164.0), (59, 82, 176.0), (55, 58, 152.0)],
    ("qap", "seppg_zero"): [(38, 139, 152.0), (38, 149, 152.0), (44, 684, 182.0), (42, 113, 152.0)],
    ("gm", "seppg_plus"): [
        (185, 284, -10.926306909201417),
        (206, 405, -9.95457153350241),
        (220, 377, -10.926306909201417),
        (219, 416, -9.35206964683901),
    ],
    ("qap", "alm"): [(18, 2228, 158.0), (18, 2237, 158.0), (23, 647, 176.0), (18, 362, 158.0)],
    ("proj", "alm"): [
        (23, 250, 0.12067544002665155),
        (23, 248, 0.12067544002665154),
        (23, 248, 0.12067544002665151),
        (23, 247, 0.12067544002665154),
    ],
    ("proj", "seppg_plus"): [
        (128, 861, 0.12067545821688966),
        (128, 723, 0.12067544697831703),
        (128, 667, 0.12067545252202842),
        (128, 761, 0.12067544188759333),
    ],
    ("proj", "seppg_zero"): [
        (153, 1684, 0.12067544005406572),
        (153, 1679, 0.12067544004314847),
        (153, 1582, 0.12067544004986752),
        (153, 1641, 0.12067544004924205),
    ],
}


@pytest.mark.parametrize("kind,solver", sorted(PINNED))
def test_pinned_trajectories(kind, solver):
    spec = ExperimentSpec(kind=kind, name="pin", instance=TINY[kind](), solver=solver, num_starts=4, seed=3)
    row = run_experiment(spec)
    assert row.failures == 0
    got = [(rec.outer_iters, rec.inner_iters, rec.f_rounded) for rec in row.records]
    assert got == PINNED[(kind, solver)]


def test_later_subproblems_rarely_backtrack_on_their_first_step():
    # each subproblem's first trial starts from the step the run last
    # accepted; a restart from 1 / ||grad|| overshoots near a solution and
    # costs hundreds of backtracks per start here
    # the starts of run_experiment(seed=3): start i draws from seed 3 XOR i
    inst = tiny_gm()
    cfg = default_config("seppg_plus", "gm", inst)
    for i in range(4):
        report = penalty_solve(GraphMatchingObjective(inst), random_stiefel_start(inst.n, inst.n, 3 ^ i), cfg)
        later = report.inner_traces[1:]
        assert sum(tr.backtracks[0] for tr in later if tr.backtracks) <= 5


@pytest.mark.parametrize("preset", [PenaltyConfig.envelope, PenaltyConfig.quadratic])
def test_flipped_column_leaves_the_trap(preset):
    # a column equal to -e_i has no descent direction in any penalized
    # subproblem; only the sign-flip warm start moves it
    start = permutation_matrix([1, 0, 3, 2, 5, 4])
    start[:, 2] *= -1.0
    cfg = preset(l_max=30)
    report = penalty_solve(QapLiftedObjective(tiny_qap()), StiefelPoint(start), cfg)
    assert report.ninf <= cfg.epsilon
    assert "outer_budget_exhausted" not in report.flags


@pytest.mark.parametrize(
    "inst,seed",
    [(tiny_qap(), 3), (qap_grid_instance(7, 8), 0)],
    ids=["pinned_n6", "grid_n8"],
)
def test_penalty_best_rounded_value_no_worse_than_alm(inst, seed):
    # the paper's headline claim: the exact penalty method finds rounded
    # solutions at least as good as the augmented-Lagrangian baseline
    best = {}
    for solver in ("seppg_plus", "seppg_zero", "alm"):
        spec = ExperimentSpec(kind="qap", name="claim", instance=inst, solver=solver, num_starts=4, seed=seed)
        row = run_experiment(spec)
        assert row.failures == 0
        best[solver] = min(rec.f_rounded for rec in row.records)
    assert best["seppg_plus"] <= best["alm"]
    assert best["seppg_zero"] <= best["alm"]
