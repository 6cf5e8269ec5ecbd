"""Pinned per-start trajectories on tiny seeded instances.

Refactors of the inner loop, the objectives or the driver must keep the
floating-point expressions that decide each step, so every start keeps its
outer and inner iteration counts and its rounded objective value exactly.
A change to any of these numbers is a change of trajectory, not a refactor.
"""

import numpy as np
import pytest

from orthopt.bench import ExperimentSpec, run_experiment
from orthopt.problems import AffinityInstance, QapInstance


def tiny_qap() -> QapInstance:
    """n = 6: Manhattan distances on a 2 x 3 grid, seeded integer flows."""
    rng = np.random.default_rng(2024)
    pts = np.array([(i // 3, i % 3) for i in range(6)])
    a = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1).astype(float)
    flow = np.triu(rng.integers(0, 10, size=(6, 6)).astype(float), 1)
    return QapInstance(a=a, b=flow + flow.T)


def tiny_gm() -> AffinityInstance:
    """n = 4: a seeded uniform 16 x 16 affinity, symmetrized by the instance."""
    return AffinityInstance(np.random.default_rng(2025).random((16, 16)))


# (outer_iters, inner_iters, f_rounded) per start, starts 0..3 of seed 3
PINNED = {
    ("qap", "seppg_plus"): [(59, 56, 158.0), (57, 125, 184.0), (57, 54, 176.0), (62, 56, 158.0)],
    ("qap", "seppg_zero"): [(39, 275, 158.0), (37, 252, 158.0), (43, 664, 182.0), (43, 227, 158.0)],
    ("gm", "seppg_plus"): [
        (176, 279, -9.030049272158994),
        (206, 425, -7.1337979318722216),
        (220, 384, -10.926306909201417),
        (221, 409, -8.088418632557554),
    ],
}


@pytest.mark.parametrize("kind,solver", sorted(PINNED))
def test_pinned_trajectories(kind, solver):
    inst = tiny_qap() if kind == "qap" else tiny_gm()
    spec = ExperimentSpec(kind=kind, name="pin", instance=inst, solver=solver, num_starts=4, seed=3)
    row = run_experiment(spec)
    assert row.failures == 0
    got = [(rec.outer_iters, rec.inner_iters, rec.f_rounded) for rec in row.records]
    assert got == PINNED[(kind, solver)]
