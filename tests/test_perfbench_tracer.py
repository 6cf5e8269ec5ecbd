"""The benchmark's tracer replaces library functions and objective methods
by name. A renamed or removed attribute must fail here, in the test suite,
and not only in the benchmark's own smoke run."""

import importlib.util
from pathlib import Path

import pytest

from orthopt.bench import ExperimentSpec, run_experiment
from orthopt.driver import AugLagObjective
from orthopt.penalty import Objective, PenaltyObjective
from orthopt.problems import GraphMatchingObjective, ProjectionObjective, QapLiftedObjective
from test_trajectories import tiny_qap

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_attribute_and_restores_it():
    tracer = _load_tracer().Tracer()
    with tracer:
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
        # the solvers reach the retraction and the projection through the
        # module attributes that the tracer replaces
        spec = ExperimentSpec(
            kind="qap", name="pin", instance=tiny_qap(), solver="seppg_plus", num_starts=1, seed=3
        )
        run_experiment(spec)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    metrics = tracer.layer_metrics()
    assert metrics["stiefel.qr_calls"] > metrics["pgm.inner_iters"] > 0
    assert metrics["stiefel.proj_tangent_s"] > 0.0
    assert metrics["problems.value_calls"] == 1  # the rounded start's value


@pytest.mark.parametrize(
    "cls",
    [
        QapLiftedObjective,
        GraphMatchingObjective,
        ProjectionObjective,
        PenaltyObjective,
        AugLagObjective,
    ],
)
def test_tracer_wraps_and_restores_the_objective_methods(cls):
    # the five classes keep value and gradient in their own namespace, bound
    # to the base class's methods, so the tracer can replace them there
    with _load_tracer().Tracer() as tracer:
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
        assert {(cls, "value"), (cls, "gradient")} <= patched
        assert cls.value is not Objective.value
        assert cls.gradient is not Objective.gradient
    assert cls.__dict__["value"] is Objective.value
    assert cls.__dict__["gradient"] is Objective.gradient
