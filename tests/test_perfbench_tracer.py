"""The benchmark's tracer replaces library functions and objective methods
by name. A renamed or removed attribute must fail here, in the test suite,
and not only in the benchmark's own smoke run."""

import importlib.util
from pathlib import Path

from orthopt.bench import ExperimentSpec, run_experiment
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
