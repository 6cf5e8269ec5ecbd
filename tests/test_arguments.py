"""Count, seed and shape arguments, weights, scales and instance data are
checked where they enter the library, and a wrong one raises ValueError
naming it."""

import re

import numpy as np
import pytest

from orthopt.bench import ExperimentSpec, clustering_metrics, load_best_known, run_experiment
from orthopt.diagnostics import default_base_point, error_bound_sweep, sosc_probe
from orthopt.driver import AugLagObjective
from orthopt.penalty import PenaltyObjective, penalty_terms
from orthopt.problems import (
    AffinityInstance,
    OnmfInstance,
    ProjectionObjective,
    QapInstance,
    noisy_projection_target,
    planted_onmf_instance,
    random_stiefel_start,
)
from orthopt.stiefel import check_matrix


INF, NAN = float("inf"), float("nan")


def _objective():
    return ProjectionObjective(default_base_point(4, 2).mat)


def _run_proj(**fields):
    base = default_base_point(4, 2)
    return run_experiment(ExperimentSpec(kind="proj", name="p", instance=base.mat, **fields))


def _probe_at_base(num_dirs):
    base = default_base_point(4, 2)
    return sosc_probe(ProjectionObjective(base.mat), base, num_dirs, 0)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: random_stiefel_start(2, 3, 0), "n must be at least 3, got 2"),
        (lambda: random_stiefel_start(3, 0, 0), "r must be at least 1, got 0"),
        (lambda: noisy_projection_target(2, 3, 0.1, 0), "n must be at least 3, got 2"),
        (lambda: _run_proj(seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: _run_proj(jobs=1.5), "jobs must be an integer, got 1.5"),
        (lambda: _run_proj(num_starts=True), "num_starts must be an integer, got True"),
        (
            lambda: error_bound_sweep(default_base_point(4, 2), 0.05, 2.5, 0),
            "num_samples must be an integer, got 2.5",
        ),
        (lambda: _probe_at_base(2.5), "num_dirs must be an integer, got 2.5"),
        (lambda: default_base_point(3.0, 2), "n must be an integer, got 3.0"),
        (lambda: OnmfInstance(np.ones((3, 3)), 2.5), "r must be an integer, got 2.5"),
        (lambda: OnmfInstance(np.ones((3, 0)), 2), "data matrix column count must be at least 1, got 0"),
        (lambda: clustering_metrics([1, 2], [1, 2], 2.5), "r must be an integer, got 2.5"),
        (
            lambda: clustering_metrics([1.5, 2.7, 1.2], [1, 2, 1], 2),
            "truth labels must be integers, got 1.5",
        ),
        (lambda: clustering_metrics([1, 2], [1, NAN], 2), "pred labels must be integers, got nan"),
        (
            lambda: clustering_metrics([1, 2], [1, 2, 1], 2),
            "truth and pred must be equal-length nonempty 1-d label vectors",
        ),
        (
            lambda: AffinityInstance(np.zeros((4, 9))),
            "affinity matrix must be square, got shape (4, 9)",
        ),
        (lambda: OnmfInstance(np.ones(3), 1), "data matrix must be 2-dimensional, got (3,)"),
        (lambda: check_matrix(np.ones(3), "x"), "x must be 2-dimensional, got shape (3,)"),
        (lambda: penalty_terms(np.ones((3, 2)), INF), "gamma must be positive and finite, got inf"),
        (
            lambda: PenaltyObjective(_objective(), INF, 0.05),
            "rho must be nonnegative and finite, got inf",
        ),
        (
            lambda: AugLagObjective(_objective(), np.zeros((4, 2)), INF),
            "mu must be positive and finite, got inf",
        ),
        (lambda: noisy_projection_target(5, 2, NAN, 0), "xi must be nonnegative and finite, got nan"),
        (lambda: noisy_projection_target(5, 2, -0.1, 0), "xi must be nonnegative and finite, got -0.1"),
        (lambda: planted_onmf_instance(6, 4, 2, NAN, 0), "noise must be nonnegative and finite, got nan"),
        (lambda: planted_onmf_instance(6, 4, 2, INF, 0), "noise must be nonnegative and finite, got inf"),
    ],
    ids=[
        "start_n_below_r",
        "start_r_zero",
        "projection_target_n_below_r",
        "spec_float_seed",
        "spec_float_jobs",
        "spec_bool_num_starts",
        "sweep_float_num_samples",
        "sosc_float_num_dirs",
        "base_point_float_n",
        "onmf_float_cluster_count",
        "onmf_no_columns",
        "clustering_float_r",
        "clustering_fractional_truth",
        "clustering_nan_pred",
        "clustering_length_mismatch",
        "affinity_not_square",
        "onmf_one_dimensional_data",
        "check_matrix_one_dimensional",
        "penalty_terms_infinite_gamma",
        "penalty_objective_infinite_rho",
        "auglag_infinite_mu",
        "projection_target_nan_xi",
        "projection_target_negative_xi",
        "onmf_instance_nan_noise",
        "onmf_instance_infinite_noise",
    ],
)
def test_bad_count_seed_or_shape_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: QapInstance(np.zeros((0, 0)), np.zeros((0, 0))), "A"),
        (lambda: AffinityInstance(np.zeros((0, 0))), "affinity matrix"),
    ],
    ids=["qap", "affinity"],
)
def test_empty_instance_is_rejected_naming_the_matrix(build, name):
    with pytest.raises(ValueError, match=rf"^{name} must have n >= r >= 1, got shape \(0, 0\)$"):
        build()


def test_sidecar_name_given_twice_is_rejected(tmp_path):
    path = tmp_path / "best.txt"
    path.write_text("# bounds\na 1\nb 3\na 2\n")
    with pytest.raises(ValueError, match=r"^duplicate name 'a' on line 4$"):
        load_best_known(path)


def test_sidecar_line_that_is_not_name_value_is_rejected(tmp_path):
    path = tmp_path / "best.txt"
    path.write_text("a 1\nb 3 4  # late\n")
    with pytest.raises(ValueError, match=r"^expected 'name value', got 'b 3 4  # late' on line 2$"):
        load_best_known(path)


@pytest.mark.parametrize("value", ["x", "nan", "inf", "-inf", "1e999"])
def test_sidecar_value_that_is_not_a_finite_number_is_rejected(tmp_path, value):
    path = tmp_path / "best.txt"
    path.write_text(f"a 1\nb {value}\n")
    with pytest.raises(ValueError, match=rf"^bad value '{value}' on line 2$"):
        load_best_known(path)
