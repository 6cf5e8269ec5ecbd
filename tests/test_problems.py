"""Problem families: values, gradients, alternation, and starts."""

import numpy as np
import numpy.testing as npt
import pytest

from orthopt.driver import PenaltyConfig
from orthopt.problems import (
    AffinityInstance,
    GraphMatchingObjective,
    OnmfFactorObjective,
    OnmfInstance,
    ProjectionObjective,
    QapInstance,
    QapLiftedObjective,
    cluster_labels,
    onmf_alternate,
    onmf_y_update,
    permutation_matrix,
    planted_onmf_instance,
    qap_permutation_value,
    random_stiefel_start,
)
from orthopt.bench import clustering_metrics, default_config
from orthopt.penalty import nonneg_violation

from helpers import LinearObjective, brute_force_qap, svd_start


def random_instance(n, seed):
    rng = np.random.default_rng(seed)
    return QapInstance(a=rng.random((n, n)), b=rng.random((n, n)))


def symmetric_instance(n, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.random((n, n)), rng.random((n, n))
    return QapInstance(a=a + a.T, b=b + b.T)


def a_symmetric_instance(n, seed):
    """A symmetric, B not: the general path."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    return QapInstance(a=a + a.T, b=rng.random((n, n)))


def general_path(inst):
    """A copy of inst whose objective takes the general (asymmetric) path."""
    out = QapInstance(a=inst.a, b=inst.b)
    object.__setattr__(out, "symmetric", False)
    return out


class TestQapLifted:
    def test_symmetry_is_read_off_the_data(self):
        assert symmetric_instance(5, 0).symmetric
        assert not random_instance(5, 0).symmetric
        assert not a_symmetric_instance(5, 0).symmetric
        inst = symmetric_instance(5, 0)
        assert not QapInstance(a=inst.b, b=random_instance(5, 1).b).symmetric

    def test_symmetric_path_matches_general_path(self):
        inst = symmetric_instance(7, 3)
        fast = QapLiftedObjective(inst)
        slow = QapLiftedObjective(general_path(inst))
        rng = np.random.default_rng(4)
        for seed in range(5):
            for x in (random_stiefel_start(7, 7, seed).mat, rng.standard_normal((7, 7))):
                val, grad = fast.value_and_gradient(x)
                ref_val, ref_grad = slow.value_and_gradient(x)
                npt.assert_allclose(val, ref_val, rtol=1e-12)
                assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_integer_data_gives_the_exact_permutation_value(self, symmetric):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 10, size=(12, 12)).astype(float)
        b = rng.integers(0, 10, size=(12, 12)).astype(float)
        inst = QapInstance(a=a + a.T, b=b + b.T) if symmetric else QapInstance(a=a, b=b)
        assert inst.symmetric == symmetric
        obj = QapLiftedObjective(inst)
        for _ in range(20):
            perm = rng.permutation(12)
            assert obj.value(permutation_matrix(perm)) == qap_permutation_value(inst, perm)

    def test_agrees_with_classical_on_permutations(self):
        inst = random_instance(5, 0)
        obj = QapLiftedObjective(inst)
        rng = np.random.default_rng(1)
        for _ in range(50):
            perm = rng.permutation(5)
            p = permutation_matrix(perm)
            npt.assert_allclose(obj.value(p), qap_permutation_value(inst, perm), rtol=1e-12)

    def test_identity_example(self):
        inst = QapInstance(a=np.eye(2), b=np.eye(2))
        assert QapLiftedObjective(inst).value(np.eye(2)) == 2.0

    def test_finite_difference(self, fd_check):
        inst = random_instance(4, 2)
        obj = QapLiftedObjective(inst)
        rng = np.random.default_rng(3)
        for _ in range(5):
            fd_check(obj, rng.standard_normal((4, 4)), tol=1e-6)

    @pytest.mark.parametrize("make", [a_symmetric_instance, symmetric_instance])
    def test_finite_difference_with_symmetric_data(self, fd_check, make):
        obj = QapLiftedObjective(make(4, 2))
        rng = np.random.default_rng(3)
        for _ in range(5):
            fd_check(obj, rng.standard_normal((4, 4)), tol=1e-6)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QapInstance(a=np.ones((2, 3)), b=np.ones((2, 3)))
        with pytest.raises(ValueError):
            QapInstance(a=np.ones((2, 2)), b=np.ones((3, 3)))


class TestBruteForceQap:
    def test_tiny_instance_by_hand(self):
        inst = QapInstance(a=np.array([[0.0, 1.0], [1.0, 0.0]]), b=np.array([[0.0, 2.0], [2.0, 0.0]]))
        best, perm = brute_force_qap(inst)
        # both permutations give <A, PBP^T> = 4 for this symmetric pair
        assert best == 4.0
        assert sorted(perm) == [0, 1]

    def test_lower_bounds_lifted_values_on_permutations(self):
        inst = random_instance(4, 4)
        best, _ = brute_force_qap(inst)
        obj = QapLiftedObjective(inst)
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = permutation_matrix(rng.permutation(4))
            assert obj.value(p) >= best - 1e-12

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_qap(random_instance(10, 6))


class TestGraphMatching:
    def test_identity_affinity(self):
        inst = AffinityInstance(k=np.eye(9))
        obj = GraphMatchingObjective(inst)
        x = permutation_matrix([1, 2, 0])
        npt.assert_allclose(obj.value(x), -3.0)

    def test_zero_affinity(self):
        inst = AffinityInstance(k=np.zeros((4, 4)))
        obj = GraphMatchingObjective(inst)
        x = np.eye(2)
        assert obj.value(x) == 0.0
        npt.assert_array_equal(obj.gradient(x), np.zeros((2, 2)))

    def test_symmetrized_on_ingestion(self):
        rng = np.random.default_rng(6)
        k = rng.random((4, 4))
        inst = AffinityInstance(k=k)
        npt.assert_allclose(inst.k, inst.k.T)
        assert inst.n == 2

    def test_rejects_non_square_sizes(self):
        with pytest.raises(ValueError):
            AffinityInstance(k=np.ones((5, 5)))  # 5 is not a perfect square

    def test_finite_difference(self, fd_check):
        rng = np.random.default_rng(7)
        inst = AffinityInstance(k=rng.random((9, 9)))
        obj = GraphMatchingObjective(inst)
        for _ in range(5):
            fd_check(obj, rng.standard_normal((3, 3)), tol=1e-6)


class TestProjection:
    def test_at_target(self):
        c = np.eye(4)[:, :2]
        obj = ProjectionObjective(c)
        assert obj.value(c) == 0.0
        npt.assert_array_equal(obj.gradient(c), np.zeros((4, 2)))

    def test_value_on_manifold_with_zero_target(self):
        obj = ProjectionObjective(np.zeros((5, 3)))
        x = random_stiefel_start(5, 3, 8)
        npt.assert_allclose(obj.value(x.mat), 3.0)

    def test_exact_hessian_vec(self):
        obj = ProjectionObjective(np.zeros((3, 2)))
        h = np.arange(6.0).reshape(3, 2)
        npt.assert_array_equal(obj.hessian_vec(np.ones((3, 2)), h), 2.0 * h)

    def test_finite_difference(self, fd_check):
        rng = np.random.default_rng(9)
        obj = ProjectionObjective(rng.standard_normal((4, 2)))
        for _ in range(5):
            fd_check(obj, rng.standard_normal((4, 2)), tol=1e-6)


class TestLinearObjective:
    def test_value_grad_hessian(self):
        g = np.array([[1.0, -2.0], [0.5, 0.0]])
        obj = LinearObjective(g)
        x = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert obj.value(x) == 1.0 * 2 - 2.0 * 1 + 0.5 * 1
        npt.assert_array_equal(obj.gradient(x), g)
        npt.assert_array_equal(obj.hessian_vec(x, x), np.zeros((2, 2)))


class TestOnmf:
    def test_y_update_reduces_for_orthonormal_x(self):
        rng = np.random.default_rng(10)
        a = rng.random((6, 4))
        x = random_stiefel_start(6, 2, 11)
        npt.assert_allclose(onmf_y_update(a, x.mat), np.maximum(0.0, a.T @ x.mat), atol=1e-12)

    def test_factor_gradient(self, fd_check):
        rng = np.random.default_rng(12)
        obj = OnmfFactorObjective(rng.random((5, 4)), rng.random((4, 2)))
        for _ in range(5):
            fd_check(obj, rng.standard_normal((5, 2)), tol=1e-6)

    def test_exact_factorization_is_fixed_point(self):
        inst, labels, x_true, y_true = planted_onmf_instance(12, 6, 3, noise=0.0, seed=13)
        x0 = StiefelPointFromTrue(x_true)
        x, y, history = onmf_alternate(inst, x0, default_config("seppg_plus", "onmf", inst), max_rounds=3)
        assert history[0] <= 1e-20
        npt.assert_allclose(x.mat, x_true, atol=1e-10)

    def test_alternation_monotone(self):
        inst, *_ = planted_onmf_instance(15, 8, 3, noise=0.3, seed=14)
        x0 = random_stiefel_start(15, 3, 15)
        _, _, history = onmf_alternate(inst, x0, default_config("seppg_plus", "onmf", inst), max_rounds=10)
        assert all(b <= a + 1e-8 for a, b in zip(history, history[1:]))

    def test_planted_clusters_recovered_at_zero_noise(self):
        inst, labels, _, _ = planted_onmf_instance(30, 10, 3, noise=0.0, seed=16)
        x, _, _ = onmf_alternate(inst, svd_start(inst.a, 3), default_config("seppg_plus", "onmf", inst))
        pidx, _, nmi = clustering_metrics(labels, cluster_labels(x.mat), 3)
        assert pidx == 1.0
        assert nmi == 1.0

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            OnmfInstance(a=-np.ones((3, 3)), r=2)
        with pytest.raises(ValueError):
            OnmfInstance(a=np.ones((3, 3)), r=5)


def StiefelPointFromTrue(x_true):
    from orthopt.stiefel import StiefelPoint

    return StiefelPoint(x_true)


class TestStarts:
    def test_gaussian_qr_deterministic(self):
        a = random_stiefel_start(6, 3, 17)
        b = random_stiefel_start(6, 3, 17)
        npt.assert_array_equal(a.mat, b.mat)

    def test_gaussian_qr_orthonormal(self):
        assert random_stiefel_start(8, 4, 18).orth_residual <= 1e-12

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            random_stiefel_start(6, 3, -1)

    def test_svd_start_feasible(self):
        rng = np.random.default_rng(22)
        x = svd_start(rng.random((8, 5)), 2)
        assert nonneg_violation(x.mat) == 0.0
        assert x.orth_residual <= 1e-10


def test_cluster_labels():
    x = np.array([[0.9, 0.0], [0.0, 0.7], [0.8, 0.0]])
    npt.assert_array_equal(cluster_labels(x), [1, 2, 1])


def test_onmf_alternate_accepts_custom_solver():
    inst, *_ = planted_onmf_instance(10, 5, 2, noise=0.1, seed=23)
    calls = []

    from orthopt.driver import penalty_solve

    def solve(obj, x, cfg):
        calls.append(cfg)
        return penalty_solve(obj, x, cfg)

    x0 = random_stiefel_start(10, 2, 24)
    cfg = PenaltyConfig(gamma=0.0, rho0=1.0)
    onmf_alternate(inst, x0, cfg, solve=solve, max_rounds=2)
    assert calls and all(c is cfg for c in calls)


def _fused_cases():
    from orthopt.driver import AugLagObjective
    from orthopt.penalty import PenaltyObjective

    rng = np.random.default_rng(17)
    proj = ProjectionObjective(rng.standard_normal((4, 4)))
    return {
        "qap": QapLiftedObjective(random_instance(4, 18)),
        "gm": GraphMatchingObjective(AffinityInstance(rng.random((16, 16)))),
        "proj": proj,
        "penalty_envelope": PenaltyObjective(proj, 3.0, 0.05),
        "penalty_quadratic": PenaltyObjective(proj, 3.0, 0.0),
        "auglag": AugLagObjective(proj, np.abs(rng.standard_normal((4, 4))), 2.5),
        "onmf": OnmfFactorObjective(rng.random((4, 5)), rng.random((5, 4))),
    }


@pytest.mark.parametrize("name", sorted(_fused_cases()))
def test_fused_evaluation_is_bitwise_value_and_gradient(name):
    obj = _fused_cases()[name]
    for seed in range(3):
        x = random_stiefel_start(4, 4, seed).mat
        val, grad = obj.value_and_gradient(x)
        assert val == obj.value(x)
        npt.assert_array_equal(grad, obj.gradient(x))
