"""Penalty terms: closed forms, gradients, and envelope properties; the
evaluation contract of ``Objective``.

Both penalties are read through the one kernel, ``penalty_terms``: index 0
is the value and index 1 the gradient.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthopt
from orthopt.driver import AugLagObjective
from orthopt.penalty import (
    Objective,
    PenaltyObjective,
    nonneg_violation,
    penalty_terms,
)
from orthopt.problems import (
    GraphMatchingObjective,
    OnmfFactorObjective,
    ProjectionObjective,
    QapLiftedObjective,
)

from helpers import prox_nonneg_violation

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
# magnitudes bounded away from the subnormal range: squaring must not underflow
coarse_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=-10.0, max_value=-1e-6),
)
gammas = st.floats(min_value=1e-3, max_value=2.0)


class TestViolation:
    def test_zero_on_nonnegative(self):
        assert nonneg_violation(np.array([[0.0, 1.0], [2.0, 3.0]])) == 0.0

    def test_hand_value(self):
        assert nonneg_violation(np.array([[-1.0, 2.0], [0.0, -3.0]])) == 4.0


class TestProx:
    def test_nonnegative_fixed(self):
        assert prox_nonneg_violation(np.array([[0.3]]), 0.05)[0, 0] == 0.3

    def test_small_negative_snaps_to_zero(self):
        assert prox_nonneg_violation(np.array([[-0.02]]), 0.05)[0, 0] == 0.0

    def test_large_negative_shifts(self):
        npt.assert_allclose(prox_nonneg_violation(np.array([[-0.10]]), 0.05)[0, 0], -0.05)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            prox_nonneg_violation(np.zeros((1, 1)), 0.0)

    @given(finite_floats, finite_floats, gammas)
    @settings(max_examples=200, deadline=None)
    def test_one_lipschitz(self, a, b, gamma):
        pa = prox_nonneg_violation(np.array([a]), gamma)
        pb = prox_nonneg_violation(np.array([b]), gamma)
        # slack covers one rounding of x + gamma at the tested magnitudes
        assert abs(pa[0] - pb[0]) <= abs(a - b) + 1e-12

    def test_one_lipschitz_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.standard_normal((4, 3))
            b = rng.standard_normal((4, 3))
            d = np.linalg.norm(
                prox_nonneg_violation(a, 0.1) - prox_nonneg_violation(b, 0.1)
            )
            assert d <= np.linalg.norm(a - b) + 1e-12


class TestPenaltyTerms:
    @pytest.mark.parametrize("gamma", [-0.1, float("nan")])
    def test_gamma_must_be_nonnegative(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            penalty_terms(np.zeros((2, 2)), gamma)


class TestEnvelope:
    def test_zero_on_nonnegative(self):
        assert penalty_terms(np.array([[0.0, 2.0]]), 0.05)[0] == 0.0

    def test_quadratic_zone(self):
        npt.assert_allclose(
            penalty_terms(np.array([[-0.02]]), 0.05)[0], 0.004
        )

    def test_linear_zone(self):
        npt.assert_allclose(
            penalty_terms(np.array([[-0.10]]), 0.05)[0], 0.075
        )

    @given(st.lists(finite_floats, min_size=1, max_size=8), gammas)
    @settings(max_examples=200, deadline=None)
    def test_minorizes_violation(self, entries, gamma):
        x = np.asarray(entries)
        env = penalty_terms(x, gamma)[0]
        assert -1e-12 <= env <= nonneg_violation(x) + 1e-12

    @given(st.lists(coarse_floats, min_size=1, max_size=8), gammas)
    @settings(max_examples=200, deadline=None)
    def test_zero_sets_coincide(self, entries, gamma):
        x = np.asarray(entries)
        zero_env = penalty_terms(x, gamma)[0] == 0.0
        zero_l1 = nonneg_violation(x) == 0.0
        zero_quad = penalty_terms(x, 0.0)[0] == 0.0
        assert zero_env == zero_l1 == zero_quad

    def test_matches_scalar_minimization(self):
        # e(x) = min_z { (z - x)^2 / (2 gamma) + max(0, -z) } on a fine grid
        gamma = 0.05
        for x in (-0.3, -0.06, -0.02, 0.0, 0.4):
            grid = np.linspace(x - 1.5, x + 1.5, 600001)
            oracle = np.min((grid - x) ** 2 / (2 * gamma) + np.maximum(0.0, -grid))
            npt.assert_allclose(
                penalty_terms(np.array([x]), gamma)[0], oracle, atol=1e-9
            )

    def test_matches_joint_minimization_2x2(self):
        # coarse joint grid over 2x2 inputs confirms the entrywise decoupling
        gamma = 0.1
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.5, 0.5, size=(2, 2))
        axis = np.linspace(-1.0, 1.0, 41)
        zs = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1)
        zs = zs.reshape(-1, 2, 2)
        vals = np.sum((zs - x) ** 2, axis=(1, 2)) / (2 * gamma) + np.sum(
            np.maximum(0.0, -zs), axis=(1, 2)
        )
        oracle = float(np.min(vals))
        env = penalty_terms(x, gamma)[0]
        assert abs(env - oracle) <= 0.02
        assert env <= oracle + 1e-12  # grid only overestimates the true minimum


def three_zone(x, gamma):
    """The envelope's per-entry zones written out: value and gradient."""
    value = np.where(x < -gamma, -x - 0.5 * gamma, np.where(x < 0.0, x * x / (2.0 * gamma), 0.0))
    grad = np.where(x < -gamma, -1.0, np.where(x < 0.0, x / gamma, 0.0))
    return float(value.sum()), grad


@st.composite
def _envelope_cases(draw):
    """A gamma and entries from every zone: exactly -gamma, exactly 0 (of
    either sign), inside (-gamma, 0), far below -gamma, and anywhere."""
    gamma = draw(gammas)
    entry = st.one_of(
        st.just(-gamma),
        st.sampled_from([0.0, -0.0]),
        st.floats(min_value=-gamma, max_value=-1e-6).filter(lambda v: v < 0.0),
        st.floats(min_value=-1e6, max_value=-10.0 * gamma),
        coarse_floats,
    )
    return np.asarray(draw(st.lists(entry, min_size=1, max_size=12))), gamma


@given(_envelope_cases())
@settings(max_examples=300, deadline=None)
def test_envelope_closed_form_matches_the_three_zones(case):
    x, gamma = case
    value, grad = penalty_terms(x, gamma)
    ref_value, ref_grad = three_zone(x, gamma)
    npt.assert_allclose(value, ref_value, rtol=1e-12, atol=0.0)
    # exact: x / gamma on [-gamma, 0], -1 below, 0 above
    npt.assert_array_equal(grad, ref_grad)


class TestEnvelopeGradient:
    def test_zero_on_nonnegative(self):
        npt.assert_array_equal(
            penalty_terms(np.array([[1.0, 0.5]]), 0.05)[1],
            np.zeros((1, 2)),
        )

    def test_quadratic_zone_slope(self):
        npt.assert_allclose(
            penalty_terms(np.array([[-0.02]]), 0.05)[1][0, 0], -0.4
        )

    def test_finite_difference(self, fd_grad):
        rng = np.random.default_rng(2)
        gamma = 0.05
        count = 0
        while count < 10:
            x = rng.uniform(-1.0, 1.0, size=(3, 2))
            if np.any(np.abs(x) < 1e-4) or np.any(np.abs(x + gamma) < 1e-4):
                continue
            count += 1
            numeric = fd_grad(lambda z: penalty_terms(z, gamma)[0], x)
            analytic = penalty_terms(x, gamma)[1]
            err = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(analytic), 1e-12)
            assert err <= 1e-6


class TestQuadPenalty:
    def test_zero_on_nonnegative(self):
        x = np.array([[0.0, 1.0]])
        assert penalty_terms(x, 0.0)[0] == 0.0
        npt.assert_array_equal(penalty_terms(x, 0.0)[1], np.zeros((1, 2)))

    def test_hand_values(self):
        assert penalty_terms(np.array([[-2.0]]), 0.0)[0] == 4.0
        npt.assert_array_equal(penalty_terms(np.array([[-2.0]]), 0.0)[1], [[-4.0]])

    def test_equals_squared_cone_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal((3, 3))
            dist2 = np.linalg.norm(x - np.maximum(x, 0.0)) ** 2
            npt.assert_allclose(penalty_terms(x, 0.0)[0], dist2, rtol=1e-12)

    def test_finite_difference(self, fd_grad):
        rng = np.random.default_rng(4)
        count = 0
        while count < 10:
            x = rng.uniform(-1.0, 1.0, size=(3, 2))
            if np.any(np.abs(x) < 1e-4):
                continue
            count += 1
            numeric = fd_grad(lambda z: penalty_terms(z, 0.0)[0], x)
            analytic = penalty_terms(x, 0.0)[1]
            err = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(analytic), 1e-12)
            assert err <= 1e-6


class TestCompositePenalty:
    def test_value_on_feasible_point(self):
        c = np.eye(4)[:, :2]
        f = ProjectionObjective(np.ones((4, 2)))
        for gamma in (0.0, 0.05):
            val, _ = PenaltyObjective(f, 7.0, gamma).value_and_gradient(c)
            npt.assert_allclose(val, f.value(c))

    def test_rho_zero_reduces_to_objective(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2))
        f = ProjectionObjective(rng.standard_normal((4, 2)))
        val, grad = PenaltyObjective(f, 0.0, 0.05).value_and_gradient(x)
        npt.assert_allclose(val, f.value(x))
        npt.assert_allclose(grad, f.gradient(x))

    def test_finite_difference(self, fd_grad):
        rng = np.random.default_rng(6)
        f = ProjectionObjective(rng.standard_normal((3, 2)))
        obj = PenaltyObjective(f, 3.0, 0.05)
        count = 0
        while count < 10:
            x = rng.uniform(-1.0, 1.0, size=(3, 2))
            if np.any(np.abs(x) < 1e-4) or np.any(np.abs(x + obj.gamma) < 1e-4):
                continue
            count += 1
            numeric = fd_grad(obj.value, x)
            analytic = obj.gradient(x)
            err = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
            assert err <= 1e-6

    def test_params_validation(self):
        f = ProjectionObjective(np.eye(3)[:, :2])
        with pytest.raises(ValueError):
            PenaltyObjective(f, -1.0, 0.05)
        with pytest.raises(ValueError):
            PenaltyObjective(f, 1.0, -0.1)


class TestObjectiveContract:
    def test_subclass_without_value_and_gradient_is_rejected_at_instantiation(self):
        # value and gradient are parts of value_and_gradient, not a second way
        class Separate(Objective):
            def value(self, x):
                return 0.0

            def gradient(self, x):
                return np.zeros_like(x)

        with pytest.raises(TypeError, match="value_and_gradient"):
            Separate()

    def test_hessian_vec_default_is_a_difference_of_gradients(self):
        # ||X - C||^2 through value_and_gradient alone: its Hessian is 2 h
        c = np.random.default_rng(0).standard_normal((5, 3))

        class Quadratic(Objective):
            def value_and_gradient(self, x):
                d = x - c
                return float(np.sum(d * d)), 2.0 * d

        rng = np.random.default_rng(1)
        x, h = rng.standard_normal((2, 5, 3))
        npt.assert_allclose(Quadratic().hessian_vec(x, h), 2.0 * h, rtol=0, atol=1e-9)

    def test_value_and_gradient_alone_gives_value_and_gradient(self):
        class Fused(Objective):
            def value_and_gradient(self, x):
                return float(np.sum(x)), 2.0 * x

        x = np.arange(6.0).reshape(3, 2)
        assert Fused().value(x) == 15.0
        npt.assert_array_equal(Fused().gradient(x), 2.0 * x)

    @pytest.mark.parametrize(
        "cls",
        [
            QapLiftedObjective,
            GraphMatchingObjective,
            ProjectionObjective,
            OnmfFactorObjective,
            PenaltyObjective,
            AugLagObjective,
        ],
    )
    def test_builtin_objectives_define_only_value_and_gradient(self, cls):
        assert "value_and_gradient" in vars(cls)
        # the tracer-patched classes bind the base's methods in their namespace
        assert cls.value is Objective.value
        assert cls.gradient is Objective.gradient


@pytest.mark.parametrize(
    "name",
    [
        "brute_force_qap",
        "svd_start",
        "LinearObjective",
        "nonexactness_probe_point",
        "nonexactness_probe_objective",
        "zero_row_family",
        "window_max_values",
    ],
)
def test_test_only_symbols_left_the_package(name):
    for owner in (orthopt, orthopt.problems, orthopt.diagnostics, orthopt.PgmTrace):
        assert not hasattr(owner, name)
