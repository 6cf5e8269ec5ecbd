"""Inner solver: step-size rule, line search, and solve-level guarantees."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthopt.penalty import Objective, PenaltyObjective
from orthopt.pgm import (
    _ALPHA, _ETA, _T_MAX, _T_MIN, LineSearchError, PgmConfig, _bb_stepsize, pgm_solve,
)
from orthopt.problems import ProjectionObjective, random_stiefel_start
from orthopt.stiefel import StiefelPoint, orthogonality_residual

from helpers import window_max_values


class TestBbStepsize:
    def test_equal_differences_give_one(self):
        d = np.array([1.0, 2.0, -1.0])
        assert _bb_stepsize(d, d, fallback=7.0) == 1.0

    def test_hand_example(self):
        assert _bb_stepsize(np.array([1.0, 0.0]), np.array([2.0, 0.0]), 1.0) == 0.5

    def test_orthogonal_differences_fall_back(self):
        t = _bb_stepsize(np.array([1.0, 0.0]), np.array([0.0, 1.0]), fallback=1.0)
        assert t == 1.0

    def test_zero_differences_fall_back(self):
        assert _bb_stepsize(np.zeros(3), np.ones(3), fallback=0.25) == 0.25
        assert _bb_stepsize(np.ones(3), np.zeros(3), fallback=0.25) == 0.25

    def test_clamping(self):
        d = np.array([1.0])
        assert _bb_stepsize(d, 1e14 * d, 1.0) == _T_MIN
        assert _bb_stepsize(d, 1e-14 * d, 1.0) == _T_MAX
        # fallback is clamped too
        assert _bb_stepsize(np.zeros(1), np.zeros(1), 1e13) == _T_MAX
        assert _bb_stepsize(np.zeros(1), np.zeros(1), 0.0) == _T_MIN

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _bb_stepsize(np.zeros(2), np.zeros(3), 1.0)


class TestPgmStep:
    def test_accepted_step_satisfies_decrease(self):
        x = random_stiefel_start(5, 2, 1)
        obj = ProjectionObjective(np.eye(5)[:, :2])
        cfg = PgmConfig()
        _, trace = pgm_solve(obj, x, cfg)
        assert trace.iterations > 0
        wmax = window_max_values(trace, cfg.memory)
        for k in range(trace.iterations):
            bound = wmax[k] - _ALPHA / (2.0 * trace.step_sizes[k]) * trace.v_norms[k] ** 2
            assert trace.values[k + 1] <= bound

    def test_wrong_gradient_exhausts_backtracks(self):
        x = random_stiefel_start(5, 3, 3)

        class Ascent(Objective):
            def __init__(self):
                self.inner = ProjectionObjective(np.eye(5)[:, :3])

            def value_and_gradient(self, z):
                val, grad = self.inner.value_and_gradient(z)
                # wrong sign: ascent direction; every trial also sits 1 above
                # the start, so no step, however short, stalls at roundoff level
                return val + float(z is not x.mat), -grad

        obj = Ascent()
        with pytest.raises(LineSearchError) as exc:
            pgm_solve(obj, x, PgmConfig(max_iters=5))
        assert exc.value.trace is not None


class RecordingObjective(Objective):
    """Wraps an objective and records every gradient-evaluation point."""

    def __init__(self, inner):
        self.inner = inner
        self.grad_points = []

    def value_and_gradient(self, x):
        self.grad_points.append(np.array(x))
        return self.inner.value_and_gradient(x)


class TestPgmSolve:
    def test_stationary_start_returns_immediately(self):
        c = np.eye(4)[:, :2]
        obj = ProjectionObjective(c)
        x0 = StiefelPoint(c)
        x, trace = pgm_solve(obj, x0, PgmConfig(grad_tol=1e-8))
        assert x is x0
        assert trace.iterations == 0
        assert trace.converged

    def test_projection_converges(self):
        obj = ProjectionObjective(np.eye(4)[:, :2])
        x0 = random_stiefel_start(4, 2, 4)
        x, trace = pgm_solve(obj, x0, PgmConfig(grad_tol=1e-8))
        assert trace.converged
        assert trace.iterations < 200
        assert trace.grad_norms[-1] <= 1e-8

    def test_objective_decreases_over_accepted_steps(self):
        obj = ProjectionObjective(np.eye(6)[:, :3])
        x0 = random_stiefel_start(6, 3, 5)
        _, trace = pgm_solve(obj, x0, PgmConfig(grad_tol=1e-8, memory=0))
        values = np.asarray(trace.values)
        assert np.all(np.diff(values) < 0)

    def test_monotone_window_with_zero_memory(self):
        obj = ProjectionObjective(np.eye(5)[:, :2])
        x0 = random_stiefel_start(5, 2, 6)
        cfg = PgmConfig(grad_tol=1e-8, memory=0)
        _, trace = pgm_solve(obj, x0, cfg)
        for k in range(trace.iterations):
            bound = trace.values[k] - _ALPHA / (2.0 * trace.step_sizes[k]) * trace.v_norms[k] ** 2
            assert trace.values[k + 1] <= bound + 1e-15

    def test_window_max_nonincreasing(self):
        obj = ProjectionObjective(np.eye(6)[:, :3])
        x0 = random_stiefel_start(6, 3, 7)
        _, trace = pgm_solve(obj, x0, PgmConfig(grad_tol=1e-8, memory=5))
        wmax = window_max_values(trace, 5)
        assert all(b <= a + 1e-15 for a, b in zip(wmax, wmax[1:]))

    def test_no_value_exceeds_start(self):
        obj = ProjectionObjective(np.eye(6)[:, :3])
        x0 = random_stiefel_start(6, 3, 8)
        _, trace = pgm_solve(obj, x0, PgmConfig(grad_tol=1e-8))
        assert max(trace.values) <= trace.values[0] + 1e-15

    def test_first_step_within_bounds(self):
        cfg = PgmConfig(grad_tol=1e-8)
        obj = ProjectionObjective(np.eye(5)[:, :2])
        _, trace = pgm_solve(obj, random_stiefel_start(5, 2, 9), cfg)
        assert _T_MIN <= trace.step_sizes[0] <= _T_MAX

    @pytest.mark.parametrize("t_first,t_init", [(0.37, 0.37), (1e20, 1e12), (1e-20, 1e-12)])
    def test_first_step_starts_from_t_first_clamped(self, t_first, t_init):
        cfg = PgmConfig(grad_tol=1e-8)
        obj = ProjectionObjective(np.eye(5)[:, :2])
        _, trace = pgm_solve(obj, random_stiefel_start(5, 2, 9), cfg, t_first=t_first)
        for _ in range(trace.backtracks[0]):
            t_init *= _ETA
        assert trace.step_sizes[0] == t_init

    @pytest.mark.parametrize("t_first", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_t_first_rejected(self, t_first):
        obj = ProjectionObjective(np.eye(5)[:, :2])
        with pytest.raises(ValueError, match=rf"^t_first must be positive and finite, got {t_first}$"):
            pgm_solve(obj, random_stiefel_start(5, 2, 9), PgmConfig(), t_first=t_first)

    def test_iterates_stay_orthonormal(self):
        obj = RecordingObjective(ProjectionObjective(np.eye(6)[:, :3]))
        pgm_solve(obj, random_stiefel_start(6, 3, 10), PgmConfig(grad_tol=1e-8))
        for mat in obj.grad_points:
            assert orthogonality_residual(mat) <= 1e-10

    def test_final_direction_small_at_stationarity(self):
        cfg = PgmConfig(grad_tol=1e-8)
        obj = ProjectionObjective(np.eye(4)[:, :2])
        x, trace = pgm_solve(obj, random_stiefel_start(4, 2, 11), cfg)
        assert trace.converged
        # the direction the next step would take vanishes with the gradient
        assert trace.step_sizes[-1] * trace.grad_norms[-1] <= 1e-6

    def test_solved_point_is_the_array_of_its_last_evaluation(self):
        # the record is found by identity: the returned point adopts the
        # read-only array that the objective last evaluated
        obj = PenaltyObjective(ProjectionObjective(np.eye(6)[:, :3]), 2.0, 0.05)
        x0 = random_stiefel_start(6, 3, 13)
        x, trace = pgm_solve(obj, x0, PgmConfig(grad_tol=1e-8))
        assert trace.converged and trace.iterations > 0
        assert obj.last[0] is x.mat
        assert not x.mat.flags.writeable

    def test_convergence_at_the_iteration_cap_returns_the_last_iterate(self):
        # the stopping test and the cap end the loop at the same step: the
        # solve counts as converged and returns its last iterate
        obj = ProjectionObjective(np.eye(6)[:, :3])
        x0 = random_stiefel_start(6, 3, 12)
        x, trace = pgm_solve(obj, x0, PgmConfig(grad_tol=1e-8))
        k = trace.iterations
        assert trace.converged and k > 0
        capped, capped_trace = pgm_solve(obj, x0, PgmConfig(grad_tol=1e-8, max_iters=k))
        assert capped_trace.converged and capped_trace.iterations == k
        assert capped_trace.grad_norms[-1] <= 1e-8
        npt.assert_array_equal(capped.mat, x.mat)

    def test_exhaustion_returns_best_window_point(self):
        obj = ProjectionObjective(np.eye(6)[:, :3])
        x0 = random_stiefel_start(6, 3, 12)
        cfg = PgmConfig(grad_tol=1e-14, max_iters=10)
        x, trace = pgm_solve(obj, x0, cfg)
        assert not trace.converged
        assert obj.value(x.mat) <= min(trace.values[-(cfg.memory + 1):]) + 1e-15


class FusedOnlyObjective(Objective):
    """Counts fused evaluations; the separate value/gradient calls must not be used."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def value(self, x):
        raise AssertionError("pgm_solve called value instead of value_and_gradient")

    def gradient(self, x):
        raise AssertionError("pgm_solve called gradient instead of value_and_gradient")

    def value_and_gradient(self, x):
        self.calls += 1
        return self.inner.value(x), self.inner.gradient(x)


class TestEvaluationCount:
    def test_one_fused_evaluation_per_trial_point(self):
        obj = FusedOnlyObjective(ProjectionObjective(np.eye(6)[:, :3]))
        _, trace = pgm_solve(obj, random_stiefel_start(6, 3, 14), PgmConfig(grad_tol=1e-8))
        assert trace.converged and trace.iterations > 0
        assert trace.evaluations == obj.calls
        # the start, then bt + 1 trials per accepted step; accepted gradients are reused
        assert trace.evaluations == 1 + sum(bt + 1 for bt in trace.backtracks)

    def test_stationary_start_costs_one_evaluation(self):
        c = np.eye(4)[:, :2]
        obj = FusedOnlyObjective(ProjectionObjective(c))
        _, trace = pgm_solve(obj, StiefelPoint(c), PgmConfig(grad_tol=1e-8))
        assert trace.evaluations == obj.calls == 1


class NanGradientAfterFirstCall(Objective):
    def __init__(self, inner):
        self.inner = inner
        self.grad_calls = 0

    def value_and_gradient(self, x):
        self.grad_calls += 1
        val, g = self.inner.value_and_gradient(x)
        return val, g if self.grad_calls == 1 else np.full_like(g, np.nan)


class TestNonFinite:
    def test_nan_gradient_raises_value_error(self):
        obj = NanGradientAfterFirstCall(ProjectionObjective(np.eye(5)[:, :2]))
        with pytest.raises(ValueError, match="NaN or Inf"):
            pgm_solve(obj, random_stiefel_start(5, 2, 15), PgmConfig())
        assert obj.grad_calls >= 2

    def test_overflowing_trial_point_raises_value_error(self):
        class Huge(Objective):
            inner = ProjectionObjective(np.eye(5)[:, :2])

            def value_and_gradient(self, x):
                val, grad = self.inner.value_and_gradient(x)
                return val, 1e300 * grad

        # finite gradient entries, but the step -t * g overflows to Inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="NaN or Inf"):
                pgm_solve(Huge(), random_stiefel_start(5, 2, 16), PgmConfig(), t_first=1e10)


def test_non_finite_trial_point_is_named_before_evaluation():
    # pgm_solve tests a trial point by the sum of its entries and names the
    # fault with check_matrix's message; the objective is evaluated at x0 only
    x0 = random_stiefel_start(5, 2, 17)
    seen = []

    class HugeGradient(Objective):
        def value_and_gradient(self, x):
            seen.append(x)
            return 1.0, np.full((5, 2), 1e300)

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^retracted trial point contains NaN or Inf entries$"):
            pgm_solve(HugeGradient(), x0, PgmConfig(), t_first=1e10)
    assert len(seen) == 1 and seen[0] is x0.mat


class TestPgmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PgmConfig(memory=-1)
        with pytest.raises(ValueError):
            PgmConfig(grad_tol=0.0)


class WrongSignLinear(Objective):
    """value 1 + <G, X> with the gradient's sign flipped: every line-search
    direction is an ascent direction to first order, so backtracking ends in
    the stall path (or accepts a step the retraction's curvature makes
    downhill)."""

    def __init__(self, g):
        self.g = g

    def value_and_gradient(self, x):
        return 1.0 + float(np.sum(self.g * x)), -self.g


@st.composite
def _stall_cases(draw):
    n = draw(st.integers(2, 7))
    r = draw(st.integers(1, n))
    return n, r, draw(st.integers(0, 2**16)), draw(st.sampled_from([0, 5]))


@settings(max_examples=60, deadline=None)
@given(_stall_cases())
# a cancelling value: the retraction's roundoff moves it by more than the
# float spacing of the window maximum, so the stall margin must cover both
@example((4, 4, 2, 0))
def test_stalled_steps_leave_value_and_iterate_unchanged(case):
    n, r, seed, memory = case
    g = np.random.default_rng([seed, 1]).standard_normal((n, r))
    obj = WrongSignLinear(g)
    x0 = random_stiefel_start(n, r, seed)
    cfg = PgmConfig(max_iters=5, memory=memory)
    x, trace = pgm_solve(obj, x0, cfg)

    assert trace.evaluations == 1 + sum(bt + 1 for bt in trace.backtracks)
    assert obj.value(x.mat) <= trace.values[0]
    stalled = [k for k, v in enumerate(trace.v_norms) if v == 0.0]
    for k in stalled:
        assert trace.values[k + 1] == trace.values[k]
        assert trace.grad_norms[k + 1] == trace.grad_norms[k]
    if trace.iterations and len(stalled) == trace.iterations:
        assert x is x0
    if memory == 0:
        # a monotone run returns its current iterate, so a run cut after k
        # steps exposes iterate k
        iterates = [x0.mat] + [
            pgm_solve(obj, x0, PgmConfig(max_iters=m, memory=0))[0].mat
            for m in range(1, trace.iterations + 1)
        ]
        for k in stalled:
            npt.assert_array_equal(iterates[k + 1], iterates[k])


def test_wrong_sign_gradient_stalls_at_the_start():
    """A seeded (5, 2) case whose every step stalls."""
    g = np.random.default_rng([0, 1]).standard_normal((5, 2))
    x0 = random_stiefel_start(5, 2, 0)
    x, trace = pgm_solve(WrongSignLinear(g), x0, PgmConfig(max_iters=5))
    assert trace.iterations == 5
    assert trace.v_norms == [0.0] * 5
    assert x is x0


class FlooredObjective(Objective):
    """An objective clipped below at a floor, keeping the unclipped gradient:
    once the value reaches the floor, no step can lower it and each stalls."""

    def __init__(self, inner, floor):
        self.inner = inner
        self.floor = floor

    def value_and_gradient(self, x):
        val, grad = self.inner.value_and_gradient(x)
        return max(val, self.floor), grad


def _stalling_case(name):
    if name == "wrong_sign":
        g = np.random.default_rng([0, 1]).standard_normal((5, 2))
        return WrongSignLinear(g), random_stiefel_start(5, 2, 0)
    inner = ProjectionObjective(np.eye(6)[:, :3])
    x0 = random_stiefel_start(6, 3, 5)
    return FlooredObjective(inner, 0.5 * inner.value(x0.mat)), x0


@pytest.mark.parametrize("memory", [0, 5])
@pytest.mark.parametrize("name", ["wrong_sign", "floored"])
def test_repeating_stall_ends_the_solve_with_the_cap_result(name, memory):
    """A stall at the window maximum whose next step starts from the same
    trial step repeats bit for bit; the solve returns at once what the cap
    returns once the repeats fill the window."""
    obj, x0 = _stalling_case(name)
    x, trace = pgm_solve(obj, x0, PgmConfig(memory=memory))
    first_stall = trace.v_norms.index(0.0)
    assert trace.iterations <= first_stall + memory + 2
    assert trace.v_norms[-1] == 0.0 and not trace.converged

    # the last step repeats from then on; a cap memory steps later leaves
    # the shortcut no room, and the repeats fill the window
    cap = PgmConfig(memory=memory, max_iters=trace.iterations - 1 + memory)
    x_cap, trace_cap = pgm_solve(obj, x0, cap)
    assert trace_cap.iterations == cap.max_iters
    k = trace.iterations - 1
    for seq in (trace_cap.step_sizes, trace_cap.backtracks, trace_cap.values[1:]):
        assert len(set(seq[k:])) <= 1
    npt.assert_array_equal(x.mat, x_cap.mat)
    assert (x is x0) == (x_cap is x0)
    assert obj.value(x.mat) == obj.value(x_cap.mat)
    assert trace.converged == trace_cap.converged
    assert trace.last_step == trace_cap.last_step


@pytest.mark.parametrize("t_first", [None, 0.37])
class TestLastStep:
    """``PgmTrace.last_step``: the step an outer driver carries into its next
    subproblem."""

    def test_stationary_start_keeps_t_first(self, t_first):
        c = np.eye(4)[:, :2]
        _, trace = pgm_solve(
            ProjectionObjective(c), StiefelPoint(c), PgmConfig(grad_tol=1e-8), t_first=t_first
        )
        assert trace.iterations == 0
        assert trace.last_step == t_first

    def test_all_stalled_solve_keeps_t_first(self, t_first):
        g = np.random.default_rng([0, 1]).standard_normal((5, 2))
        x0 = random_stiefel_start(5, 2, 0)
        _, trace = pgm_solve(WrongSignLinear(g), x0, PgmConfig(max_iters=5), t_first=t_first)
        assert trace.v_norms == [0.0] * 5
        assert trace.last_step == t_first

    def test_converged_solve_carries_its_last_step(self, t_first):
        obj = ProjectionObjective(np.eye(6)[:, :3])
        x0 = random_stiefel_start(6, 3, 5)
        _, trace = pgm_solve(obj, x0, PgmConfig(grad_tol=1e-8), t_first=t_first)
        assert trace.converged and trace.iterations > 0
        assert 0.0 not in trace.v_norms
        assert trace.last_step == trace.step_sizes[-1]

    def test_stalls_after_accepted_steps_carry_the_last_accepted_step(self, t_first):
        inner = ProjectionObjective(np.eye(6)[:, :3])
        x0 = random_stiefel_start(6, 3, 5)
        obj = FlooredObjective(inner, 0.5 * inner.value(x0.mat))
        _, trace = pgm_solve(obj, x0, PgmConfig(max_iters=12, memory=0), t_first=t_first)
        accepted = [k for k, v in enumerate(trace.v_norms) if v > 0.0]
        assert accepted and accepted[-1] < trace.iterations - 1
        assert trace.last_step == trace.step_sizes[accepted[-1]]
        # backtracking ended far lower in the stalled steps
        assert trace.step_sizes[-1] < 1e-6 * trace.last_step


@pytest.mark.parametrize("field", ["memory", "max_iters"])
@pytest.mark.parametrize("value", [1e4, 2.5, True])
def test_integer_fields_reject_non_integers(field, value):
    with pytest.raises(ValueError, match=field):
        PgmConfig(**{field: value})
