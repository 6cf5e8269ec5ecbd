"""Outer solvers: rounding, penalty driver, ALM, stationarity residual."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orthopt import driver, problems
from orthopt.bench import clustering_metrics, default_config
from orthopt.diagnostics import default_base_point
from orthopt.driver import (
    AugLagObjective,
    PenaltyConfig,
    alm_solve,
    penalty_solve,
    round_to_feasible,
    stationarity_residual,
)
from orthopt.penalty import PenaltyObjective, nonneg_violation, penalty_terms
from orthopt.pgm import _ETA, _T_MAX, _T_MIN, PgmConfig, PgmTrace, pgm_solve
from orthopt.problems import (
    GraphMatchingObjective,
    OnmfFactorObjective,
    ProjectionObjective,
    QapInstance,
    QapLiftedObjective,
    cluster_labels,
    noisy_projection_target,
    onmf_alternate,
    permutation_matrix,
    planted_onmf_instance,
    random_stiefel_start,
)
from orthopt.stiefel import (
    StiefelPoint,
    orthogonality_residual,
    proj_tangent,
    qr_orthonormalize,
)
from helpers import DATA, LinearObjective, reference_stationarity, shared_row_case
from test_trajectories import TINY, tiny_qap


def assert_feasible(point: StiefelPoint, atol=1e-12):
    mat = point.mat
    assert np.all(mat >= 0.0)
    npt.assert_allclose(np.linalg.norm(mat, axis=0), 1.0, atol=atol)
    # row supports are disjoint across columns
    assert np.all(np.sum(mat > 0, axis=1) <= 1)
    assert point.orth_residual <= 1e-10


class NanGradient(LinearObjective):
    def __init__(self):
        super().__init__(np.zeros((4, 2)))

    def value_and_gradient(self, x):
        return super().value_and_gradient(x)[0], np.full_like(x, np.nan)


class TestRoundToFeasible:
    def test_fixed_point_rectangular(self):
        x = default_base_point(5, 2)
        npt.assert_allclose(round_to_feasible(x.mat).mat, x.mat, atol=1e-15)

    def test_fixed_point_square(self):
        p = permutation_matrix([2, 0, 1])
        npt.assert_array_equal(round_to_feasible(p).mat, p)

    def test_hand_example(self):
        x = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.4]])
        out = round_to_feasible(x).mat
        col0 = np.array([0.9, 0.0, 0.5]) / np.sqrt(1.06)
        col1 = np.array([0.0, 0.8, 0.0]) / 0.8
        npt.assert_allclose(out[:, 0], col0)
        npt.assert_allclose(out[:, 1], col1)

    def test_recovers_noisy_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = permutation_matrix(rng.permutation(3))
            noisy = p + 0.01 * rng.standard_normal((3, 3))
            npt.assert_array_equal(round_to_feasible(noisy).mat, p)

    def test_square_collision_takes_the_repair_donor(self):
        # both rows pick column 0; column 1 takes row 0, its largest entry
        x = np.array([[0.9, 0.8], [0.7, 0.1]])
        out = round_to_feasible(x).mat
        npt.assert_array_equal(out, [[0.0, 1.0], [1.0, 0.0]])
        npt.assert_allclose(np.linalg.norm(x - out), np.sqrt(0.95))

    def test_square_distinct_argmaxes_give_their_permutation(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 5, 20):
            perm = rng.permutation(n)
            x = rng.uniform(-1.0, 0.5, (n, n))
            x[np.arange(n), perm] = 1.0
            npt.assert_array_equal(round_to_feasible(x).mat, permutation_matrix(perm))

    def test_square_inputs_round_to_permutations(self):
        # few distinct values give ties and zeros; whole rows are negated or repeated
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            x = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, n))
            rows = rng.random(n)
            x[rows < 0.2] = -np.abs(x[rows < 0.2]) - 0.1
            x[rows > 0.8] = x[0]
            out = round_to_feasible(x).mat
            assert set(np.unique(out)) <= {0.0, 1.0}
            npt.assert_array_equal(out.sum(axis=0), np.ones(n))
            npt.assert_array_equal(out.sum(axis=1), np.ones(n))

    def test_membership_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            out = round_to_feasible(rng.standard_normal((6, 3)))
            assert_feasible(out)

    def test_empty_column_repair(self):
        # column 1 has no positive entries; the best row moves over
        x = np.array([[1.0, -0.5], [0.8, -0.2], [0.6, -0.9]])
        out = round_to_feasible(x).mat
        assert_feasible(StiefelPoint(out))
        assert np.sum(out[:, 1] > 0) == 1
        assert out[1, 1] == 1.0  # row with the largest entry for column 1

    def test_all_negative_still_feasible(self):
        out = round_to_feasible(-np.ones((4, 2)))
        assert_feasible(out)

    def test_rejects_wide_input(self):
        with pytest.raises(ValueError):
            round_to_feasible(np.ones((2, 3)))

    def test_repair_keeps_sole_supporter(self):
        # column 0's only positive supporter must not be moved to column 1
        x = np.array([[-1.0, -1.0], [-1.0, -1.0], [-1.0, -0.5]])
        assert_feasible(round_to_feasible(x))

    def test_tiny_column_normalizes(self):
        # squares of 1.2e-160 underflow, so the plain column norm is inexact
        x = np.array([[1.2e-160, -1.0], [1.2e-160, -1.0], [-1.0, 1.0]])
        out = round_to_feasible(x)
        assert_feasible(out)
        npt.assert_allclose(out.mat[:2, 0], np.sqrt(0.5))


# few distinct values make ties likely; subnormals and huge magnitudes included
_rounding_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1.2e-160, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _rounding_inputs(draw):
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, n))
    return draw(arrays(np.float64, (n, r), elements=_rounding_entries))


@settings(max_examples=300, deadline=None)
@given(_rounding_inputs())
def test_rounding_always_lands_in_feasible_set(x):
    n, r = x.shape
    out = round_to_feasible(x).mat
    if n == r:
        assert set(np.unique(out)) <= {0.0, 1.0}
        npt.assert_array_equal(out.sum(axis=0), np.ones(r))
        npt.assert_array_equal(out.sum(axis=1), np.ones(n))
        return
    assert np.all(out >= 0.0)
    assert np.all(np.sum(out > 0, axis=1) <= 1)
    assert np.all(np.any(out > 0, axis=0))
    assert orthogonality_residual(out) <= 1e-10


def criterion_config(scale, **fields):
    return PenaltyConfig(rho0=1.0 / scale, tau0=1e-5, sigma_rho_large=1.6, **fields)


class TestPenaltySolve:
    def test_projection_recovers_feasible_target(self):
        c = default_base_point(4, 2)
        f = ProjectionObjective(c.mat)
        rng = np.random.default_rng(2)
        x0 = StiefelPoint(qr_orthonormalize(c.mat + 0.05 * rng.standard_normal((4, 2))))
        cfg = criterion_config(np.linalg.norm(c.mat, 2))
        report = penalty_solve(f, x0, cfg)
        assert report.ninf <= 1e-6
        assert report.f_final <= 1e-8
        assert np.linalg.norm(report.x_final.mat - c.mat) <= 1e-4
        assert report.orth_residual <= 1e-10
        assert not report.flags

    def test_feasible_stationary_start_stops_immediately(self):
        c = default_base_point(5, 2)
        f = ProjectionObjective(c.mat)
        report = penalty_solve(f, c, PenaltyConfig())
        assert report.outer_iters == 1
        assert report.ninf == 0.0
        npt.assert_array_equal(report.x_final.mat, c.mat)

    _SCHEDULE_TARGET = -np.ones((4, 2)) / 2.0
    _SCHEDULE_CFG = PenaltyConfig(
        rho0=0.5, rho_max=3.0, epsilon=1e-14, l_max=60, pgm=PgmConfig(max_iters=200),
    )

    def test_schedules(self, monkeypatch):
        # pull toward the negative orthant so feasibility stays out of reach;
        # with the certified exit off the run goes on to the weight cap
        _never_certify(monkeypatch)
        c = self._SCHEDULE_TARGET
        f = ProjectionObjective(c)
        cfg = self._SCHEDULE_CFG
        report = penalty_solve(f, random_stiefel_start(4, 2, 3), cfg)
        rhos = [rec.rho for rec in report.trace]
        taus = [rec.tau for rec in report.trace]
        assert all(b >= a for a, b in zip(rhos, rhos[1:]))
        assert max(rhos) <= cfg.rho_max
        assert all(b <= a for a, b in zip(taus, taus[1:]))
        assert min(taus) >= cfg.tau_min
        for a, b in zip(rhos, rhos[1:]):
            if b < cfg.rho_max:
                expected = cfg.sigma_rho_small if a <= 1.0 else cfg.sigma_rho_large
                npt.assert_allclose(b / a, expected)
        assert rhos[-1] == cfg.rho_max  # cap reached and held

    @pytest.mark.parametrize("rho0", [0.5, None])
    def test_initial_weight_above_rho_max_is_capped(self, rho0):
        # the data-driven rho0 of this start is about 0.55
        f = ProjectionObjective(noisy_projection_target(30, 3, 0.5, 3)[0])
        cfg = PenaltyConfig(rho0=rho0, rho_max=0.1, l_max=5)
        report = penalty_solve(f, random_stiefel_start(30, 3, 0), cfg)
        rhos = [rec.rho for rec in report.trace]
        assert all(b >= a for a, b in zip(rhos, rhos[1:]))
        assert max(rhos) <= cfg.rho_max

    def test_negative_target_exits_certified_at_its_optimum(self):
        # the optimum over S+ puts e_i in each column, where the target holds
        # no positive entry; the exit builds that point and certifies it
        f = ProjectionObjective(self._SCHEDULE_TARGET)
        report = penalty_solve(f, random_stiefel_start(4, 2, 3), self._SCHEDULE_CFG)
        assert report.certified_exit and not report.flags
        assert report.f_final == 6.0
        assert report.ninf == 0.0

    def test_acceptance_bound_respected(self):
        # each subproblem's start value, the paper's acceptance bound, bounds
        # every iterate with no tolerance, here and on the three tiny kinds
        c = default_base_point(6, 3)
        f = ProjectionObjective(c.mat)
        x0 = random_stiefel_start(6, 3, 4)
        report = penalty_solve(f, x0, criterion_config(1.0, gamma=0.0))
        assert not any(flag.startswith("inner_") for flag in report.flags)
        reports = [report]
        objectives = {"qap": QapLiftedObjective, "gm": GraphMatchingObjective, "proj": ProjectionObjective}
        for kind, objective in objectives.items():
            inst = TINY[kind]()
            shape = inst.shape if kind == "proj" else (inst.n, inst.n)
            for solver in ("seppg_plus", "seppg_zero"):
                cfg = default_config(solver, kind, inst)
                reports.append(penalty_solve(objective(inst), random_stiefel_start(*shape, 3), cfg))
        for rep in reports:
            assert rep.inner_traces
            for tr in rep.inner_traces:
                assert max(tr.values) <= tr.values[0]

    def test_auto_rho0_feasible_start(self):
        c = default_base_point(4, 2)
        f = ProjectionObjective(c.mat)
        report = penalty_solve(f, default_base_point(4, 2), PenaltyConfig(gamma=0.0))
        assert report.trace[0].rho == 1.0  # violation-free start selects rho0 = 1

    def test_budget_exhaustion_flagged(self):
        c = -np.ones((3, 2))
        f = ProjectionObjective(c)
        cfg = PenaltyConfig(rho0=0.1, rho_max=0.2, epsilon=1e-14, l_max=5)
        report = penalty_solve(f, random_stiefel_start(3, 2, 5), cfg)
        assert "outer_budget_exhausted" in report.flags
        assert report.outer_iters == 5


class TestAlmSolve:
    def test_feasible_stationary_start_terminates_at_once(self):
        c = default_base_point(4, 2)
        f = ProjectionObjective(c.mat)
        report = alm_solve(f, c, PenaltyConfig(rho0=1.0))
        assert report.outer_iters == 1
        assert report.ninf == 0.0
        npt.assert_array_equal(report.x_final.mat, c.mat)

    def test_auglag_gradient_finite_difference(self, fd_grad):
        rng = np.random.default_rng(6)
        f = ProjectionObjective(rng.standard_normal((3, 2)))
        mu = 0.7
        count = 0
        while count < 5:
            x = rng.uniform(-1.0, 1.0, size=(3, 2))
            lam = np.abs(rng.standard_normal((3, 2)))
            if np.any(np.abs(x - lam / mu) < 1e-4):
                continue
            count += 1
            obj = AugLagObjective(f, lam, mu)
            numeric = fd_grad(obj.value, x)
            analytic = obj.gradient(x)
            err = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
            assert err <= 1e-6

    def test_auglag_matches_its_closed_form_bitwise(self):
        # the penalty kernel's 2 min(y, 0) scaled by mu/2 is exactly mu min(y, 0)
        rng = np.random.default_rng(7)
        f = ProjectionObjective(rng.standard_normal((5, 3)))
        for mu in (0.3, 1.0, 7.5):
            lam = np.abs(rng.standard_normal((5, 3)))
            x = rng.uniform(-1.0, 1.0, size=(5, 3))
            s = np.minimum(0.0, x - lam / mu)
            value = f.value(x) + 0.5 * mu * float(np.sum(s * s)) - float(np.sum(lam * lam)) / (2.0 * mu)
            val, grad = AugLagObjective(f, lam, mu).value_and_gradient(x)
            assert val == value
            npt.assert_array_equal(grad, f.gradient(x) + mu * s)

    def test_projection_recovery(self):
        c = default_base_point(4, 2)
        f = ProjectionObjective(c.mat)
        x0 = random_stiefel_start(4, 2, 7)
        report = alm_solve(f, x0, PenaltyConfig(rho0=1.0 / np.linalg.norm(c.mat, 2)))
        assert report.ninf <= 1e-6
        assert np.linalg.norm(report.x_final.mat - c.mat) <= 1e-4

    def test_mu0_must_be_positive(self):
        # alm_solve's initial weight is PenaltyConfig.rho0
        with pytest.raises(ValueError, match="rho0"):
            PenaltyConfig(rho0=0.0)


_SOLVES = {
    "envelope": lambda f, x0: penalty_solve(f, x0, PenaltyConfig()),
    "quadratic": lambda f, x0: penalty_solve(f, x0, PenaltyConfig(gamma=0.0)),
    "alm": lambda f, x0: alm_solve(f, x0, PenaltyConfig(rho0=0.5)),
}


def _carry_case(seed: int):
    noise = np.random.default_rng(seed).standard_normal((6, 3))
    f = ProjectionObjective(default_base_point(6, 3).mat + 0.3 * noise)
    return f, random_stiefel_start(6, 3, seed)


@pytest.mark.parametrize("solve", sorted(_SOLVES))
class TestCarriedStep:
    def test_first_trial_is_last_accepted_step(self, solve):
        f, x0 = _carry_case(8)
        report = _SOLVES[solve](f, x0)
        carried = None
        assert sum(1 for tr in report.inner_traces if tr.step_sizes) >= 5
        for tr in report.inner_traces:
            if not tr.step_sizes:
                continue
            t = 1.0 / tr.grad_norms[0] if carried is None else carried
            t = min(max(t, _T_MIN), _T_MAX)
            for _ in range(tr.backtracks[0]):
                t *= _ETA
            assert tr.step_sizes[0] == t
            assert 0.0 not in tr.v_norms  # no stalled step to skip in this case
            carried = tr.step_sizes[-1]

    def test_no_state_survives_between_solves(self, solve):
        def summary(report):
            return (
                report.outer_iters,
                report.inner_iters_total,
                report.f_final,
                [tr.step_sizes for tr in report.inner_traces],
            )

        f, x0 = _carry_case(8)
        first = summary(_SOLVES[solve](f, x0))
        other = next(name for name in sorted(_SOLVES) if name != solve)
        _SOLVES[other](*_carry_case(9))
        assert summary(_SOLVES[solve](f, x0)) == first


class TestStationarityResidual:
    def test_zero_at_global_minimizer(self):
        c = default_base_point(6, 3)
        f = ProjectionObjective(c.mat)
        assert stationarity_residual(f, c) <= 1e-6

    def test_interior_point_equals_projected_gradient_norm(self):
        # r = 1 with a strictly positive point: the cone contributes nothing
        x = StiefelPoint(np.ones((5, 1)) / np.sqrt(5.0))
        f = LinearObjective(np.arange(5, dtype=float).reshape(5, 1) + 1.0)
        expected = np.linalg.norm(proj_tangent(x.mat, f.gradient(x.mat)))
        npt.assert_allclose(stationarity_residual(f, x), expected, rtol=1e-12)

    def test_infeasible_point_rejected(self):
        x = random_stiefel_start(4, 2, 8)  # generic sign pattern, far from feasible
        f = ProjectionObjective(np.eye(4)[:, :2])
        with pytest.raises(ValueError, match=r"^point x is infeasible: violation \S+ exceeds 5e-06$"):
            stationarity_residual(f, x)

    def test_nan_gradient_rejected(self):
        c = default_base_point(4, 2)
        f = NanGradient()
        with pytest.raises(ValueError, match="NaN or Inf"):
            stationarity_residual(f, c)

    def test_normal_cone_absorbs_outward_gradient(self):
        # gradient pushing the zero entries negative is fully absorbed
        c = default_base_point(4, 2)
        g = np.where(c.mat > 0, 0.0, 1.0)  # positive on the zero pattern
        f = LinearObjective(g)
        assert stationarity_residual(f, c) <= 1e-8

    def test_exact_at_a_near_feasible_point_with_shared_rows(self):
        # an ONMF iterate in which three rows keep several entries above
        # ZERO_TOL, so the active-set least squares runs, with one step
        # blocked at the kink; the reference is scipy's lsq_linear (bvls) on
        # the G-form of the residual
        data = np.loadtxt(DATA / "onmf_near_feasible.txt")
        x, g = StiefelPoint(data[:, :4]), data[:, 4:]
        assert np.sum(np.sum(x.mat >= driver.ZERO_TOL, axis=1) > 1) == 3
        resid = stationarity_residual(LinearObjective(g), x)
        npt.assert_allclose(resid, 6.473359547e-05, rtol=1e-7)

    def test_matches_an_independent_minimization_at_shared_rows(self):
        # one row in two supports sends the residual to the active-set least
        # squares; seeds 0, 1, 10, 15 and 17 end it at a second stalled step
        for seed in range(20):
            x, g = shared_row_case(seed)
            resid = stationarity_residual(LinearObjective(g), StiefelPoint(x))
            npt.assert_allclose(resid, reference_stationarity(x, g), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("solve", [penalty_solve, alm_solve])
def test_no_config_runs_the_default_config(solve):
    f, x0 = _carry_case(8)
    report, default = solve(f, x0), solve(f, x0, PenaltyConfig())
    for name in ("f_final", "stationarity", "outer_iters", "trace", "inner_traces", "flags"):
        assert getattr(report, name) == getattr(default, name)
    npt.assert_array_equal(report.x_final.mat, default.x_final.mat)


class TestPenaltyConfig:
    def test_presets(self):
        # the penalty solvers differ only in gamma; rho0 None scales to the
        # start, and qap and gm read nothing of the instance
        for kind in ("qap", "gm"):
            assert default_config("seppg_zero", kind, None) == PenaltyConfig(gamma=0.0)
            assert default_config("seppg_plus", kind, None) == PenaltyConfig()
        cfg = PenaltyConfig()
        assert cfg.gamma == 0.05 and cfg.tau0 == 1.0 and cfg.rho0 is None
        assert cfg.l_max == 2000
        assert cfg.epsilon == 1e-6
        assert cfg.rho_max == 1e10
        assert cfg.tau_min == 1e-5
        assert cfg.sigma_tau == 0.95
        assert cfg.sigma_rho_small == 1.05
        assert cfg.sigma_rho_large == 1.1
        assert cfg.pgm.memory == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PenaltyConfig(sigma_tau=1.5)
        with pytest.raises(ValueError):
            PenaltyConfig(sigma_rho_large=0.9)
        with pytest.raises(ValueError):
            PenaltyConfig(rho0=-1.0)

    @pytest.mark.parametrize(
        "fields,pair",
        [({"tau0": 1e-6, "tau_min": 1e-3}, "(0.001, 1e-06)"), ({"tau0": 1e-6}, "(1e-05, 1e-06)")],
        ids=["both_set", "default_tau_min"],
    )
    def test_tau_min_above_tau0_rejected_naming_both(self, fields, pair):
        # tau_l = max(sigma_tau * tau_l, tau_min) would rise after the first
        # subproblem, loosening the target the schedule tightens
        with pytest.raises(ValueError) as err:
            PenaltyConfig(**fields)
        assert str(err.value) == f"need tau_min <= tau0, got {pair}"
        PenaltyConfig(tau0=1e-5, tau_min=1e-5)


class _WrongGradient(LinearObjective):
    """<G, X> with the gradient's sign flipped: every step goes uphill."""

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        val, grad = super().value_and_gradient(x)
        return val, -grad


@pytest.mark.parametrize("solve", [penalty_solve, alm_solve])
def test_wrong_gradient_is_flagged_as_a_stall(solve):
    # the trial's rise shrinks with the step until it falls inside the stall
    # margin, so the subproblem stalls before the shrink budget is spent
    f = _WrongGradient(np.random.default_rng(8).standard_normal((4, 2)))
    report = solve(f, default_base_point(4, 2), PenaltyConfig())
    assert report.flags == ["inner_stalled@outer=0"]
    assert report.outer_iters == 1 and not report.certified_exit
    (tr,) = report.inner_traces
    assert not tr.converged and tr.iterations < PgmConfig().max_iters
    assert report.orth_residual <= 1e-10


class _UphillObjective(_WrongGradient):
    """``_WrongGradient``, 1 higher at every array but ``anchor``: every step
    goes uphill by a margin that does not shrink with the step, so
    backtracking spends its budget instead of stalling."""

    def __init__(self, coeff, anchor: np.ndarray):
        super().__init__(coeff)
        self.anchor = anchor

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        val, grad = super().value_and_gradient(x)
        return val + float(x is not self.anchor), grad


@pytest.mark.parametrize("solve", [penalty_solve, alm_solve])
def test_line_search_failure_aborts_with_the_partial_report(solve):
    x0 = default_base_point(4, 2)
    f = _UphillObjective(np.random.default_rng(8).standard_normal((4, 2)), x0.mat)
    report = solve(f, x0, PenaltyConfig())
    assert report.flags == ["line_search_failure@outer=0"]
    assert report.x_final is x0
    # the report evaluates the warm start again
    assert report.f_final == f.value(x0.mat)
    assert report.outer_iters == 1
    assert report.trace == []
    # the failed solve's trace is kept
    (tr,) = report.inner_traces
    assert isinstance(tr, PgmTrace) and not tr.converged


@pytest.mark.parametrize(
    "solve, fields", [(alm_solve, {}), (penalty_solve, {"rho_max": float("inf")})], ids=["alm", "penalty"]
)
def test_rank_deficient_trials_are_rejected_trials(solve, fields):
    # at weight 1e300 every trial step is too long for floating point, and X + V
    # loses rank in the QR; each such trial shrinks the step unevaluated until
    # the budget is spent, and the line-search failure is flagged
    f = ProjectionObjective(-np.ones((4, 2)) / 2)
    cfg = PenaltyConfig(rho0=1e300, epsilon=1e-300, l_max=50, **fields)
    with np.errstate(over="ignore", invalid="ignore"):
        report = solve(f, random_stiefel_start(4, 2, 3), cfg)
    assert report.flags == ["line_search_failure@outer=0"]
    assert report.orth_residual <= 1e-10
    (tr,) = report.inner_traces
    assert tr.evaluations == 1


def _flag_case():
    f = ProjectionObjective(np.abs(np.random.default_rng(0).standard_normal((6, 3))))
    return f, random_stiefel_start(6, 3, 1)


def test_missed_inner_targets_and_the_outer_budget_are_flagged():
    # one inner iteration cannot reach any tau_l on this case
    report = penalty_solve(*_flag_case(), PenaltyConfig(pgm=PgmConfig(max_iters=1), l_max=3))
    assert report.flags == [
        "inner_tolerance_not_met@outer=0",
        "inner_tolerance_not_met@outer=1",
        "inner_tolerance_not_met@outer=2",
        "outer_budget_exhausted",
    ]
    assert report.outer_iters == 3 and not report.certified_exit


def test_alm_flags_a_stalled_subproblem_apart_from_the_cap():
    # nug-style QAP, n = 12: Manhattan distances on a 3 x 4 grid and seeded
    # symmetric flows, about 40% of them zero
    rng = np.random.default_rng(7)
    pts = np.array([(i // 4, i % 4) for i in range(12)])
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1).astype(float)
    flow = rng.integers(0, 10, size=(12, 12)).astype(float)
    flow[rng.random((12, 12)) < 0.4] = 0.0
    flow = np.triu(flow, 1)
    inst = QapInstance(a=dist, b=flow + flow.T)
    cfg = default_config("alm", "qap", inst)
    report = alm_solve(QapLiftedObjective(inst), random_stiefel_start(12, 12, 3), cfg)
    # the third subproblem stops at a stall that can only repeat, far below the cap
    assert report.flags == ["inner_stalled@outer=2"]
    assert report.inner_traces[2].iterations < cfg.pgm.max_iters
    assert not report.inner_traces[2].converged


def test_alm_flags_its_exhausted_outer_budget():
    report = alm_solve(*_flag_case(), PenaltyConfig(l_max=1))
    assert report.flags == ["outer_budget_exhausted"]
    assert report.outer_iters == 1 and report.ninf > PenaltyConfig().epsilon


@pytest.mark.parametrize("value", [1e3, 2.5, True])
def test_penalty_config_rejects_non_integer_l_max(value):
    with pytest.raises(ValueError, match="l_max"):
        PenaltyConfig(l_max=value)


NAN = float("nan")
_NAN_PENALTY_FIELDS = (
    "gamma", "rho0", "rho_max", "sigma_rho_small", "sigma_rho_large", "tau0", "tau_min", "epsilon",
)


def _lin() -> LinearObjective:
    return LinearObjective(np.ones((4, 2)))


@pytest.mark.parametrize(
    "build,name",
    [
        *(pytest.param(lambda k=k: PenaltyConfig(**{k: NAN}), k, id=f"PenaltyConfig.{k}") for k in _NAN_PENALTY_FIELDS),
        pytest.param(lambda: PgmConfig(grad_tol=NAN), "grad_tol", id="PgmConfig.grad_tol"),
        pytest.param(lambda: PenaltyObjective(_lin(), NAN, 0.05), "rho", id="PenaltyObjective.rho"),
        pytest.param(lambda: PenaltyObjective(_lin(), 1.0, NAN), "gamma", id="PenaltyObjective.gamma"),
        pytest.param(lambda: AugLagObjective(_lin(), np.zeros((4, 2)), NAN), "mu", id="AugLagObjective.mu"),
    ],
)
def test_nan_parameter_rejected(build, name):
    with pytest.raises(ValueError, match=name):
        build()


INF = float("inf")
# every parameter routed through stiefel.check_real with its rule, and the
# sigma_rho fields, whose range is checked inline
_REAL_FIELDS = [
    ("PenaltyConfig.gamma", lambda v: PenaltyConfig(gamma=v), "gamma must be nonnegative"),
    *(
        (f"PenaltyConfig.{k}", lambda v, k=k: PenaltyConfig(**{k: v}), f"{k} must be positive")
        for k in ("rho0", "tau0", "tau_min", "epsilon")
    ),
    *(
        (f"PenaltyConfig.{k}", lambda v, k=k: PenaltyConfig(**{k: v}), f"{k} must be above 1")
        for k in ("sigma_rho_small", "sigma_rho_large")
    ),
    ("PgmConfig.grad_tol", lambda v: PgmConfig(grad_tol=v), "grad_tol must be positive"),
    ("penalty_terms.gamma", lambda v: penalty_terms(np.ones((3, 2)), v), "gamma must be positive"),
    ("PenaltyObjective.rho", lambda v: PenaltyObjective(_lin(), v, 0.05), "rho must be nonnegative"),
    ("PenaltyObjective.gamma", lambda v: PenaltyObjective(_lin(), 1.0, v), "gamma must be nonnegative"),
    ("AugLagObjective.mu", lambda v: AugLagObjective(_lin(), np.zeros((4, 2)), v), "mu must be positive"),
    ("planted_onmf_instance.noise", lambda v: planted_onmf_instance(6, 4, 2, v, 0), "noise must be nonnegative"),
    ("noisy_projection_target.xi", lambda v: noisy_projection_target(5, 2, v, 0), "xi must be nonnegative"),
]


@pytest.mark.parametrize(
    "build,rule,value",
    [
        # the infinite cases keep their plain ids
        pytest.param(build, rule, value, id=name if value == INF else f"{name}-nan")
        for value in (INF, NAN)
        for name, build, rule in _REAL_FIELDS
    ],
)
def test_infinite_parameter_rejected(build, rule, value):
    with pytest.raises(ValueError, match=rf"^{rule} and finite, got {value}$"):
        build(value)


def test_infinite_caps_mean_no_cap():
    # rho_max clamps the weight; at inf the clamp does not bind, and the tiny
    # run never reaches the default cap either
    inst = tiny_qap()
    f = QapLiftedObjective(inst)
    x0 = random_stiefel_start(6, 6, 3)
    cfg = default_config("seppg_plus", "qap", inst)
    uncapped = dataclasses.replace(cfg, rho_max=INF)
    report, plain = penalty_solve(f, x0, uncapped), penalty_solve(f, x0, cfg)
    assert report.certified_exit and not report.flags
    assert report.inner_iters_total == plain.inner_iters_total
    npt.assert_array_equal(report.x_final.mat, plain.x_final.mat)


class CountingObjective(QapLiftedObjective):
    """The pinned QAP objective, counting every call that evaluates f."""

    def __init__(self, inst):
        super().__init__(inst)
        self.calls = 0

    def value(self, x):
        self.calls += 1
        return super().value(x)

    def gradient(self, x):
        self.calls += 1
        return super().gradient(x)

    def value_and_gradient(self, x):
        self.calls += 1
        return super().value_and_gradient(x)


def _counted_solves(monkeypatch, solve, solver):
    """Each start of the pinned QAP run: (f calls, report, solved iterates)."""
    solved = []

    def spy(obj, x0, cfg, **kwargs):
        out = pgm_solve(obj, x0, cfg, **kwargs)
        solved.append(out[0])
        return out

    pgm_solve = driver.pgm_solve
    monkeypatch.setattr(driver, "pgm_solve", spy)
    inst = tiny_qap()
    for i in range(4):
        solved.clear()
        f = CountingObjective(inst)
        x0 = random_stiefel_start(inst.n, inst.n, 3 ^ i)
        report = solve(f, x0, default_config(solver, "qap", inst))
        assert not report.flags
        yield f.calls, report, list(solved)


@pytest.mark.parametrize("solver", ["seppg_plus", "seppg_zero"])
def test_penalty_solve_evaluates_each_point_once(monkeypatch, solver):
    """f is called once at the start, once per trial point of the inner
    solves, once per sign-flip candidate, and once per certified-exit try,
    and nowhere else.

    ``PgmTrace.evaluations`` counts the first evaluation of every subproblem,
    at its warm start, although the driver hands that one in from the
    previous subproblem's solution or the flip gate; hence the - 1 per
    subproblem. A flip candidate is built from every solved iterate but the
    last that has a column of negative sum. On this square instance an exit
    try evaluates f only at the rounded permutation, whose value and
    gradient serve both the certificate and the report.
    """
    tries = []

    def candidate(f, x, grad):
        before = f.calls
        out = support_candidate(f, x, grad)
        tries.append(f.calls - before)
        return out

    support_candidate = driver._support_candidate
    monkeypatch.setattr(driver, "_support_candidate", candidate)
    flipped = 0
    for calls, report, solved in _counted_solves(monkeypatch, penalty_solve, solver):
        trials = sum(tr.evaluations - 1 for tr in report.inner_traces)
        candidates = sum(bool(np.any(x.mat.sum(axis=0) < 0.0)) for x in solved[:-1])
        assert report.certified_exit
        assert tries and set(tries) == {1}
        assert calls == 1 + trials + candidates + len(tries)
        flipped += candidates
        tries.clear()
    assert flipped > 0


def test_alm_solve_evaluates_each_point_once(monkeypatch):
    """As for the penalty driver, without flip candidates: the f part of each
    solved iterate serves the outer record, the next subproblem's first
    evaluation (counted by ``PgmTrace.evaluations``) and the report."""
    for calls, report, _ in _counted_solves(monkeypatch, alm_solve, "alm"):
        assert calls == 1 + sum(tr.evaluations - 1 for tr in report.inner_traces)


@pytest.mark.parametrize(
    "make",
    [lambda f: PenaltyObjective(f, 2.0, 0.05), lambda f: AugLagObjective(f, np.ones((6, 6)), 2.0)],
    ids=["penalty", "auglag"],
)
def test_record_is_reused_only_at_the_same_read_only_array(make):
    obj = make(CountingObjective(tiny_qap()))
    x = random_stiefel_start(6, 6, 1).mat
    val, grad = obj.value_and_gradient(x)
    again = obj.value_and_gradient(x)
    assert obj.f.calls == 1
    assert again[0] == val and np.array_equal(again[1], grad)
    # equal bits in another array, and an array changed in place, are
    # evaluated anew
    y = x.copy()
    obj.value_and_gradient(y)
    y[0, 0] += 0.5
    val, grad = obj.value_and_gradient(y)
    assert obj.f.calls == 3
    fresh = make(CountingObjective(tiny_qap())).value_and_gradient(y)
    assert val == fresh[0] and np.array_equal(grad, fresh[1])


@pytest.mark.parametrize("kind", ["qap", "gm", "proj"])
def test_certified_exit_returns_a_feasible_stationary_point(kind):
    inst = TINY[kind]()
    objectives = {"qap": QapLiftedObjective, "gm": GraphMatchingObjective, "proj": ProjectionObjective}
    f = objectives[kind](inst)
    shape = (inst.n, inst.n) if kind != "proj" else inst.shape
    cfg = default_config("seppg_plus", kind, inst)
    for i in range(4):
        report = penalty_solve(f, random_stiefel_start(*shape, 3 ^ i), cfg)
        assert report.certified_exit
        assert not report.flags
        assert report.ninf == 0.0
        assert report.orth_residual <= 1e-10
        assert_feasible(report.x_final)
        assert report.stationarity <= driver._EXIT_TOL
        assert report.stationarity == stationarity_residual(f, report.x_final)
        assert report.f_final == f.value(report.x_final.mat)
        # the exit fires before the violation reaches the full-run tolerance
        assert report.trace[-1].ninf > PenaltyConfig().epsilon


def test_failed_certificate_continues_the_loop(monkeypatch):
    # a candidate that never certifies leaves the run as it was without the exit
    inst = tiny_qap()
    f = QapLiftedObjective(inst)
    x0 = random_stiefel_start(6, 6, 3)
    cfg = default_config("seppg_plus", "qap", inst)
    tries = []

    def never(f, x, grad):
        tries.append(len(tries))
        p, val, _ = support_candidate(f, x, grad)
        return p, val, np.inf

    support_candidate = driver._support_candidate
    monkeypatch.setattr(driver, "_support_candidate", never)
    failed = penalty_solve(f, x0, cfg)
    monkeypatch.setattr(driver, "_EXIT_NINF", -1.0)
    full = penalty_solve(f, x0, cfg)
    assert tries and not failed.certified_exit
    assert failed.outer_iters == full.outer_iters
    assert failed.inner_iters_total == full.inner_iters_total
    npt.assert_array_equal(failed.x_final.mat, full.x_final.mat)


def _never_certify(monkeypatch):
    """Switch the certified exit off: every candidate reports an infinite
    residual."""
    support_candidate = driver._support_candidate

    def uncertified(f, x, grad):
        p, val, _ = support_candidate(f, x, grad)
        return p, val, np.inf

    monkeypatch.setattr(driver, "_support_candidate", uncertified)


def _uncertified_run(monkeypatch):
    """The pinned QAP start 3 with every certificate failing: (cfg, report)."""
    inst = tiny_qap()
    cfg = default_config("seppg_plus", "qap", inst)
    _never_certify(monkeypatch)
    return cfg, penalty_solve(QapLiftedObjective(inst), random_stiefel_start(6, 6, 3), cfg)


def test_exit_is_tried_at_every_small_violation_short_of_the_stop(monkeypatch):
    # the exit keeps no state: a support that has been tried, or has not
    # held, is tried again after each subproblem
    tried = []

    def candidate(f, x, grad):
        tried.append(nonneg_violation(x))
        return support_candidate(f, x, grad)

    support_candidate = driver._support_candidate
    monkeypatch.setattr(driver, "_support_candidate", candidate)
    _, report = _uncertified_run(monkeypatch)
    assert not report.certified_exit and not report.flags
    small = [rec.ninf for rec in report.trace[:-1] if rec.ninf <= driver._EXIT_NINF]
    assert tried == small and len(small) > 1


def test_uncertified_run_stops_once_the_objective_stagnates(monkeypatch):
    # short of epsilon, only the stagnation stop ends a run the exit cannot
    # certify before the outer budget runs out
    cfg, report = _uncertified_run(monkeypatch)
    assert not report.certified_exit
    assert "outer_budget_exhausted" not in report.flags
    assert report.outer_iters < cfg.l_max
    assert report.ninf == report.trace[-1].ninf
    assert cfg.epsilon < report.ninf <= 5.0 * cfg.epsilon
    tail = np.array([rec.f_value for rec in report.trace[-1 - driver._STAGNATION_LAG :]])
    assert tail.size == 10
    assert np.ptp(tail) <= 1e-8 * (1.0 + abs(tail[-1]))


def test_onmf_evaluations_bounded_by_the_exit(monkeypatch):
    # the full run makes 478,008 factor evaluations in these 3 rounds, most of
    # them in subproblems that grow rho long after the support has settled
    calls = []
    value_and_gradient = OnmfFactorObjective.value_and_gradient

    def counted(self, x):
        calls.append(1)
        return value_and_gradient(self, x)

    monkeypatch.setattr(OnmfFactorObjective, "value_and_gradient", counted)
    monkeypatch.setattr(problems, "_ONMF_MAX_ROUNDS", 3)
    inst, labels, _, _ = planted_onmf_instance(60, 40, 4, noise=0.05, seed=4)
    cfg = default_config("seppg_plus", "onmf", inst)
    x0 = random_stiefel_start(60, 4, 1)
    x, _, history = onmf_alternate(inst, x0, cfg, penalty_solve)
    assert len(history) == 3
    assert len(calls) <= 4000
    _, _, nmi = clustering_metrics(labels, cluster_labels(x.mat), 4)
    assert nmi >= 0.75


class TestSupportCandidate:
    def test_projection_lands_on_the_closed_form(self):
        # for ||X - C||^2 the candidate is each column's normalized positive
        # part of C on its support
        c = noisy_projection_target(12, 3, 0.2, 7)[0]
        f = ProjectionObjective(c)
        x = qr_orthonormalize(c)
        p, val, grad = driver._support_candidate(f, x, f.gradient(x))
        mask = np.zeros_like(c, dtype=bool)
        mask[np.arange(12), np.argmax(x, axis=1)] = True
        expected = np.where(mask, np.maximum(c, 0.0), 0.0)
        npt.assert_allclose(p, expected / np.linalg.norm(expected, axis=0), atol=1e-14)
        assert val == f.value(p)
        assert stationarity_residual(f, StiefelPoint(p)) <= 1e-12

    def test_onmf_factor_lands_on_the_normalized_positive_part_of_ay(self):
        inst, _, x_true, y_true = planted_onmf_instance(20, 8, 2, noise=0.05, seed=1)
        f = OnmfFactorObjective(inst.a, y_true)
        x = qr_orthonormalize(x_true + 0.05 * np.random.default_rng(2).standard_normal((20, 2)))
        p, _, _ = driver._support_candidate(f, x, f.gradient(x))
        ay = inst.a @ y_true
        mask = np.zeros_like(x, dtype=bool)
        mask[np.arange(20), np.argmax(x, axis=1)] = True
        expected = np.where(mask, ay, 0.0)
        npt.assert_allclose(p, expected / np.linalg.norm(expected, axis=0), atol=1e-12)

    def test_square_candidate_is_the_rounded_permutation(self):
        x = random_stiefel_start(6, 6, 4).mat
        f = QapLiftedObjective(tiny_qap())
        p, val, _ = driver._support_candidate(f, x, f.gradient(x))
        npt.assert_array_equal(p, round_to_feasible(x).mat)
        assert val == f.value(p)

    def test_column_without_positive_mass_starts_from_the_rounded_point(self):
        # every row's largest entry lies in column 0, so column 1 has no
        # support until rounding moves a donor row into it
        x = np.array([[0.8, 0.1], [0.6, -0.1], [0.0, 0.0]])
        f = ProjectionObjective(np.abs(x))
        p, val, _ = driver._support_candidate(f, x, f.gradient(x))
        npt.assert_array_equal(p, round_to_feasible(x).mat)
        assert val == f.value(p)

    def test_step_leaving_a_column_without_positive_mass_takes_e_i(self):
        # the second finisher point projects the target onto the support:
        # column 1 holds no positive target entry on rows 2 and 3, so its
        # projection is e_i at the larger one
        x = np.array([[0.7, 0.1], [0.7, -0.1], [0.1, 0.6], [-0.1, 0.8]])
        c = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, -0.5], [0.0, -0.2]])
        f = ProjectionObjective(c)
        p, _, _ = driver._support_candidate(f, x, f.gradient(x))
        npt.assert_array_equal(p[:, 1], [0.0, 0.0, 0.0, 1.0])
        npt.assert_allclose(p[:, 0], [np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])


def test_stationarity_closed_form_matches_the_iterative_residual():
    # at a point with disjoint row supports the closed form is the minimum
    # the least-squares iteration approaches from above
    rng = np.random.default_rng(5)
    x = default_base_point(6, 2).mat.copy()
    x[5] = 0.0
    x /= np.linalg.norm(x, axis=0)
    g = rng.standard_normal((6, 2))
    exact = driver._stationarity(x, g)
    # the same point with one zero entry nudged to 1e-300: the iterative path
    nudged = x.copy()
    nudged[5, 0] = 1e-300
    iterative = driver._stationarity(nudged, g)
    assert exact <= iterative + 1e-12
    npt.assert_allclose(iterative, exact, rtol=1e-6, atol=1e-9)
