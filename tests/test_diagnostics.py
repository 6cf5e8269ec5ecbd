"""Error-bound constant, projection oracle, ball sweeps, curvature probe."""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from orthopt import diagnostics
from orthopt.diagnostics import (
    ErrorBoundSample,
    ErrorBoundSweep,
    OracleSizeError,
    brute_force_dist_splus,
    default_base_point,
    error_bound_constant,
    error_bound_sweep,
    sosc_probe,
)
from orthopt.driver import stationarity_residual
from orthopt.penalty import nonneg_violation
from orthopt.problems import ProjectionObjective, random_stiefel_start
from orthopt.stiefel import RetractionError, StiefelPoint, proj_tangent

from helpers import (
    LinearObjective,
    nonexactness_probe_objective,
    nonexactness_probe_point,
    rectangular_constant,
    reference_error_bound,
    zero_row_family,
)


def polar_orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor U V^T from the thin SVD U S V^T of the input.

    The nearest orthonormal matrix to the input; applied to X + V it is the
    polar retraction, which agrees with X + V to second order. A reference
    retraction for the tests, next to the package's QR retraction.

    Raises:
        RetractionError: if the input is numerically rank deficient.
    """
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s[-1] <= 1e-12 * max(1.0, float(s[0])):
        raise RetractionError(
            "rank-deficient matrix: polar orthonormalization is not well defined"
        )
    return u @ vt


def retraction_curvature(f, xbar: StiefelPoint, h: np.ndarray, t: float = 1e-3) -> float:
    """Reference for sosc_probe: the central second difference of
    t -> f(R(t H)) at zero along the polar retraction R through xbar."""
    xm = xbar.mat
    fp = f.value(polar_orthonormalize(xm + t * h))
    fm = f.value(polar_orthonormalize(xm - t * h))
    return (fp - 2.0 * f.value(xm) + fm) / (t * t)


def reference_dist_splus(x):
    """The earlier oracle: every (r+1)^n assignment of rows to a column or to none.

    Kept as an independent reference. A column with positive mass gains the
    norm of its positive part; a column whose rows carry no positive entry
    gains its largest entry; an empty column admits no feasible point. It
    measures the distance directly from its minimizer, since the closed form
    ||x||^2 + r - 2 gain cancels to about sqrt(eps) near the feasible set.
    """
    n, r = x.shape
    grids = np.meshgrid(*([np.arange(r + 1)] * n), indexing="ij")
    table = np.stack([g.reshape(-1) for g in grids], axis=1)
    onehot = table[:, :, None] == np.arange(r)[None, None, :]
    pos = np.maximum(x, 0.0)
    s = np.sqrt(np.einsum("pij,ij->pj", onehot.astype(float), pos * pos))
    top = np.where(onehot, x[None], -np.inf).max(axis=1)
    best = int(np.argmax(np.where(s > 0.0, s, top).sum(axis=1)))
    minimizer = np.zeros_like(x)
    for j in range(r):
        rows = np.flatnonzero(table[best] == j)
        if np.any(pos[rows, j] > 0.0):
            minimizer[rows, j] = pos[rows, j] / np.linalg.norm(pos[rows, j])
        else:
            minimizer[rows[np.argmax(x[rows, j])], j] = 1.0
    return float(np.linalg.norm(x - minimizer)), minimizer


def near_feasible_point():
    """Feasible (8, 2) point with irregular entries, rows alternating columns."""
    x = np.zeros((8, 2))
    x[np.arange(8), np.arange(8) % 2] = 0.5 + np.random.default_rng(4).random(8)
    return x / np.linalg.norm(x, axis=0)


class NanGradient(LinearObjective):
    def __init__(self):
        super().__init__(np.zeros((4, 2)))

    def value_and_gradient(self, x):
        return super().value_and_gradient(x)[0], np.full_like(x, np.nan)


class TestErrorBoundConstant:
    def test_square_shape(self):
        npt.assert_allclose(error_bound_constant(default_base_point(4, 4)), 4.2)

    def test_single_column(self):
        assert error_bound_constant(default_base_point(5, 1)) == 1.0

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_single_column_constant_serves_the_sweep_form(self, n):
        # x = -e_1: its nearest nonnegative unit vectors are the other e_i
        kappa = error_bound_constant(default_base_point(n, 1))
        x = np.zeros((n, 1))
        x[0, 0] = -1.0
        s = reference_error_bound(x, kappa)
        npt.assert_allclose(s.dist_splus, np.sqrt(2.0), rtol=1e-15)
        assert (s.dist_cone, s.dist_st) == (1.0, 0.0)
        # the bare form dist_S+ <= kappa dist_cone fails; the sweep's holds
        assert s.dist_splus > kappa * s.dist_cone
        assert (kappa + 1.0) * (s.dist_cone + s.dist_st) == 2.0
        assert s.holds

    def test_rectangular_uses_smallest_nonzero_entry(self):
        xbar = StiefelPoint(np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]]))
        expected = 2.1 * np.sqrt(2.0) * (1.0 + 3.0 * 2.0 * 1.0) / 0.6
        npt.assert_allclose(error_bound_constant(xbar), expected)
        npt.assert_allclose(expected, 34.648, atol=5e-4)
        assert rectangular_constant(xbar.mat) == error_bound_constant(xbar)

    def test_zero_row_rejected_naming_the_hypothesis(self):
        xbar, _ = zero_row_family(10)
        message = r"^base point has a zero row; .* only at base points without zero rows$"
        with pytest.raises(ValueError, match=message):
            error_bound_constant(StiefelPoint(xbar))

    def test_deterministic(self):
        xbar = default_base_point(6, 2)
        assert error_bound_constant(xbar) == error_bound_constant(xbar)

    def test_infeasible_base_rejected_with_its_violation(self):
        # orthonormal, with one negative entry
        xbar = np.array([[0.6, 0.0], [-0.8, 0.0], [0.0, 1.0]])
        message = "^base point xbar is infeasible: violation 8.000e-01 exceeds 5e-06$"
        with pytest.raises(ValueError, match=message):
            error_bound_constant(StiefelPoint(xbar))
        with pytest.raises(ValueError, match="^base point xbar is infeasible"):
            error_bound_constant(random_stiefel_start(3, 3, 2))
        # stationarity_residual's tolerance: a violation of 1e-7 counts as feasible
        slight = np.array([[np.sqrt(1.0 - 1e-14), 0.0], [-1e-7, 0.0], [0.0, 1.0]])
        expected = 2.1 * np.sqrt(2.0) * 7.0 / 1e-7
        npt.assert_allclose(error_bound_constant(StiefelPoint(slight)), expected)


class TestBruteForceOracle:
    def test_zero_on_feasible_points(self):
        for n, r in [(3, 2), (4, 2), (5, 1), (4, 4)]:
            x = default_base_point(n, r)
            dist, minimizer = brute_force_dist_splus(x.mat)
            assert dist <= 1e-12
            npt.assert_allclose(minimizer, x.mat, atol=1e-12)

    def test_single_column_hand_example(self):
        dist, minimizer = brute_force_dist_splus(np.array([[3.0], [4.0]]))
        npt.assert_allclose(dist, 4.0)
        npt.assert_allclose(minimizer, np.array([[0.6], [0.8]]))

    def test_zero_row_probe_distance(self):
        _, xk = zero_row_family(10)
        dist, _ = brute_force_dist_splus(xk)
        assert dist >= 0.1

    def test_minimizer_is_feasible(self):
        # draws keep positive mass in each column, the oracle's domain
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = default_base_point(4, 2).mat + 0.3 * rng.standard_normal((4, 2))
            dist, m = brute_force_dist_splus(x)
            assert np.all(m >= 0)
            npt.assert_allclose(np.linalg.norm(m, axis=0), 1.0, atol=1e-12)
            assert np.all(np.sum(m > 0, axis=1) <= 1)
            npt.assert_allclose(dist, np.linalg.norm(x - m), rtol=1e-12)

    def test_distance_dominates_cone_and_manifold_distances(self):
        from orthopt.stiefel import dist_to_stiefel

        rng = np.random.default_rng(1)
        for _ in range(20):
            x = default_base_point(4, 2).mat + 0.3 * rng.standard_normal((4, 2))
            dist, _ = brute_force_dist_splus(x)
            assert dist >= np.linalg.norm(np.minimum(x, 0.0)) - 1e-12
            assert dist >= dist_to_stiefel(x) - 1e-12

    def test_size_guard(self):
        # the cap bounds the r^n full assignments
        for n, r in [(20, 2), (13, 3)]:
            with pytest.raises(OracleSizeError):
                brute_force_dist_splus(np.ones((n, r)))
        dist, _ = brute_force_dist_splus(default_base_point(13, 2).mat)
        assert dist <= 1e-15

    def test_agrees_with_partial_assignment_reference(self):
        rng = np.random.default_rng(12)
        shapes = [(3, 2), (4, 2), (5, 1), (4, 4), (6, 3), (8, 2)]
        compared = 0
        for n, r in shapes:
            base = default_base_point(n, r).mat
            for k in range(200):
                scale = (0.05, 0.3, 1.0)[k % 3]
                x = base + scale * rng.standard_normal((n, r))
                if k % 2:
                    # a row with no positive entry
                    row = rng.integers(n)
                    x[row] = -np.abs(x[row])
                expected, _ = reference_dist_splus(x)
                dist, m = brute_force_dist_splus(x)
                assert abs(dist - expected) <= 1e-12, (n, r, k)
                npt.assert_allclose(np.linalg.norm(x - m), dist, rtol=1e-15)
                compared += 1
        assert compared >= 1000

    def test_exactly_zero_on_irregular_feasible_point(self):
        dist, minimizer = brute_force_dist_splus(near_feasible_point())
        assert dist <= 1e-15
        npt.assert_allclose(minimizer, near_feasible_point(), atol=1e-15)

    def test_zero_mass_column_takes_its_largest_entry(self):
        # the second column's support holds no positive entry, so its best
        # unit vector is e_i at the largest entry there
        dist, m = brute_force_dist_splus(np.array([[1.0, 0.01], [0.01, -0.5]]))
        npt.assert_allclose(dist, np.sqrt(2e-4 + 1.5**2), rtol=1e-15)
        npt.assert_array_equal(m, np.eye(2))
        # no assignment gives both columns positive mass
        dist, m = brute_force_dist_splus(np.array([[1.0, 0.5], [-0.1, -0.2]]))
        npt.assert_allclose(dist, np.sqrt(1.7), rtol=1e-15)
        npt.assert_array_equal(m, np.eye(2))
        x = np.array([[1.0, -1.0], [2.0, 0.0], [0.5, -3.0]])
        dist, m = brute_force_dist_splus(x)
        npt.assert_allclose(dist, reference_dist_splus(x)[0], rtol=1e-15)
        npt.assert_array_equal(m[:, 1], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("block", [None, 1, 400])
    def test_zero_mass_sweep_agrees_with_reference(self, block, monkeypatch):
        # a wide ball around a square base reaches zero-mass columns; small
        # blocks split the 27 patterns into 27 or 14 blocks
        base = default_base_point(3, 3)
        whole = error_bound_sweep(base, 1.5, 200, seed=3)
        if block is not None:
            monkeypatch.setattr(diagnostics, "_ORACLE_BLOCK", block)
        sweep = error_bound_sweep(base, 1.5, 200, seed=3)
        npt.assert_array_equal(sweep.dist_splus, whole.dist_splus)
        rescored = 0
        for s in sweep:
            expected, m = reference_dist_splus(s.x)
            assert abs(s.dist_splus - expected) <= 1e-12
            rescored += np.any(np.all(np.maximum(s.x, 0.0) * m == 0.0, axis=0))
        assert rescored > 0

    @pytest.mark.parametrize("shape, delta", [((8, 2), 0.05), ((3, 3), 1.5)])
    @pytest.mark.parametrize("block", [1, 1000])
    def test_small_blocks_keep_the_bits(self, shape, delta, block, monkeypatch):
        # the whole table fits one block here; a small block splits it
        base = default_base_point(*shape)
        whole = error_bound_sweep(base, delta, 200, seed=3)
        monkeypatch.setattr(diagnostics, "_ORACLE_BLOCK", block)
        blocked = error_bound_sweep(base, delta, 200, seed=3)
        assert blocked.dist_splus.tobytes() == whole.dist_splus.tobytes()


@pytest.mark.parametrize("shape", [(3, 0), (-2, -3), (2, 3), (0, 0)])
def test_default_base_point_rejects_bad_shape_by_name(shape):
    n, r = shape
    message = f"r must be at least 1, got {r}" if r < 1 else f"n must be at least {r}, got {n}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        default_base_point(*shape)


def _assert_same_sample(a, b):
    npt.assert_array_equal(a.x, b.x)
    assert (a.dist_splus, a.dist_cone, a.dist_st, a.holds) == (
        b.dist_splus, b.dist_cone, b.dist_st, b.holds
    )


class TestErrorBoundSweep:
    def test_bound_holds_near_regular_base_point(self):
        base = default_base_point(3, 2)
        samples = error_bound_sweep(base, 0.05, 200, seed=2)
        assert all(s.holds for s in samples)
        for s in samples:
            assert s.dist_cone >= 0 and s.dist_st >= 0 and s.dist_splus >= 0
            assert s.dist_splus >= s.dist_cone - 1e-12
            assert s.dist_splus >= s.dist_st - 1e-12

    def test_manifold_samples_satisfy_cone_only_bound(self):
        # rotations near the identity stay on the manifold; there the bound
        # reduces to dist_splus <= kappa * dist_cone
        kappa = error_bound_constant(StiefelPoint(np.eye(2)))
        rng = np.random.default_rng(3)
        for _ in range(200):
            theta = rng.uniform(-0.1, 0.1)
            rot = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
            s = reference_error_bound(rot, kappa)
            assert s.dist_st <= 1e-12
            assert s.dist_splus <= kappa * s.dist_cone + 1e-12

    def test_zero_row_family_violates(self):
        kappa = rectangular_constant(zero_row_family(10)[0])
        samples = [reference_error_bound(zero_row_family(k)[1], kappa) for k in (10, 100, 1000)]
        assert any(not s.holds for s in samples)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            error_bound_sweep(default_base_point(3, 2), 0.0, 1, seed=0)

    @pytest.mark.parametrize("num_samples", [0, -3])
    def test_num_samples_must_be_positive(self, num_samples):
        with pytest.raises(ValueError, match="num_samples"):
            error_bound_sweep(default_base_point(3, 2), 0.05, num_samples, seed=0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta_rejected_by_name(self, delta):
        with pytest.raises(ValueError, match="delta must be"):
            error_bound_sweep(default_base_point(3, 2), delta, 1, seed=0)

    @pytest.mark.parametrize("delta", [1e155, 1e300])
    def test_delta_whose_squares_overflow_rejected_by_name(self, delta):
        with pytest.raises(ValueError, match=r"^delta must be positive and at most 1e\+154, got "):
            error_bound_sweep(default_base_point(8, 2), delta, 20, seed=0)

    def test_largest_delta_gives_finite_distances(self):
        # RuntimeWarning is an error in this suite, so an overflow fails here
        sweep = error_bound_sweep(default_base_point(8, 2), 1e154, 200, seed=0)
        for name in ("dist_splus", "dist_cone", "dist_st"):
            assert np.all(np.isfinite(getattr(sweep, name)))

    def test_alternating_bases_keep_their_own_constants(self):
        regular = default_base_point(8, 2)
        irregular = StiefelPoint(near_feasible_point())
        assert error_bound_constant(regular) != error_bound_constant(irregular)
        for base in (regular, irregular, regular, irregular, irregular, regular):
            assert error_bound_sweep(base, 0.05, 5, 0).kappa == error_bound_constant(base)

    def test_rewritten_base_reports_its_current_constant(self):
        point = StiefelPoint(default_base_point(8, 2).mat)
        first = error_bound_sweep(point, 0.05, 5, 0).kappa
        point.mat.flags.writeable = True
        point.mat[...] = near_feasible_point()
        assert error_bound_sweep(point, 0.05, 5, 0).kappa == error_bound_constant(point)
        assert error_bound_constant(point) != first

    def test_infeasible_base_rejected(self):
        message = r"^base point xbar is infeasible: violation \S+ exceeds 5e-06$"
        with pytest.raises(ValueError, match=message):
            error_bound_sweep(random_stiefel_start(4, 2, 1), 0.05, 5, 0)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            error_bound_sweep(default_base_point(3, 2), 0.05, 1, seed=-1)

    def test_no_false_violation_next_to_feasible_point(self):
        xbar = near_feasible_point()
        x = xbar.copy()
        x[1, 0] = -1e-12
        s = reference_error_bound(x, error_bound_constant(StiefelPoint(xbar)))
        assert s.holds
        npt.assert_allclose(s.dist_splus, 1e-12, rtol=1e-3)

    def test_probes_are_drawn_direction_then_radius(self):
        base = default_base_point(4, 2)
        samples = error_bound_sweep(base, 0.05, 30, seed=9)
        rng = np.random.default_rng(9)
        for s in samples:
            direction = rng.standard_normal(8)
            direction /= np.linalg.norm(direction)
            radius = 0.05 * rng.random() ** (1.0 / 8)
            npt.assert_array_equal(s.x, base.mat + radius * direction.reshape(4, 2))

    def test_sweep_matches_single_evaluations(self):
        base = default_base_point(6, 3)
        sweep = error_bound_sweep(base, 0.3, 50, seed=10)
        assert sweep.kappa == rectangular_constant(base.mat)
        for s in sweep:
            single = reference_error_bound(s.x.copy(), sweep.kappa)
            assert single.dist_cone == s.dist_cone and single.dist_st == s.dist_st
            assert single.holds == s.holds
            npt.assert_allclose(single.dist_splus, s.dist_splus, rtol=1e-14)

    def test_sweep_iterates_its_arrays(self):
        sweep = error_bound_sweep(default_base_point(4, 2), 0.3, 7, seed=5)
        assert isinstance(sweep, ErrorBoundSweep) and len(sweep) == 7
        # the constant is the sweep's alone
        fields = [f.name for f in dataclasses.fields(ErrorBoundSample)]
        assert fields == ["x", "dist_splus", "dist_cone", "dist_st", "holds"]
        assert sweep.x.shape == (7, 4, 2)
        for name in ("dist_splus", "dist_cone", "dist_st", "holds"):
            assert getattr(sweep, name).shape == (7,)
        samples = list(sweep)
        assert len(samples) == 7
        for k, s in enumerate(samples):
            assert isinstance(s, ErrorBoundSample)
            npt.assert_array_equal(s.x, sweep.x[k])
            assert np.shares_memory(s.x, sweep.x)
            assert (s.dist_splus, s.dist_cone, s.dist_st, s.holds) == (
                sweep.dist_splus[k], sweep.dist_cone[k], sweep.dist_st[k], sweep.holds[k]
            )
            assert type(s.dist_splus) is float and type(s.dist_cone) is float
            assert type(s.dist_st) is float and type(s.holds) is bool
        # every pass builds new samples: setting a field leaves the sweep as it was
        first = samples[0]
        first.holds = not first.holds
        first.dist_splus = -1.0
        again = next(iter(sweep))
        # samples compare by identity, never by their arrays
        assert again is not first and again != first
        assert again.holds is bool(sweep.holds[0]) and again.holds is not first.holds
        assert again.dist_splus == sweep.dist_splus[0]

    def test_sweep_survives_pickle(self):
        sweep = error_bound_sweep(default_base_point(4, 2), 0.3, 7, seed=5)
        back = pickle.loads(pickle.dumps(sweep))
        for name in ("x", "dist_splus", "dist_cone", "dist_st", "holds"):
            npt.assert_array_equal(getattr(back, name), getattr(sweep, name))
        assert back.kappa == sweep.kappa
        for a, b in zip(back, sweep, strict=True):
            _assert_same_sample(a, b)

    def test_non_finite_point_rejected(self):
        # the sweep's own probes stay finite once delta is checked, so the
        # oracle's guard is reached through its single-point form
        x = np.full((3, 2), np.inf)
        with pytest.raises(ValueError, match="NaN or Inf"):
            brute_force_dist_splus(x)

    @pytest.mark.parametrize("shape", [(12, 3), (19, 2)])
    def test_memory_bound(self, shape):
        base = default_base_point(*shape)
        tracemalloc.start()
        try:
            samples = error_bound_sweep(base, 0.05, 20, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples) == 20
        assert peak < 64 * 2**20


class TestSoscProbe:
    def test_projection_form_is_two_at_minimizer(self):
        c = default_base_point(5, 2)
        f = ProjectionObjective(c.mat)
        report = sosc_probe(f, c, num_dirs=300, seed=4)
        assert report.surviving > 0
        npt.assert_allclose(report.forms, 2.0, atol=1e-9)
        npt.assert_allclose(report.min_form, 2.0, atol=1e-9)

    def test_flat_objective_reports_nonstrict(self):
        c = default_base_point(4, 2)
        f = LinearObjective(np.zeros((4, 2)))  # stationary everywhere, no curvature
        report = sosc_probe(f, c, num_dirs=100, seed=5)
        assert report.surviving > 0
        npt.assert_allclose(report.forms, 0.0, atol=1e-12)

    def test_nonstationary_point_rejected(self):
        # at e1 on the nonnegative sphere, a pull toward e2 is a strict
        # feasible descent direction, so the point cannot be stationary
        x = StiefelPoint(np.array([[1.0], [0.0], [0.0], [0.0]]))
        g = np.zeros((4, 1))
        g[1, 0] = -1.0
        with pytest.raises(ValueError, match="not stationary"):
            sosc_probe(LinearObjective(g), x, num_dirs=10, seed=6)

    def test_nan_gradient_rejected(self):
        c = default_base_point(4, 2)
        f = NanGradient()
        with pytest.raises(ValueError, match="NaN or Inf"):
            sosc_probe(f, c, num_dirs=10, seed=8)

    def test_infeasible_base_rejected_as_the_error_bound_names_it(self):
        # orthonormal, with one negative entry
        xbar = StiefelPoint(np.array([[0.6, 0.0], [-0.8, 0.0], [0.0, 1.0]]))
        message = "base point xbar is infeasible: violation 8.000e-01 exceeds 5e-06"
        with pytest.raises(ValueError) as err:
            sosc_probe(ProjectionObjective(xbar.mat), xbar, num_dirs=10, seed=0)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            error_bound_constant(xbar)
        assert str(err.value) == message

    def test_directions_are_orthogonalized_against_a_nonzero_gradient(self):
        # a 4x2 feasible point and a target that pulls its zero entries
        # (0, 1) and (2, 1) below zero: the normal cone absorbs that pull, so
        # the point is stationary, but its projected gradient is not zero
        s = 0.70710678118654746
        x = StiefelPoint(np.array([[s, 0.0], [0.0, s], [s, 0.0], [0.0, s]]))
        target = x.mat.copy()
        target[[0, 2], 1] = -0.1
        f = ProjectionObjective(target)
        assert stationarity_residual(f, x) == 0.0
        npt.assert_allclose(np.linalg.norm(proj_tangent(x.mat, f.gradient(x.mat))), 0.2)
        report = sosc_probe(f, x, num_dirs=30, seed=1)
        assert (report.sampled, report.surviving) == (30, 15)
        npt.assert_allclose(report.min_form, 2.002260, rtol=1e-6)

    def test_directions_parallel_to_the_gradient_are_skipped(self):
        # on the unit circle at e1 the tangent space is the line of e2, which
        # the projected gradient (0, 1) spans: every direction orthogonalized
        # against it vanishes
        x = StiefelPoint(np.array([[1.0], [0.0]]))
        f = ProjectionObjective(np.array([[1.0], [-0.5]]))
        assert stationarity_residual(f, x) == 0.0
        npt.assert_array_equal(proj_tangent(x.mat, f.gradient(x.mat)), [[0.0], [1.0]])
        report = sosc_probe(f, x, num_dirs=30, seed=1)
        assert (report.sampled, report.surviving) == (30, 0)
        assert report.min_form is None

    def test_gradient_is_evaluated_once(self):
        # ProjectionObjective's hessian_vec is exact, so the one evaluation
        # is the gradient at the base point
        c = default_base_point(5, 2)
        f = ProjectionObjective(c.mat)
        calls = []
        value_and_gradient = f.value_and_gradient

        def counted(x):
            calls.append(1)
            return value_and_gradient(x)

        f.value_and_gradient = counted
        report = sosc_probe(f, c, num_dirs=20, seed=4)
        assert report.surviving > 0
        assert len(calls) == 1

    @pytest.mark.parametrize("num_dirs", [0, -1])
    def test_num_dirs_must_be_positive(self, num_dirs):
        c = default_base_point(4, 2)
        with pytest.raises(ValueError, match="num_dirs must be at least 1"):
            sosc_probe(ProjectionObjective(c.mat), c, num_dirs=num_dirs, seed=0)

    def test_negative_seed_rejected_by_name(self):
        c = default_base_point(4, 2)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            sosc_probe(ProjectionObjective(c.mat), c, num_dirs=10, seed=-1)

    def test_matches_retraction_curvature(self):
        c = default_base_point(5, 2)
        f = ProjectionObjective(c.mat)
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 5:
            h = proj_tangent(c.mat, rng.standard_normal((5, 2)))
            h = h / np.linalg.norm(h)
            form = 2.0 * np.sum(h * h) - np.sum((h.T @ h) * (c.mat.T @ f.gradient(c.mat)))
            fd = retraction_curvature(f, c, h)
            assert abs(fd - form) / abs(form) <= 1e-3
            checked += 1


class TestNonexactnessProbe:
    def test_orthonormal_to_tolerance(self):
        for k in (100, 1000, 10000):
            x = nonexactness_probe_point(k)
            assert np.linalg.norm(x.mat.T @ x.mat - np.eye(2)) <= 1e-12

    def test_violation_exactly_inverse_k_squared(self):
        assert nonneg_violation(nonexactness_probe_point(10).mat) == 0.01
        for k in (100, 1000, 10000):
            assert nonneg_violation(nonexactness_probe_point(k).mat) == 1.0 / k**2

    def test_objective_gap_scales_inversely_with_k(self):
        obj, f_star = nonexactness_probe_objective()
        for k in (100, 1000, 10000):
            gap = f_star - obj.value(nonexactness_probe_point(k).mat)
            assert gap > 0
            assert 1.5 <= k * gap <= 2.5

    def test_fixed_weight_penalty_eventually_dips_below_optimum(self):
        obj, f_star = nonexactness_probe_objective()
        rho = 100.0
        x = nonexactness_probe_point(1000)
        penalized = obj.value(x.mat) + rho * nonneg_violation(x.mat)
        assert penalized < f_star


def test_oracle_agrees_with_solver_feasibility():
    # a solve driven to deep feasibility lands within oracle distance 1e-4
    # of the feasible set
    from orthopt.driver import PenaltyConfig, penalty_solve
    from orthopt.problems import ProjectionObjective, random_stiefel_start

    c = default_base_point(4, 2)
    f = ProjectionObjective(c.mat)
    # epsilon such that every exit path ends below violation 1e-8
    cfg = PenaltyConfig(gamma=0.0, rho0=1.0, tau0=1e-5, sigma_rho_large=1.6, epsilon=2e-9)
    report = penalty_solve(f, random_stiefel_start(4, 2, 8), cfg)
    assert report.ninf <= 1e-8
    dist, _ = brute_force_dist_splus(report.x_final.mat)
    assert dist <= 1e-4


def test_default_base_point_shapes():
    for n, r in [(3, 2), (4, 2), (6, 1), (4, 4), (7, 3)]:
        x = default_base_point(n, r)
        assert x.shape == (n, r)
        assert np.all(np.linalg.norm(x.mat, axis=1) > 0)  # no zero rows
        assert nonneg_violation(x.mat) == 0.0
    npt.assert_array_equal(default_base_point(4, 4).mat, np.eye(4))
