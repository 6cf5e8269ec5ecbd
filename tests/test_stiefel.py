"""Manifold primitives: projections, orthonormalizations, distances."""

import pickle

import numpy as np
import numpy.testing as npt
import pytest

from orthopt.stiefel import (
    RetractionError,
    StiefelPoint,
    check_count,
    dist_to_stiefel,
    orthogonality_residual,
    proj_tangent,
    qr_orthonormalize,
)
from test_diagnostics import polar_orthonormalize


def random_point(n, r, seed):
    rng = np.random.default_rng(seed)
    return StiefelPoint(qr_orthonormalize(rng.standard_normal((n, r))))


class TestCheckCount:
    @pytest.mark.parametrize("value,minimum", [(1, 1), (7, 1), (np.int64(3), 3), (0, 0)])
    def test_accepts_integers_from_the_minimum(self, value, minimum):
        check_count(value, "k", minimum=minimum)

    @pytest.mark.parametrize(
        "value,minimum,message",
        [
            (True, 0, "k must be an integer, got True"),
            (np.bool_(True), 0, "k must be an integer, got "),
            (2.0, 1, "k must be an integer, got 2.0"),
            (1e3, 1, "k must be an integer, got 1000.0"),
            ("3", 1, "k must be an integer, got '3'"),
            (None, 1, "k must be an integer, got None"),
            (0, 1, "k must be at least 1, got 0"),
            (2, 3, "k must be at least 3, got 2"),
            (-1, 0, "k must be nonnegative, got -1"),
        ],
    )
    def test_rejects_by_name(self, value, minimum, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            check_count(value, "k", minimum=minimum)


class TestStiefelPoint:
    def test_accepts_orthonormal(self):
        x = StiefelPoint(np.eye(4)[:, :2])
        assert x.orth_residual <= 1e-15
        assert x.shape == (4, 2)

    def test_rejects_nonorthonormal(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            StiefelPoint(np.ones((3, 2)) * 0.5)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            StiefelPoint(np.eye(2, 3))  # n < r
        with pytest.raises(ValueError):
            StiefelPoint(np.array([[np.nan], [0.0]]))

    def test_immutable(self):
        x = StiefelPoint(np.eye(3)[:, :2])
        with pytest.raises(ValueError):
            x.mat[0, 0] = 2.0

    def test_copies_a_writable_array(self):
        a = np.eye(3)[:, :2].copy()
        x = StiefelPoint(a)
        assert x.mat is not a and not np.shares_memory(x.mat, a)
        a[0, 0] = 2.0
        assert x.mat[0, 0] == 1.0

    def test_copies_a_read_only_view(self):
        base = np.eye(3)
        view = base[:, :2]
        view.flags.writeable = False
        x = StiefelPoint(view)
        assert not np.shares_memory(x.mat, base)
        base[0, 0] = 2.0
        assert x.mat[0, 0] == 1.0

    def test_adopts_a_read_only_array_that_owns_its_data(self):
        a = np.eye(3)[:, :2].copy()
        a.flags.writeable = False
        assert StiefelPoint(a).mat is a

    def test_stays_read_only_through_pickle(self):
        x = StiefelPoint(np.eye(3)[:, :2])
        y = pickle.loads(pickle.dumps(x))
        assert not y.mat.flags.writeable
        npt.assert_array_equal(y.mat, x.mat)
        assert y.orth_residual == x.orth_residual

    def test_repr_names_shape_and_residual(self):
        assert repr(StiefelPoint(np.eye(3)[:, :2])) == "StiefelPoint(shape=(3, 2), orth_residual=0.00e+00)"


class TestProjTangent:
    def test_normal_directions_project_to_zero(self):
        x = StiefelPoint(np.eye(3)[:, :2])
        s = np.array([[1.0, 2.0], [2.0, 3.0]])
        v = proj_tangent(x.mat, x.mat @ s)
        npt.assert_allclose(v, np.zeros((3, 2)), atol=1e-14)

    def test_identity_on_tangent(self):
        x = random_point(6, 3, 3)
        rng = np.random.default_rng(4)
        v = proj_tangent(x.mat, rng.standard_normal((6, 3)))
        w = proj_tangent(x.mat, v)
        npt.assert_allclose(w, v, atol=1e-13)

    def test_idempotent(self):
        x = random_point(8, 3, 5)
        z = np.random.default_rng(6).standard_normal((8, 3))
        once = proj_tangent(x.mat, z)
        twice = proj_tangent(x.mat, once)
        assert np.linalg.norm(twice - once) <= 1e-12

    @pytest.mark.parametrize("shape", [(3, 1), (6, 6), (20, 20), (600, 8)])
    def test_inner_matrix_is_exactly_symmetric(self, shape):
        # Z^T X is formed as the transpose of X^T Z, not by a third product
        x = random_point(*shape, 11).mat
        z = np.random.default_rng(12).standard_normal(shape)
        m = x.T @ z
        inner = m + m.T
        npt.assert_array_equal(inner, inner.T)
        once = proj_tangent(x, z)
        npt.assert_array_equal(once, z - 0.5 * (x @ inner))
        twice = proj_tangent(x, once)
        assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(once)

    def test_output_is_tangent(self):
        x = random_point(7, 4, 7)
        z = np.random.default_rng(8).standard_normal((7, 4))
        d = proj_tangent(x.mat, z)
        assert np.linalg.norm(x.mat.T @ d + d.T @ x.mat) <= 1e-10

    def test_orthogonal_decomposition(self):
        # the removed component is orthogonal to every tangent direction
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = StiefelPoint(qr_orthonormalize(rng.standard_normal((6, 3))))
            z = rng.standard_normal((6, 3))
            normal_part = z - proj_tangent(x.mat, z)
            h = proj_tangent(x.mat, rng.standard_normal((6, 3)))
            assert abs(np.sum(normal_part * h)) <= 1e-10

    def test_shape_mismatch(self):
        x = random_point(4, 2, 10)
        with pytest.raises(ValueError, match="shape"):
            proj_tangent(x.mat, np.zeros((5, 2)))
        with pytest.raises(ValueError, match="shape"):
            proj_tangent(x.mat, np.zeros((4, 1)))  # would broadcast unchecked


@pytest.mark.parametrize(
    "orthonormalize",
    [qr_orthonormalize, polar_orthonormalize],
    ids=["retract_qr", "retract_polar"],
)
class TestRetractions:
    """x + v followed by either orthonormalization is a retraction."""

    def test_zero_vector_is_identity(self, orthonormalize):
        x = random_point(5, 2, 15).mat
        npt.assert_allclose(orthonormalize(x + np.zeros((5, 2))), x, rtol=0, atol=1e-15)

    def test_result_orthonormal(self, orthonormalize):
        rng = np.random.default_rng(16)
        for _ in range(10):
            x = qr_orthonormalize(rng.standard_normal((6, 3)))
            v = proj_tangent(x, rng.standard_normal((6, 3)))
            y = orthonormalize(x + v)
            assert orthogonality_residual(y) <= 1e-12
            assert dist_to_stiefel(y) <= 1e-12

    def test_first_order_agreement(self, orthonormalize):
        # ||R(t v) - (x + t v)|| / ||t v|| shrinks linearly with t
        x = random_point(8, 3, 17).mat
        v = proj_tangent(x, np.random.default_rng(18).standard_normal((8, 3)))
        v = v / np.linalg.norm(v)
        ratios = []
        for t in (1e-1, 1e-2, 1e-3):
            y = orthonormalize(x + t * v)
            ratios.append(np.linalg.norm(y - (x + t * v)) / t)
        assert ratios[0] > ratios[1] > ratios[2]
        # linear decay in t: each decade shrinks the ratio close to 10x
        assert 0.05 * ratios[0] <= ratios[1] <= 0.2 * ratios[0]
        assert 0.05 * ratios[1] <= ratios[2] <= 0.2 * ratios[1]

    def test_bounded_deviation_constants(self, orthonormalize):
        # ||R(v) - x|| <= c1 ||v|| and ||R(v) - (x + v)|| <= c2 ||v||^2,
        # with the constants fitted over 1000 random draws
        rng = np.random.default_rng(22)
        c1 = c2 = 0.0
        for _ in range(1000):
            x = qr_orthonormalize(rng.standard_normal((5, 2)))
            v = proj_tangent(x, rng.standard_normal((5, 2))) * rng.uniform(0.01, 1.0)
            nv = np.linalg.norm(v)
            y = orthonormalize(x + v)
            c1 = max(c1, np.linalg.norm(y - x) / nv)
            c2 = max(c2, np.linalg.norm(y - (x + v)) / nv**2)
        assert c1 <= 2.0
        assert c2 <= 5.0

    def test_rank_deficient_raises(self, orthonormalize):
        with pytest.raises(RetractionError):
            orthonormalize(np.ones((4, 2)))


def test_retract_polar_hand_example():
    x = np.array([[1.0], [0.0]])
    v = np.array([[0.0], [1.0]])
    y = polar_orthonormalize(x + v)
    npt.assert_allclose(y, np.array([[1.0], [1.0]]) / np.sqrt(2), atol=1e-15)


def test_qr_sign_convention_deterministic():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((6, 3))
    q1 = qr_orthonormalize(m)
    q2 = qr_orthonormalize(m.copy())
    npt.assert_array_equal(q1, q2)
    # positive diagonal of R = Q^T M
    r = q1.T @ m
    assert np.all(np.diag(r) > 0)


def _reference_qr(m):
    """np.linalg.qr's Q with the sign of each column fixed by diag(R) >= 0."""
    q, r = np.linalg.qr(m)
    return q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)


@pytest.mark.parametrize("seed", range(12))
def test_qr_bits_match_numpy_qr(seed):
    # the direct LAPACK path must return np.linalg.qr's Q bit for bit, for
    # every memory layout of the input, and leave the input untouched
    rng = np.random.default_rng(100 + seed)
    r = 1 if seed % 4 == 0 else int(rng.integers(1, 9))
    n = r if seed % 3 == 0 else r + int(rng.integers(1, 12))
    m = rng.standard_normal((n, r)) * rng.uniform(1e-3, 1e3)
    layouts = {
        "C": m,
        "F": np.asfortranarray(m),
        "row_strided": np.repeat(m, 2, axis=0)[::2],
        "col_strided": np.repeat(m, 3, axis=1)[:, ::3],
        "reversed": m[::-1].copy()[::-1],
    }
    expected = _reference_qr(m)
    for name, mat in layouts.items():
        before = mat.copy()
        got = qr_orthonormalize(mat)
        assert got.shape == (n, r), name
        assert np.array_equal(got, expected), name
        assert np.array_equal(mat, before), name


def test_qr_rank_deficient_input_raises():
    m = np.random.default_rng(27).standard_normal((6, 3))
    m[:, 2] = m[:, 0] - 2.0 * m[:, 1]
    for mat in (m, np.asfortranarray(m), np.zeros((4, 1))):
        with pytest.raises(RetractionError, match="rank-deficient"):
            qr_orthonormalize(mat)


class TestDistToStiefel:
    def test_zero_on_manifold(self):
        x = random_point(6, 3, 24)
        assert dist_to_stiefel(x.mat) <= 1e-12

    def test_scaled_identity(self):
        npt.assert_allclose(dist_to_stiefel(2.0 * np.eye(4)[:, :2]), np.sqrt(2.0))

    def test_gram_residual_sandwich(self):
        # dist <= ||X^T X - I|| <= (1 + sigma_max) dist on random matrices
        rng = np.random.default_rng(25)
        for _ in range(1000):
            x = rng.standard_normal((4, 2)) * rng.uniform(0.2, 2.0)
            d = dist_to_stiefel(x)
            res = orthogonality_residual(x)
            smax = np.linalg.norm(x, 2)
            assert d <= res + 1e-12
            assert res <= (1.0 + smax) * d + 1e-12

    def test_stack_gives_one_distance_per_matrix(self):
        xs = np.random.default_rng(26).standard_normal((7, 5, 3))
        dists = dist_to_stiefel(xs)
        assert dists.shape == (7,)
        for x, d in zip(xs, dists):
            assert d == dist_to_stiefel(x)

    def test_stack_rejects_non_finite_entries(self):
        xs = np.ones((3, 4, 2))
        xs[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            dist_to_stiefel(xs)
