"""Dense Stiefel manifold primitives.

Points live on St(n, r) = {X in R^{n x r} : X^T X = I_r}, embedded in the
space of n x r matrices with the trace inner product. Orthonormality is
certified at construction time, tangent vectors carry their base point, and
every operation here is a pure function over immutable arrays, so values can
be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

ORTH_TOL = 1e-10
TANGENCY_TOL = 1e-10
_RANK_TOL = 1e-12


class RetractionError(RuntimeError):
    """Raised when a retraction input is numerically rank deficient."""


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return an n x r float array with n >= r >= 1 and finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    n, r = arr.shape
    if r < 1 or n < r:
        raise ValueError(f"{name} must have n >= r >= 1, got shape ({n}, {r})")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def orthogonality_residual(mat: np.ndarray) -> float:
    """Frobenius norm of X^T X - I."""
    mat = np.asarray(mat, dtype=float)
    return float(np.linalg.norm(mat.T @ mat - np.eye(mat.shape[1])))


def qr_orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Q factor of the thin QR decomposition, with diag(R) forced positive.

    The sign convention makes the factor a deterministic function of the
    input, so repeated runs produce bit-identical results.

    Raises:
        RetractionError: if the input is numerically rank deficient.
    """
    q, rr = np.linalg.qr(mat)
    diag = np.diagonal(rr)
    scale = max(1.0, float(np.linalg.norm(mat)))
    if float(np.abs(diag).min()) <= _RANK_TOL * scale:
        raise RetractionError(
            "rank-deficient matrix: QR orthonormalization is not well defined"
        )
    return q * np.where(diag < 0.0, -1.0, 1.0)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


class StiefelPoint:
    """A matrix certified to have orthonormal columns.

    The constructor rejects matrices whose orthogonality residual exceeds
    ``ORTH_TOL`` unless ``reorthonormalize=True``, in which case the matrix is
    replaced by the Q factor of its QR decomposition. The stored array is
    read-only.

    Attributes:
        mat: The n x r orthonormal matrix (immutable).
        orth_residual: ``||X^T X - I||_F`` of the stored matrix.
    """

    __slots__ = ("mat", "orth_residual")

    def __init__(self, mat, *, reorthonormalize: bool = False):
        m = check_matrix(mat, "StiefelPoint")
        res = orthogonality_residual(m)
        if res > ORTH_TOL:
            if not reorthonormalize:
                raise ValueError(
                    f"matrix is not orthonormal: residual {res:.3e} exceeds {ORTH_TOL:.0e}"
                )
            m = qr_orthonormalize(m)
            res = orthogonality_residual(m)
        self.mat = _freeze(m)
        self.orth_residual = res

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @property
    def r(self) -> int:
        return self.mat.shape[1]

    def __repr__(self) -> str:
        return f"StiefelPoint(shape={self.mat.shape}, orth_residual={self.orth_residual:.2e})"


class TangentVector:
    """A direction in the tangent space at a Stiefel point.

    Tangency means X^T H + H^T X = 0. The residual check is relative to the
    direction's norm so that rescalings, which preserve exact tangency, are
    not rejected on roundoff grounds.

    Attributes:
        base: The StiefelPoint at which the direction is tangent.
        dir: The n x r direction matrix (immutable).
    """

    __slots__ = ("base", "dir")

    def __init__(self, base: StiefelPoint, direction, *, _skip_check: bool = False):
        if not isinstance(base, StiefelPoint):
            raise TypeError("base must be a StiefelPoint")
        d = check_matrix(direction, "tangent direction")
        if d.shape != base.shape:
            raise ValueError(
                f"direction shape {d.shape} does not match base shape {base.shape}"
            )
        if not _skip_check:
            res = float(np.linalg.norm(base.mat.T @ d + d.T @ base.mat))
            if res > TANGENCY_TOL * max(1.0, float(np.linalg.norm(d))):
                raise ValueError(
                    f"direction is not tangent: residual {res:.3e} exceeds {TANGENCY_TOL:.0e}"
                )
        self.base = base
        self.dir = _freeze(d)

    def norm(self) -> float:
        return float(np.linalg.norm(self.dir))

    def scaled(self, t: float) -> "TangentVector":
        # scaling preserves exact tangency, no recheck needed
        return TangentVector(self.base, t * self.dir, _skip_check=True)

    def __mul__(self, t: float) -> "TangentVector":
        return self.scaled(t)

    __rmul__ = __mul__

    def __neg__(self) -> "TangentVector":
        return self.scaled(-1.0)

    def __repr__(self) -> str:
        return f"TangentVector(shape={self.dir.shape}, norm={self.norm():.2e})"


def tangent_projection(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Z - (1/2) X (X^T Z + Z^T X) on raw arrays, without validation.

    The projection onto the tangent space at an orthonormal X induced by the
    trace inner product; ``proj_tangent`` is the validated, typed form.
    """
    a = mat.T @ z + z.T @ mat
    return z - 0.5 * (mat @ a)


def proj_tangent(x: StiefelPoint, z) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space at x.

    Computes Z - (1/2) X (X^T Z + Z^T X), the projection induced by the trace
    inner product. Idempotent, and the identity on tangent directions.
    """
    z = check_matrix(z, "z")
    if z.shape != x.shape:
        raise ValueError(f"shape mismatch: point {x.shape}, input {z.shape}")
    return TangentVector(x, tangent_projection(x.mat, z), _skip_check=True)


def riemannian_gradient(x: StiefelPoint, euclid_grad) -> TangentVector:
    """Riemannian gradient: the tangent projection of the Euclidean gradient."""
    return proj_tangent(x, euclid_grad)


def _check_retraction_args(x: StiefelPoint, v: TangentVector) -> None:
    if v.base is not x and not np.array_equal(v.base.mat, x.mat):
        raise ValueError("tangent vector is based at a different point")


def retract_qr(x: StiefelPoint, v: TangentVector) -> StiefelPoint:
    """QR retraction: the Q factor of X + V, with positive diag(R).

    Maps tangent vectors back to the manifold, agreeing with X + V to first
    order. A zero direction returns x itself, exactly.

    Raises:
        RetractionError: if X + V is numerically rank deficient, which at the
            step sizes produced by the solvers signals a gradient bug rather
            than legitimate input.
    """
    _check_retraction_args(x, v)
    if not np.any(v.dir):
        return x
    return StiefelPoint(qr_orthonormalize(x.mat + v.dir))


def retract_polar(x: StiefelPoint, v: TangentVector) -> StiefelPoint:
    """Polar retraction: the orthogonal factor U V^T from the SVD of X + V."""
    _check_retraction_args(x, v)
    if not np.any(v.dir):
        return x
    u, s, vt = np.linalg.svd(x.mat + v.dir, full_matrices=False)
    if s[-1] <= _RANK_TOL * max(1.0, float(s[0])):
        raise RetractionError(
            "rank-deficient matrix: polar retraction is not well defined"
        )
    return StiefelPoint(u @ vt)


def dist_to_stiefel(mat) -> float:
    """Frobenius distance from an arbitrary matrix to St(n, r).

    Equals sqrt(sum_i (sigma_i - 1)^2) over the singular values of the input,
    the distance to its nearest orthonormal factor.
    """
    m = check_matrix(mat, "matrix")
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.sqrt(np.sum((s - 1.0) ** 2)))
