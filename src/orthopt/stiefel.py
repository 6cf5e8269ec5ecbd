"""Dense Stiefel manifold primitives.

Points live on St(n, r) = {X in R^{n x r} : X^T X = I_r}, embedded in the
space of n x r matrices with the trace inner product. ``StiefelPoint`` is the
one place that certifies orthonormality; the other operations are pure
functions on raw arrays (tangent projection, QR orthonormalization, distance
to the manifold), so values can be shared freely across threads.

``assigned_point`` is the one map from a row assignment to its point of the
nonnegative orthogonal set S+(n, r); every point of S+ is of that form.

The QR orthonormalization calls numpy's own LAPACK gufuncs (geqrf, then
orgqr) directly, the kernels behind ``np.linalg.qr``, so it returns the same
bits without that wrapper's per-call type checks and ``triu`` copy.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.linalg import _umath_linalg

ORTH_TOL = 1e-10
_RANK_TOL = 1e-12
# columns whose norm falls outside this range are rescaled before normalizing
_NORM_RANGE = (1e-150, 1e150)


class RetractionError(RuntimeError):
    """Raised when an orthonormalization input is numerically rank deficient."""


def check_matrix(a, name: str = "matrix", *, stacked: bool = False) -> np.ndarray:
    """Validate and return an n x r float array with n >= r >= 1 and finite entries.

    With ``stacked=True`` the input is an S x n x r stack of such matrices.
    """
    arr = np.asarray(a, dtype=float)
    ndim = 3 if stacked else 2
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    n, r = arr.shape[-2:]
    if r < 1 or n < r:
        raise ValueError(f"{name} must have n >= r >= 1, got shape ({n}, {r})")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def check_count(value, name: str, minimum: int = 1) -> None:
    """Raise ValueError naming ``name`` unless value is an integer of at least
    ``minimum``; bools and integral floats such as 1e3 are rejected too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def check_real(value, name: str, *, zero_ok: bool = False) -> None:
    """Raise ValueError naming ``name`` unless value is finite and positive,
    or nonnegative with ``zero_ok``; NaN and +-inf are rejected alike."""
    if not ((0 <= value if zero_ok else 0 < value) and value < math.inf):
        bound = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {bound} and finite, got {value}")


def orthogonality_residual(mat: np.ndarray) -> float:
    """Frobenius norm of X^T X - I."""
    mat = np.asarray(mat, dtype=float)
    return float(np.linalg.norm(mat.T @ mat - np.eye(mat.shape[1])))


def frobenius_norm(mat: np.ndarray) -> float:
    """``np.linalg.norm`` of a real array, computed as it computes it (the
    square root of the flattened array's dot product with itself) without
    its per-call dispatch, so the bits are the same."""
    flat = mat.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def qr_orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Q factor of the thin QR decomposition, with diag(R) forced positive.

    The sign convention makes the factor a deterministic function of the
    input, so repeated runs produce bit-identical results. The factor comes
    from numpy's geqrf and orgqr gufuncs called directly, and is bit-identical
    to the Q of ``np.linalg.qr``; diag(R) is read off the factored copy.

    Raises:
        RetractionError: if the input is numerically rank deficient.
    """
    # geqrf overwrites its input with R and the Householder vectors
    a = np.array(mat, dtype=float)
    scale = max(1.0, frobenius_norm(a))
    tau = _umath_linalg.qr_r_raw(a, signature="d->d")
    q = _umath_linalg.qr_reduced(a, tau, signature="dd->d")
    diag = a.diagonal()
    if float(np.abs(diag).min()) <= _RANK_TOL * scale:
        raise RetractionError(
            "rank-deficient matrix: QR orthonormalization is not well defined"
        )
    return q * np.where(diag < 0.0, -1.0, 1.0)


class StiefelPoint:
    """A matrix certified to have orthonormal columns.

    The constructor rejects matrices whose orthogonality residual exceeds
    ``ORTH_TOL``. The stored array is read-only: a read-only float array
    that owns its data is adopted as it is, so a record keyed by that array
    (such as ``PenaltyObjective.last`` after ``pgm_solve``) stays valid; any
    other input, a writable array or a view, is copied and the copy frozen.

    Attributes:
        mat: The n x r orthonormal matrix (immutable).
        orth_residual: ``||X^T X - I||_F`` of the stored matrix.
    """

    __slots__ = ("mat", "orth_residual")

    def __init__(self, mat):
        m = check_matrix(mat, "StiefelPoint")
        res = orthogonality_residual(m)
        if res > ORTH_TOL:
            raise ValueError(
                f"matrix is not orthonormal: residual {res:.3e} exceeds {ORTH_TOL:.0e}"
            )
        if m.flags.writeable or not m.flags.owndata:
            m = np.array(m)
            m.flags.writeable = False
        self.mat = m
        self.orth_residual = res

    def __reduce__(self):
        # rebuilt through the constructor, so an unpickled point is read-only too
        return type(self), (self.mat,)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    def __repr__(self) -> str:
        return f"StiefelPoint(shape={self.mat.shape}, orth_residual={self.orth_residual:.2e})"


def assigned_point(x: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """The nearest point with unit nonnegative columns on a row assignment,
    for an (..., n, r) stack x and its (..., n) assignment.

    Column j is the normalized positive part of x on the rows assigned to j;
    when none of those entries is positive, it is e_i at their largest entry.
    """
    on = assign[..., None] == np.arange(x.shape[-1])
    out = np.where(on, np.maximum(x, 0.0), 0.0)
    empty = ~out.any(axis=-2, keepdims=True)
    if np.any(empty):
        top = np.argmax(np.where(on, x, -np.inf), axis=-2, keepdims=True)
        out[empty & (np.arange(x.shape[-2])[:, None] == top)] = 1.0
    # squares of tiny or huge entries under- or overflow: rescale those columns first
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(out, axis=-2, keepdims=True)
    extreme = ~((norms >= _NORM_RANGE[0]) & (norms <= _NORM_RANGE[1]))
    if np.any(extreme):
        out /= np.where(extreme, out.max(axis=-2, keepdims=True), 1.0)
        # a rescaled column is summed as one contiguous vector, in numpy's pairwise order
        cols = np.ascontiguousarray(np.swapaxes(out, -1, -2))
        norms = np.where(extreme, np.linalg.norm(cols, axis=-1)[..., None, :], norms)
    return out / norms


def proj_tangent(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Orthogonal projection of z onto the tangent space at an orthonormal mat.

    Computes Z - (1/2) X (M + M^T) with M = X^T Z, the projection induced by
    the trace inner product, from two products: Z^T X is the transpose of M,
    so the inner matrix M + M^T is exactly symmetric. Idempotent, and the
    identity on tangent directions. Only the shapes are checked: a
    mismatched z would otherwise broadcast.
    """
    if z.shape != mat.shape:
        raise ValueError(f"shape mismatch: point {mat.shape}, input {z.shape}")
    m = mat.T @ z
    return z - 0.5 * (mat @ (m + m.T))


def dist_to_stiefel(mat) -> float | np.ndarray:
    """Frobenius distance from an arbitrary matrix to St(n, r).

    Equals sqrt(sum_i (sigma_i - 1)^2) over the singular values of the input,
    the distance to its nearest orthonormal factor. An S x n x r stack gives
    the S distances as an array, from one stacked SVD.
    """
    m = np.asarray(mat, dtype=float)
    m = check_matrix(m, "matrix", stacked=m.ndim == 3)
    s = np.linalg.svd(m, compute_uv=False)
    dist = np.sqrt(np.sum((s - 1.0) ** 2, axis=-1))
    return dist if m.ndim == 3 else float(dist)
