"""Empirical verification tools for the error-bound and curvature theory.

Provides the piecewise error-bound constant, an exhaustive projection oracle
onto the nonnegative orthogonal set for small shapes (r^n full assignments,
scored for a whole stack of samples at once), ball sweeps that test the
error-bound inequality sample by sample, a sampled second-order sufficiency
probe, and the closed-form probe families used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import ZERO_TOL, stationarity_residual
from .penalty import Objective
from .stiefel import (
    StiefelPoint,
    check_matrix,
    dist_to_stiefel,
    proj_tangent,
)
from .problems import LinearObjective

_ORACLE_PATTERN_CAP = 1_000_000
# sosc_probe's stationarity precondition and tangent-cone tolerance
_SOSC_STATIONARITY_TOL = 1e-6
_CONE_TOL = 1e-10


class OracleSizeError(ValueError):
    """Raised when the exhaustive oracle would enumerate too many patterns."""


@dataclass
class ErrorBoundSample:
    """One probe point with its three distances and the bound check.

    ``holds`` records dist_splus <= (kappa + 1) * (dist_cone + dist_st).
    """

    x: np.ndarray
    dist_splus: float
    dist_cone: float
    dist_st: float
    kappa: float
    holds: bool


def error_bound_constant(
    xbar: StiefelPoint | np.ndarray, *, allow_zero_rows: bool = False
) -> float:
    """Piecewise constant of the local error bound at a feasible base point.

    Returns 2.1 sqrt(n) for square shapes, 1 for single-column shapes, and
    2.1 sqrt(r) (1 + 3 r (n - r)) / (smallest nonzero entry) otherwise. The
    rectangular multi-column branch requires the base point to have no zero
    rows (row norm above ``ZERO_TOL``); ``allow_zero_rows=True`` bypasses
    that hypothesis check for counterexample probes.
    """
    mat = xbar.mat if isinstance(xbar, StiefelPoint) else check_matrix(xbar, "xbar")
    n, r = mat.shape
    if n == r:
        return 2.1 * float(np.sqrt(n))
    if r == 1:
        return 1.0
    row_norms = np.linalg.norm(mat, axis=1)
    if not allow_zero_rows and np.any(row_norms <= ZERO_TOL):
        raise ValueError(
            "base point has a zero row; the rectangular multi-column bound "
            "does not apply (pass allow_zero_rows=True to probe anyway)"
        )
    nonzero = np.abs(mat[np.abs(mat) > ZERO_TOL])
    if nonzero.size == 0:
        raise ValueError("base point has no nonzero entries")
    smallest = float(np.min(nonzero))
    return 2.1 * float(np.sqrt(r)) * (1.0 + 3.0 * r * (n - r)) / smallest


_pattern_cache: dict[tuple[int, int], np.ndarray] = {}
# samples x patterns scored at once; bounds the oracle's working set
_ORACLE_BLOCK = 1 << 18


def _patterns(n: int, r: int) -> np.ndarray:
    """All r^n full assignments of rows to columns, as a cached (P, n) uint8 table.

    Row 0 is the most significant digit, so the last row varies fastest.
    Leaving a row unassigned never raises a column's mass, so the full
    assignments reach the maximum of the oracle's gain over all partial ones.
    """
    key = (n, r)
    cached = _pattern_cache.get(key)
    if cached is not None:
        return cached
    count = r**n
    if count > _ORACLE_PATTERN_CAP:
        raise OracleSizeError(f"r^n = {count} exceeds the oracle cap {_ORACLE_PATTERN_CAP}")
    table = np.indices((r,) * n, dtype=np.uint8).reshape(n, -1).T
    _pattern_cache[key] = table
    return table


def _oracle(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances and minimizers for a finite (S, n, r) stack of matrices.

    Scores every full assignment of every sample in blocks of about
    ``_ORACLE_BLOCK`` samples x patterns, keeps the first maximal gain, builds
    the winning minimizer and returns the direct distance ||x - minimizer||_F
    (the closed form ||x||^2 + r - 2 gain cancels to about sqrt(eps) near the
    feasible set).
    """
    num, n, r = xs.shape
    table = _patterns(n, r)
    pos = np.maximum(xs, 0.0)
    # (r, S, n): row masses per column, ready for one matmul per column
    pos2 = np.ascontiguousarray((pos * pos).transpose(2, 0, 1))
    columns = np.arange(r, dtype=np.uint8)[:, None, None]
    # patterns per block: the (r, n, block) one-hot and the (r, S, block)
    # masses each hold about _ORACLE_BLOCK entries per column
    block = max(1, _ORACLE_BLOCK // max(num, n))
    best_gain = np.full(num, -np.inf)
    best = np.zeros(num, dtype=np.intp)
    for lo in range(0, table.shape[0], block):
        # onehot[j, i, p] = 1 where pattern lo + p sends row i to column j
        onehot = (table[lo : lo + block].T[None] == columns).astype(float)
        mass = pos2 @ onehot
        valid = np.all(mass > 0.0, axis=0)
        gain = np.where(valid, np.sqrt(mass).sum(axis=0), -np.inf)
        arg = np.argmax(gain, axis=1)
        top = gain[np.arange(num), arg]
        better = top > best_gain
        best_gain[better] = top[better]
        best[better] = lo + arg[better]
    if np.any(np.isneginf(best_gain)):
        raise ValueError("no assignment has positive mass in every column")
    assigned = table[best][:, :, None] == np.arange(r)
    kept = np.where(assigned, pos, 0.0)
    minimizers = kept / np.linalg.norm(kept, axis=1, keepdims=True)
    dists = np.linalg.norm((xs - minimizers).reshape(num, -1), axis=1)
    return dists, minimizers


def _evaluate(xs: np.ndarray, kappa: float) -> list[ErrorBoundSample]:
    """Fill one ErrorBoundSample per matrix of an (S, n, r) stack."""
    # validates the stack (shape, finite entries) before the oracle runs
    dist_st = dist_to_stiefel(xs)
    num = xs.shape[0]
    dist_splus, _ = _oracle(xs)
    neg = np.minimum(xs, 0.0).reshape(num, -1)
    # one dot product per sample, as np.linalg.norm sums a single matrix
    dist_cone = np.sqrt((neg[:, None, :] @ neg[:, :, None]).reshape(num))
    holds = dist_splus <= (kappa + 1.0) * (dist_cone + dist_st)
    return [
        ErrorBoundSample(
            x=xs[k],
            dist_splus=float(dist_splus[k]),
            dist_cone=float(dist_cone[k]),
            dist_st=float(dist_st[k]),
            kappa=kappa,
            holds=bool(holds[k]),
        )
        for k in range(num)
    ]


def brute_force_dist_splus(x) -> tuple[float, np.ndarray]:
    """Exhaustive distance from x to the nonnegative orthogonal set.

    Enumerates the r^n full assignments of rows to columns (``_patterns``).
    For a fixed assignment the best feasible point puts, in each column, the
    normalized positive part of x restricted to that column's rows;
    assignments leaving any column without positive mass admit no such point
    and are skipped. Returns the minimal distance, measured directly as
    ||x - minimizer||_F, and a minimizer.

    Raises:
        OracleSizeError: if r^n exceeds the one-million-pattern cap.
        ValueError: if no assignment has positive mass in every column.
    """
    x = check_matrix(x, "x")
    dists, minimizers = _oracle(x[None])
    return float(dists[0]), minimizers[0]


def evaluate_error_bound(x, kappa: float) -> ErrorBoundSample:
    """Fill one ErrorBoundSample for a probe point and a given constant."""
    return _evaluate(check_matrix(x, "x")[None], kappa)[0]


def error_bound_sweep(
    xbar: StiefelPoint, delta: float, num_samples: int, seed: int
) -> list[ErrorBoundSample]:
    """Sample the Frobenius delta-ball around a feasible point and test the bound.

    Points are drawn uniformly from the ball, each as a direction and then a
    radius, and the whole sweep is evaluated as one (num_samples, n, r) stack:
    one batched oracle pass and one stacked SVD. The constant is
    ``error_bound_constant(xbar)``; probes of hypotheses-violating bases go
    through ``evaluate_error_bound`` with an explicit constant.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    if not seed >= 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    kappa = error_bound_constant(xbar)
    n, r = xbar.shape
    rng = np.random.default_rng(seed)
    probes = np.empty((num_samples, n, r))
    for k in range(num_samples):
        direction = rng.standard_normal(n * r)
        direction /= np.linalg.norm(direction)
        radius = delta * rng.random() ** (1.0 / (n * r))
        probes[k] = xbar.mat + radius * direction.reshape(n, r)
    return _evaluate(probes, kappa)


@dataclass
class SoscReport:
    """Sampled check of the curvature condition at a stationary point.

    ``min_form`` is the smallest value of the quadratic form over surviving
    unit directions, or None when no sampled direction lies in the cone
    (inconclusive). A positive minimum is evidence, not proof, of a strong
    local minimum.
    """

    sampled: int
    surviving: int
    min_form: float | None
    forms: np.ndarray


def sosc_probe(
    f: Objective,
    xbar: StiefelPoint,
    num_dirs: int,
    seed: int,
) -> SoscReport:
    """Sample the second-order quadratic form over critical-cone directions.

    Directions are random tangent vectors orthogonalized against the gradient,
    kept only when -X H^T H lies in the tangent cone of the nonnegative
    orthant at the base point (entrywise nonnegative where the base vanishes,
    checked to 1e-10), then normalized. For each survivor the probe
    evaluates <H, hess f(X) H> - <H^T H, X^T grad f(X)>.

    Raises:
        ValueError: if ``num_dirs`` is below 1, ``seed`` is negative, the base
            point's stationarity residual exceeds 1e-6 or the gradient there
            is not finite.
    """
    if num_dirs < 1:
        raise ValueError(f"num_dirs must be at least 1, got {num_dirs}")
    if not seed >= 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    resid = stationarity_residual(f, xbar)
    if resid > _SOSC_STATIONARITY_TOL:
        raise ValueError(
            f"base point is not stationary: residual {resid:.3e} exceeds {_SOSC_STATIONARITY_TOL}"
        )
    xm = xbar.mat
    g = f.gradient(xm)
    gf = proj_tangent(xm, g)
    gf_norm2 = float(np.sum(gf * gf))
    zero_mask = xm < ZERO_TOL

    rng = np.random.default_rng(seed)
    forms = []
    for _ in range(num_dirs):
        h = proj_tangent(xm, rng.standard_normal(xm.shape))
        if gf_norm2 > 1e-24:
            h = h - (float(np.sum(h * gf)) / gf_norm2) * gf
        norm = float(np.linalg.norm(h))
        if norm < 1e-12:
            continue
        h = h / norm
        cone_arg = -xm @ (h.T @ h)
        if np.any(cone_arg[zero_mask] < -_CONE_TOL):
            continue
        quad = float(np.sum(h * f.hessian_vec(xm, h)))
        correction = float(np.sum((h.T @ h) * (xm.T @ g)))
        forms.append(quad - correction)
    forms = np.asarray(forms, dtype=float)
    return SoscReport(
        sampled=num_dirs,
        surviving=forms.size,
        min_form=float(forms.min()) if forms.size else None,
        forms=forms,
    )


def nonexactness_probe_point(k: int) -> StiefelPoint:
    """Orthonormal 3 x 2 point with nonnegativity violation exactly 1/k^2.

    Along k the points converge to the feasible optimum of the bundled linear
    objective while the objective gap shrinks only like 1/k, so no fixed
    weight on the l1 violation can dominate the gap: the probe family behind
    the non-exactness tests.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    c = np.sqrt(1.0 - 1.0 / k**2)
    mat = np.array(
        [
            [c, -1.0 / k**2],
            [0.0, c],
            [1.0 / k, c / k],
        ]
    )
    return StiefelPoint(mat)


def nonexactness_probe_objective() -> tuple[Objective, float]:
    """Linear objective paired with nonexactness_probe_point.

    Returns the objective and its constrained optimal value -4, attained at
    rows (1, 0), (0, 1), (0, 0).
    """
    coeff = np.array([[-2.0, 0.0], [0.0, -2.0], [-1.0, -1.0]])
    return LinearObjective(coeff), -4.0


def zero_row_family(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Base point with a zero row and a nearby probe breaking the error bound.

    Returns (xbar, xk) in shape (3, 2): xbar is feasible with third row zero;
    xk puts 1/k in both entries of that row. The distance of xk to the
    feasible set is at least 1/k while its cone and manifold distances are of
    order 1/k^2, so the bound fails for large k at any fixed constant.
    """
    if k < 1:
        raise ValueError("k must be positive")
    xbar = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    xk = np.array([[1.0, 0.0], [0.0, 1.0], [1.0 / k, 1.0 / k]])
    return xbar, xk


def default_base_point(n: int, r: int) -> StiefelPoint:
    """Feasible base point without zero rows: rows assigned round-robin."""
    if not n >= r >= 1:
        raise ValueError(f"shape must satisfy n >= r >= 1, got ({n}, {r})")
    assign = np.arange(n) % r
    out = np.zeros((n, r))
    out[np.arange(n), assign] = 1.0
    return StiefelPoint(out / np.linalg.norm(out, axis=0))
