"""Empirical verification tools for the error-bound and curvature theory.

Provides the piecewise error-bound constant, an exhaustive projection oracle
onto the nonnegative orthogonal set for tiny shapes, ball sweeps that test the
error-bound inequality sample by sample, a sampled second-order sufficiency
probe, and the closed-form probe families used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import stationarity_residual
from .penalty import Objective
from .stiefel import (
    StiefelPoint,
    check_matrix,
    dist_to_stiefel,
    polar_orthonormalize,
    proj_tangent,
)
from .problems import LinearObjective

_ORACLE_PATTERN_CAP = 1_000_000
_ZERO_ROW_TOL = 1e-8


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
    xbar: StiefelPoint | np.ndarray,
    *,
    allow_zero_rows: bool = False,
    zero_tol: float = _ZERO_ROW_TOL,
) -> float:
    """Piecewise constant of the local error bound at a feasible base point.

    Returns 2.1 sqrt(n) for square shapes, 1 for single-column shapes, and
    2.1 sqrt(r) (1 + 3 r (n - r)) / (smallest nonzero entry) otherwise. The
    rectangular multi-column branch requires the base point to have no zero
    rows; ``allow_zero_rows=True`` bypasses that hypothesis check for
    counterexample probes.
    """
    mat = xbar.mat if isinstance(xbar, StiefelPoint) else check_matrix(xbar, "xbar")
    n, r = mat.shape
    if n == r:
        return 2.1 * float(np.sqrt(n))
    if r == 1:
        return 1.0
    row_norms = np.linalg.norm(mat, axis=1)
    if not allow_zero_rows and np.any(row_norms <= zero_tol):
        raise ValueError(
            "base point has a zero row; the rectangular multi-column bound "
            "does not apply (pass allow_zero_rows=True to probe anyway)"
        )
    nonzero = np.abs(mat[np.abs(mat) > zero_tol])
    if nonzero.size == 0:
        raise ValueError("base point has no nonzero entries")
    smallest = float(np.min(nonzero))
    return 2.1 * float(np.sqrt(r)) * (1.0 + 3.0 * r * (n - r)) / smallest


_pattern_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _patterns(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """All row-to-column assignments (column index or r for unassigned).

    Returns the (P, n) pattern table and its (P, n, r) one-hot float tensor.
    """
    key = (n, r)
    cached = _pattern_cache.get(key)
    if cached is not None:
        return cached
    count = (r + 1) ** n
    if count > _ORACLE_PATTERN_CAP:
        raise OracleSizeError(
            f"(r+1)^n = {count} exceeds the oracle cap {_ORACLE_PATTERN_CAP}"
        )
    grids = np.meshgrid(*([np.arange(r + 1)] * n), indexing="ij")
    table = np.stack([g.reshape(-1) for g in grids], axis=1)
    onehot = (table[:, :, None] == np.arange(r)[None, None, :]).astype(float)
    _pattern_cache[key] = (table, onehot)
    return table, onehot


def brute_force_dist_splus(x) -> tuple[float, np.ndarray]:
    """Exhaustive distance from x to the nonnegative orthogonal set.

    Enumerates every assignment of rows to columns (or to none). For a fixed
    assignment the best feasible point puts, in each column, the normalized
    positive part of x restricted to that column's rows; assignments leaving
    any column without positive mass admit no such point and are skipped.
    Returns the minimal distance and a minimizer.
    """
    x = check_matrix(x, "x")
    n, r = x.shape
    table, onehot = _patterns(n, r)
    pos = np.maximum(x, 0.0)
    # column mass per pattern: s[p, j] = ||positive part of column j on its rows||
    s = np.sqrt(np.einsum("pij,ij->pj", onehot, pos * pos))
    valid = np.all(s > 0.0, axis=1)
    if not np.any(valid):
        raise ValueError("no assignment has positive mass in every column")
    # dist^2 = ||x||^2 + r - 2 * sum_j s_j  for each valid pattern
    gain = np.where(valid, s.sum(axis=1), -np.inf)
    best = int(np.argmax(gain))
    d2 = float(np.sum(x * x)) + r - 2.0 * float(gain[best])
    minimizer = np.zeros_like(x)
    assign = table[best]
    for j in range(r):
        rows = assign == j
        col = pos[rows, j]
        minimizer[rows, j] = col / np.linalg.norm(col)
    return float(np.sqrt(max(d2, 0.0))), minimizer


def evaluate_error_bound(x, kappa: float) -> ErrorBoundSample:
    """Fill one ErrorBoundSample for a probe point and a given constant."""
    x = check_matrix(x, "x")
    dist_splus, _ = brute_force_dist_splus(x)
    dist_cone = float(np.linalg.norm(np.minimum(x, 0.0)))
    dist_st = dist_to_stiefel(x)
    holds = dist_splus <= (kappa + 1.0) * (dist_cone + dist_st)
    return ErrorBoundSample(
        x=x,
        dist_splus=dist_splus,
        dist_cone=dist_cone,
        dist_st=dist_st,
        kappa=kappa,
        holds=bool(holds),
    )


def error_bound_sweep(
    xbar: StiefelPoint,
    delta: float,
    num_samples: int,
    seed: int,
    *,
    kappa: float | None = None,
) -> list[ErrorBoundSample]:
    """Sample the Frobenius delta-ball around a feasible point and test the bound.

    Points are drawn uniformly from the ball. ``kappa`` defaults to the
    error-bound constant of the base point; pass an explicit value to probe
    hypotheses-violating bases.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if kappa is None:
        kappa = error_bound_constant(xbar)
    n, r = xbar.shape
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(num_samples):
        direction = rng.standard_normal(n * r)
        direction /= np.linalg.norm(direction)
        radius = delta * rng.random() ** (1.0 / (n * r))
        probe = xbar.mat + radius * direction.reshape(n, r)
        out.append(evaluate_error_bound(probe, kappa))
    return out


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
    *,
    stationarity_tol: float = 1e-6,
    cone_tol: float = 1e-10,
    zero_tol: float = _ZERO_ROW_TOL,
) -> SoscReport:
    """Sample the second-order quadratic form over critical-cone directions.

    Directions are random tangent vectors orthogonalized against the gradient,
    kept only when -X H^T H lies in the tangent cone of the nonnegative
    orthant at the base point (entrywise nonnegative where the base vanishes,
    checked to ``cone_tol``), then normalized. For each survivor the probe
    evaluates <H, hess f(X) H> - <H^T H, X^T grad f(X)>.

    Raises:
        ValueError: if the base point fails the stationarity precondition or
            the gradient there is not finite.
    """
    resid = stationarity_residual(f, xbar)
    if resid > stationarity_tol:
        raise ValueError(
            f"base point is not stationary: residual {resid:.3e} exceeds {stationarity_tol}"
        )
    xm = xbar.mat
    g = f.gradient(xm)
    gf = proj_tangent(xm, g)
    gf_norm2 = float(np.sum(gf * gf))
    zero_mask = xm < zero_tol

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
        if np.any(cone_arg[zero_mask] < -cone_tol):
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


def retraction_curvature(f: Objective, xbar: StiefelPoint, h: np.ndarray, t: float = 1e-3) -> float:
    """Second difference of f along the polar-retracted curve through xbar.

    Central second difference of t -> f(R(t H)) at zero; for the polar
    retraction this approximates the same quadratic form sosc_probe evaluates.
    """
    xm = xbar.mat
    if h.shape != xm.shape:
        raise ValueError(f"shape mismatch: point {xm.shape}, direction {h.shape}")
    fp = f.value(polar_orthonormalize(xm + t * h))
    fm = f.value(polar_orthonormalize(xm - t * h))
    f0 = f.value(xm)
    return (fp - 2.0 * f0 + fm) / (t * t)


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
    if n < r:
        raise ValueError(f"need n >= r, got ({n}, {r})")
    assign = np.arange(n) % r
    out = np.zeros((n, r))
    out[np.arange(n), assign] = 1.0
    return StiefelPoint(out / np.linalg.norm(out, axis=0))
