"""Empirical verification tools for the error-bound and curvature theory.

Provides the piecewise error-bound constant, an exhaustive projection oracle
onto the nonnegative orthogonal set for small shapes (r^n full assignments,
scored for a whole stack of samples at once), ball sweeps that test the
error-bound inequality for a whole stack of probes, and a sampled
second-order sufficiency probe.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .driver import ZERO_TOL, _residual_and_gradient
from .penalty import Objective, check_feasible
from .stiefel import (
    StiefelPoint,
    assigned_point,
    check_count,
    check_matrix,
    dist_to_stiefel,
    proj_tangent,
)

_ORACLE_PATTERN_CAP = 1_000_000
# sosc_probe's stationarity precondition and tangent-cone tolerance
_SOSC_STATIONARITY_TOL = 1e-6
_CONE_TOL = 1e-10


class OracleSizeError(ValueError):
    """Raised when the exhaustive oracle would enumerate too many patterns."""


@dataclass(eq=False)
class ErrorBoundSample:
    """One probe point with its three distances and the bound check.

    ``holds`` records dist_splus <= (kappa + 1) * (dist_cone + dist_st), with
    the sweep's ``kappa``.
    """

    x: np.ndarray
    dist_splus: float
    dist_cone: float
    dist_st: float
    holds: bool


@dataclass(frozen=True, eq=False)
class ErrorBoundSweep:
    """A whole sweep as arrays: probes ``x`` (S, n, r), the three distances and
    ``holds`` (S,) each, and the constant shared by every sample.

    Iterable over ``ErrorBoundSample``s: each pass builds new samples, each
    ``x`` a view into the stack, so setting a sample's fields leaves the
    sweep unchanged.
    """

    x: np.ndarray
    dist_splus: np.ndarray
    dist_cone: np.ndarray
    dist_st: np.ndarray
    holds: np.ndarray
    kappa: float

    def __len__(self) -> int:
        return self.x.shape[0]

    def __iter__(self) -> Iterator[ErrorBoundSample]:
        # one conversion per field array, not one per sample
        for x, dist_splus, dist_cone, dist_st, holds in zip(
            self.x,
            self.dist_splus.tolist(),
            self.dist_cone.tolist(),
            self.dist_st.tolist(),
            self.holds.tolist(),
        ):
            yield ErrorBoundSample(x, dist_splus, dist_cone, dist_st, holds)


def error_bound_constant(xbar: StiefelPoint) -> float:
    """Piecewise constant of the local error bound at a feasible base point.

    Returns 2.1 sqrt(n) for square shapes, 1 for single-column shapes, and
    2.1 sqrt(r) (1 + 3 r (n - r)) / (smallest nonzero entry) otherwise.
    The value 1 serves the sweep's form dist_S+ <= (kappa + 1) (dist_cone +
    dist_st), not the bare dist_S+ <= kappa dist_cone: x = -e_1 on St(n, 1)
    has dist_S+ sqrt(2), dist_cone 1 and dist_st 0. The rectangular
    multi-column bound holds only at base points without zero rows (row norm
    above ``ZERO_TOL``), so a zero row raises ValueError, as does a
    nonnegativity violation above 5e-6.
    """
    mat = xbar.mat
    check_feasible(mat, "base point xbar")
    n, r = mat.shape
    if n == r:
        return 2.1 * float(np.sqrt(n))
    if r == 1:
        return 1.0
    row_norms = np.linalg.norm(mat, axis=1)
    if np.any(row_norms <= ZERO_TOL):
        raise ValueError(
            "base point has a zero row; the error bound for n > r > 1 holds "
            "only at base points without zero rows"
        )
    # unit columns give every column an entry of magnitude >= 1/sqrt(n) > ZERO_TOL
    smallest = float(np.min(np.abs(mat[np.abs(mat) > ZERO_TOL])))
    return 2.1 * float(np.sqrt(r)) * (1.0 + 3.0 * r * (n - r)) / smallest


# samples x patterns scored at once; bounds the oracle's working set
_ORACLE_BLOCK = 1 << 18


@functools.cache
def _patterns(n: int, r: int) -> np.ndarray:
    """All r^n full assignments of rows to columns, as a cached (P, n) uint8 table.

    Row 0 is the most significant digit, so the last row varies fastest.
    Adding a row to a column never lowers that column's gain, so the full
    assignments reach the maximum of the oracle's gain over all partial ones.
    """
    count = r**n
    if count > _ORACLE_PATTERN_CAP:
        raise OracleSizeError(f"r^n = {count} exceeds the oracle cap {_ORACLE_PATTERN_CAP}")
    return np.indices((r,) * n, dtype=np.uint8).reshape(n, -1).T


def _exact_gains(cols: np.ndarray, onehot: np.ndarray, root: np.ndarray) -> np.ndarray:
    """(m, P) gains of a pattern block for m samples, given each column's
    entries ``cols`` (r, m, n), the block's one-hot and the square roots of
    its masses (r, m, P).

    On a support where every entry of x is <= 0 the best nonnegative unit
    vector is e_i at the largest entry, so that entry is the column's gain;
    an empty column admits no unit vector and scores -inf.
    """
    top = np.full(root.shape, -np.inf)
    for i in range(cols.shape[2]):
        np.maximum(top, np.where(onehot[:, None, i] > 0.0, cols[:, :, i, None], -np.inf), out=top)
    return np.where(root > 0.0, root, top).sum(axis=0)


def _onehot(patterns: np.ndarray, r: int) -> np.ndarray:
    """(r, n, P) one-hot of a (P, n) pattern block: entry [j, i, p] is 1 where
    pattern p sends row i to column j."""
    return (patterns.T[None] == np.arange(r, dtype=np.uint8)[:, None, None]).astype(float)


def _block_best(
    xs: np.ndarray, pos2: np.ndarray, onehot: np.ndarray, floor: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First largest gain of one pattern block for each matrix of an (S, n, r)
    stack, as (index in the block, gain), given the (r, S, n) row masses per
    column ``pos2`` and the block's one-hot.

    A column without positive mass gains at most 0, so a pattern's gain is at
    most its partial sum sqrt(mass).sum over columns, with equality when every
    column has positive mass. Where the block's first largest partial sum has
    positive mass in every column, it is therefore the block's first maximal
    gain. The other samples have the block scored exactly by ``_exact_gains``,
    unless that partial sum is no larger than ``floor``, their best gain so
    far: they keep the partial sum, which cannot win.
    """
    rows = np.arange(xs.shape[0])
    # square roots of the masses: positive exactly where the mass is
    root = np.sqrt(pos2 @ onehot)
    gain = root.sum(axis=0)
    arg = np.argmax(gain, axis=1)
    top = gain[rows, arg]
    filled = np.all(root[:, rows, arg] > 0.0, axis=0)
    mixed = np.flatnonzero(~filled & (top > floor))
    if mixed.size:
        gain = _exact_gains(xs[mixed].transpose(2, 0, 1), onehot, root[:, mixed])
        arg[mixed] = np.argmax(gain, axis=1)
        top[mixed] = gain[np.arange(mixed.size), arg[mixed]]
    return arg, top


def _best_patterns(xs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """First pattern of largest gain for each matrix of an (S, n, r) stack.

    Scores the patterns in blocks of about ``_ORACLE_BLOCK`` samples x
    patterns with ``_block_best``. The first block seeds each sample's best
    gain; a later block replaces it only where it scores strictly higher, so
    ties keep the first pattern.
    """
    num, n, r = xs.shape
    pos = np.maximum(xs, 0.0)
    # (r, S, n): row masses per column, ready for one matmul per column
    pos2 = np.ascontiguousarray((pos * pos).transpose(2, 0, 1))
    # patterns per block: the (r, n, block) one-hot and the (r, S, block)
    # masses each hold about _ORACLE_BLOCK entries per column
    block = max(1, _ORACLE_BLOCK // max(num, n))
    best, best_gain = _block_best(xs, pos2, _onehot(table[:block], r), -np.inf)
    for lo in range(block, table.shape[0], block):
        arg, top = _block_best(xs, pos2, _onehot(table[lo : lo + block], r), best_gain)
        better = top > best_gain
        best_gain = np.where(better, top, best_gain)
        best = np.where(better, lo + arg, best)
    return best


def _oracle(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances and minimizers for a finite (S, n, r) stack of matrices.

    Scores every full assignment of every sample, keeps the first maximal
    gain, builds the winning minimizer with ``stiefel.assigned_point``, the
    map that rounding uses too, and returns the direct distance
    ||x - minimizer||_F (the closed form ||x||^2 + r - 2 gain cancels to
    about sqrt(eps) near the feasible set).
    """
    num, n, r = xs.shape
    table = _patterns(n, r)
    minimizers = assigned_point(xs, table[_best_patterns(xs, table)])
    # the same bits as np.linalg.norm of each flattened difference
    d = (xs - minimizers).reshape(num, -1)
    dists = np.sqrt(np.add.reduce(d * d, axis=1))
    return dists, minimizers


def brute_force_dist_splus(x) -> tuple[float, np.ndarray]:
    """Exhaustive distance from x to the nonnegative orthogonal set.

    Enumerates the r^n full assignments of rows to columns (``_patterns``).
    For a fixed assignment the best feasible point is ``assigned_point``'s.
    Returns the minimal distance, measured directly as ||x - minimizer||_F,
    and a minimizer.

    Raises:
        OracleSizeError: if r^n exceeds the one-million-pattern cap.
    """
    x = check_matrix(x, "x")
    dists, minimizers = _oracle(x[None])
    return float(dists[0]), minimizers[0]


# a probe lies within sqrt(r) + delta of the origin and its minimizer within
# sqrt(r), so every squared distance the sweep sums is at most
# (delta + 2 sqrt(r))^2: about 1e308 at this bound, below the largest double
_DELTA_MAX = 1e154


def error_bound_sweep(
    xbar: StiefelPoint, delta: float, num_samples: int, seed: int
) -> ErrorBoundSweep:
    """Sample the Frobenius delta-ball around a feasible point and test the bound.

    Points are drawn uniformly from the ball, each as a direction and then a
    radius, into one (num_samples, n, r) stack, and the whole sweep is
    evaluated at once: one batched oracle pass and one stacked SVD. The
    constant is ``error_bound_constant(xbar)``.

    Raises:
        ValueError: if the base is infeasible or, for n > r > 1, has a zero
            row, ``delta`` is not positive or exceeds 1e154 (beyond it
            squared distances overflow), ``num_samples`` is below 1 or
            ``seed`` is negative.
    """
    if not 0 < delta <= _DELTA_MAX:
        raise ValueError(f"delta must be positive and at most {_DELTA_MAX:g}, got {delta}")
    check_count(num_samples, "num_samples")
    check_count(seed, "seed", minimum=0)
    kappa = error_bound_constant(xbar)
    n, r = xbar.shape
    dim = n * r
    rng = np.random.default_rng(seed)
    normal, uniform = rng.standard_normal, rng.random
    power = 1.0 / dim
    directions = np.empty((num_samples, dim))
    radii = []
    # per sample, in this order: the direction's normals, then the radius's
    # uniform; the scalar ** keeps the bits of the one-sample draw
    for row in directions:
        normal(out=row)
        radii.append(delta * uniform() ** power)
    # the same bits as np.linalg.norm of each direction
    directions /= np.sqrt(directions[:, None, :] @ directions[:, :, None]).reshape(num_samples, 1)
    directions *= np.array(radii)[:, None]
    probes = xbar.mat + directions.reshape(num_samples, n, r)
    dist_st = dist_to_stiefel(probes)
    dist_splus, _ = _oracle(probes)
    neg = np.minimum(probes, 0.0).reshape(num_samples, -1)
    # one dot product per sample, as np.linalg.norm sums a single matrix
    dist_cone = np.sqrt((neg[:, None, :] @ neg[:, :, None]).reshape(num_samples))
    holds = dist_splus <= (kappa + 1.0) * (dist_cone + dist_st)
    return ErrorBoundSweep(probes, dist_splus, dist_cone, dist_st, holds, kappa)


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
        ValueError: if ``num_dirs`` is not an integer of at least 1, ``seed``
            is not a nonnegative integer, the base point's nonnegativity
            violation exceeds 5e-6, its stationarity residual exceeds 1e-6 or
            the gradient there is not finite.
    """
    check_count(num_dirs, "num_dirs")
    check_count(seed, "seed", minimum=0)
    resid, g = _residual_and_gradient(f, xbar, "base point xbar")
    if resid > _SOSC_STATIONARITY_TOL:
        raise ValueError(
            f"base point is not stationary: residual {resid:.3e} exceeds {_SOSC_STATIONARITY_TOL}"
        )
    xm = xbar.mat
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


def default_base_point(n: int, r: int) -> StiefelPoint:
    """Feasible base point without zero rows: rows assigned round-robin."""
    check_count(r, "r")
    check_count(n, "n", minimum=r)
    return StiefelPoint(assigned_point(np.ones((n, r)), np.arange(n) % r))
