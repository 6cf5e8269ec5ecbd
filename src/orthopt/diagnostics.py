"""Empirical verification tools for the error-bound and curvature theory.

Provides the piecewise error-bound constant, an exhaustive projection oracle
onto the nonnegative orthogonal set for small shapes (r^n full assignments,
scored for a whole stack of samples at once), ball sweeps that test the
error-bound inequality for a whole stack of probes, and a sampled
second-order sufficiency probe.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import overload

import numpy as np

from .driver import ZERO_TOL, _assigned_point, _residual_and_gradient
from .penalty import Objective
from .stiefel import (
    StiefelPoint,
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


@dataclass
class ErrorBoundSample:
    """One probe point with its three distances and the bound check.

    ``holds`` records dist_splus <= (kappa + 1) * (dist_cone + dist_st).
    Two samples are equal when their fields are, ``x`` compared entrywise.
    """

    x: np.ndarray
    dist_splus: float
    dist_cone: float
    dist_st: float
    kappa: float
    holds: bool

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ErrorBoundSample):
            return NotImplemented
        return np.array_equal(self.x, other.x) and (
            self.dist_splus,
            self.dist_cone,
            self.dist_st,
            self.kappa,
            self.holds,
        ) == (other.dist_splus, other.dist_cone, other.dist_st, other.kappa, other.holds)


@dataclass(frozen=True, eq=False)
class ErrorBoundSweep(Sequence):
    """A whole sweep as arrays: probes ``x`` (S, n, r), the three distances and
    ``holds`` (S,) each, and the constant shared by every sample.

    A sequence of ``ErrorBoundSample``: indexing and iteration build each
    sample on demand, its ``x`` a view into the stack, so every access
    returns a new sample and setting its fields leaves the sweep unchanged.
    A slice is an ``ErrorBoundSweep`` over the sliced arrays.
    """

    x: np.ndarray
    dist_splus: np.ndarray
    dist_cone: np.ndarray
    dist_st: np.ndarray
    holds: np.ndarray
    kappa: float

    def __len__(self) -> int:
        return self.x.shape[0]

    @overload
    def __getitem__(self, k: int) -> ErrorBoundSample: ...

    @overload
    def __getitem__(self, k: slice) -> ErrorBoundSweep: ...

    def __getitem__(self, k):
        if isinstance(k, slice):
            return ErrorBoundSweep(
                self.x[k],
                self.dist_splus[k],
                self.dist_cone[k],
                self.dist_st[k],
                self.holds[k],
                self.kappa,
            )
        # negative indices and IndexError as for a list
        k = range(len(self))[operator.index(k)]
        return ErrorBoundSample(
            x=self.x[k],
            dist_splus=float(self.dist_splus[k]),
            dist_cone=float(self.dist_cone[k]),
            dist_st=float(self.dist_st[k]),
            kappa=self.kappa,
            holds=bool(self.holds[k]),
        )

    def __iter__(self) -> Iterator[ErrorBoundSample]:
        # one conversion per field array, not one per sample
        for x, dist_splus, dist_cone, dist_st, holds in zip(
            self.x,
            self.dist_splus.tolist(),
            self.dist_cone.tolist(),
            self.dist_st.tolist(),
            self.holds.tolist(),
        ):
            yield ErrorBoundSample(x, dist_splus, dist_cone, dist_st, self.kappa, holds)


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
    Adding a row to a column never lowers that column's gain, so the full
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


def _exact_gains(cols: np.ndarray, onehot: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """(m, P) gains of a pattern block for m samples, given each column's
    entries ``cols`` (r, m, n), the block's one-hot and masses (r, m, P).

    On a support where every entry of x is <= 0 the best nonnegative unit
    vector is e_i at the largest entry, so that entry is the column's gain;
    an empty column admits no unit vector and scores -inf.
    """
    top = np.full(mass.shape, -np.inf)
    for i in range(cols.shape[2]):
        np.maximum(top, np.where(onehot[:, None, i] > 0.0, cols[:, :, i, None], -np.inf), out=top)
    return np.where(mass > 0.0, np.sqrt(mass), top).sum(axis=0)


def _best_patterns(xs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """First pattern of largest gain for each matrix of an (S, n, r) stack.

    Scores the patterns in blocks of about ``_ORACLE_BLOCK`` samples x
    patterns. A column without positive mass gains at most 0, so a pattern's
    gain is at most its partial sum sqrt(mass).sum over columns, with equality
    when every column has positive mass. Where a block's first largest partial
    sum has positive mass in every column, it is therefore the block's first
    maximal gain. The other samples have the block scored exactly by
    ``_exact_gains``, unless that partial sum is no larger than their best
    gain so far, which the block then cannot beat.
    """
    num, n, r = xs.shape
    pos = np.maximum(xs, 0.0)
    # (r, S, n): row masses per column, ready for one matmul per column
    pos2 = np.ascontiguousarray((pos * pos).transpose(2, 0, 1))
    columns = np.arange(r, dtype=np.uint8)[:, None, None]
    # patterns per block: the (r, n, block) one-hot and the (r, S, block)
    # masses each hold about _ORACLE_BLOCK entries per column
    block = max(1, _ORACLE_BLOCK // max(num, n))
    rows = np.arange(num)
    best_gain = np.full(num, -np.inf)
    best = np.zeros(num, dtype=np.intp)
    for lo in range(0, table.shape[0], block):
        # onehot[j, i, p] = 1 where pattern lo + p sends row i to column j
        onehot = (table[lo : lo + block].T[None] == columns).astype(float)
        mass = pos2 @ onehot
        gain = np.sqrt(mass).sum(axis=0)
        arg = np.argmax(gain, axis=1)
        top = gain[rows, arg]
        # a block whose largest partial sum does not beat the best so far
        # cannot win, whatever its exact gains
        filled = np.all(mass[:, rows, arg] > 0.0, axis=0)
        mixed = np.flatnonzero(~filled & (top > best_gain))
        if mixed.size:
            gain = _exact_gains(xs[mixed].transpose(2, 0, 1), onehot, mass[:, mixed])
            arg[mixed] = np.argmax(gain, axis=1)
            top[mixed] = gain[np.arange(mixed.size), arg[mixed]]
        better = top > best_gain
        best_gain[better] = top[better]
        best[better] = lo + arg[better]
    return best


def _oracle(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances and minimizers for a finite (S, n, r) stack of matrices.

    Scores every full assignment of every sample, keeps the first maximal
    gain, builds the winning minimizer with ``driver._assigned_point``, the
    map that rounding uses too, and returns the direct distance
    ||x - minimizer||_F (the closed form ||x||^2 + r - 2 gain cancels to
    about sqrt(eps) near the feasible set).
    """
    num, n, r = xs.shape
    table = _patterns(n, r)
    minimizers = _assigned_point(xs, table[_best_patterns(xs, table)])
    dists = np.linalg.norm((xs - minimizers).reshape(num, -1), axis=1)
    return dists, minimizers


def _evaluate(xs: np.ndarray, kappa: float) -> ErrorBoundSweep:
    """Test the bound on every matrix of an (S, n, r) stack."""
    # validates the stack (shape, finite entries) before the oracle runs
    dist_st = dist_to_stiefel(xs)
    num = xs.shape[0]
    dist_splus, _ = _oracle(xs)
    neg = np.minimum(xs, 0.0).reshape(num, -1)
    # one dot product per sample, as np.linalg.norm sums a single matrix
    dist_cone = np.sqrt((neg[:, None, :] @ neg[:, :, None]).reshape(num))
    holds = dist_splus <= (kappa + 1.0) * (dist_cone + dist_st)
    return ErrorBoundSweep(xs, dist_splus, dist_cone, dist_st, holds, kappa)


def brute_force_dist_splus(x) -> tuple[float, np.ndarray]:
    """Exhaustive distance from x to the nonnegative orthogonal set.

    Enumerates the r^n full assignments of rows to columns (``_patterns``).
    For a fixed assignment the best feasible point puts, in each column, the
    normalized positive part of x restricted to that column's rows; a column
    whose rows carry no positive entry takes e_i at its largest entry.
    Returns the minimal distance, measured directly as ||x - minimizer||_F,
    and a minimizer.

    Raises:
        OracleSizeError: if r^n exceeds the one-million-pattern cap.
    """
    x = check_matrix(x, "x")
    dists, minimizers = _oracle(x[None])
    return float(dists[0]), minimizers[0]


def evaluate_error_bound(x, kappa: float) -> ErrorBoundSample:
    """Fill one ErrorBoundSample for a probe point and a given constant."""
    return _evaluate(check_matrix(x, "x")[None], kappa)[0]


def error_bound_sweep(
    xbar: StiefelPoint, delta: float, num_samples: int, seed: int
) -> ErrorBoundSweep:
    """Sample the Frobenius delta-ball around a feasible point and test the bound.

    Points are drawn uniformly from the ball, each as a direction and then a
    radius, into one (num_samples, n, r) stack, and the whole sweep is
    evaluated at once: one batched oracle pass and one stacked SVD. The
    constant is ``error_bound_constant(xbar)``; probes of hypotheses-violating
    bases go through ``evaluate_error_bound`` with an explicit constant.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    check_count(num_samples, "num_samples")
    check_count(seed, "seed", minimum=0)
    kappa = error_bound_constant(xbar)
    n, r = xbar.shape
    dim = n * r
    rng = np.random.default_rng(seed)
    directions = np.empty((num_samples, dim))
    radii = np.empty((num_samples, 1))
    # per sample, in this order: the direction's normals, then the radius's
    # uniform; the scalar ** keeps the bits of the one-sample draw
    for k in range(num_samples):
        rng.standard_normal(out=directions[k])
        radii[k] = delta * rng.random() ** (1.0 / dim)
    # the same bits as np.linalg.norm of each direction
    directions /= np.sqrt(directions[:, None, :] @ directions[:, :, None]).reshape(num_samples, 1)
    directions *= radii
    probes = xbar.mat + directions.reshape(num_samples, n, r)
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
        ValueError: if ``num_dirs`` is not an integer of at least 1, ``seed``
            is not a nonnegative integer, the base point's stationarity
            residual exceeds 1e-6 or the gradient there is not finite.
    """
    check_count(num_dirs, "num_dirs")
    check_count(seed, "seed", minimum=0)
    resid, g = _residual_and_gradient(f, xbar)
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
    assign = np.arange(n) % r
    out = np.zeros((n, r))
    out[np.arange(n), assign] = 1.0
    return StiefelPoint(out / np.linalg.norm(out, axis=0))
