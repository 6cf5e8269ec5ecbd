"""Objective implementations for the benchmark problem families.

Quadratic assignment in its lifted form, graph matching over a vectorized
affinity matrix, projection onto the nonnegative orthogonal set, and
orthogonal nonnegative matrix factorization via alternating minimization.
Instances are immutable and objective evaluations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .driver import PenaltyConfig, penalty_solve
from .penalty import Objective
from .stiefel import StiefelPoint, check_matrix, qr_orthonormalize

# onmf_alternate stops once the residual's relative change is at most this
_ONMF_REL_TOL = 1e-6


@dataclass(frozen=True)
class QapInstance:
    """Quadratic assignment data: n x n weight matrices A and B.

    ``symmetric`` records whether A and B are both exactly symmetric, read
    off the data once; the lifted objective then needs half the products.
    """

    a: np.ndarray
    b: np.ndarray
    symmetric: bool = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if b.shape != a.shape:
            raise ValueError(f"B shape {b.shape} does not match A shape {a.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        symmetric = bool(np.array_equal(a, a.T) and np.array_equal(b, b.T))
        object.__setattr__(self, "symmetric", symmetric)

    @property
    def n(self) -> int:
        return self.a.shape[0]


class QapLiftedObjective(Objective):
    """<A, W B W^T> with W = X o X (entrywise square).

    On binary feasible points W coincides with X, so this agrees with the
    classical assignment objective on permutation matrices while staying
    nonnegative everywhere for nonnegative data.

    With M = A W B^T the value is <W, M> and the gradient is
    2 X o (M + A^T W B), validated against finite differences in the test
    suite. When A and B are both symmetric (``QapInstance.symmetric``),
    A^T W B = M and the gradient is 4 X o M: two products per evaluation
    instead of four.
    """

    def __init__(self, inst: QapInstance):
        self.inst = inst

    # perfbench/tracer.py wraps these in the class's own namespace
    value, gradient = Objective.value, Objective.gradient

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        inst = self.inst
        w = x * x
        m = inst.a @ w @ inst.b.T
        val = float(w.ravel().dot(m.ravel()))
        if inst.symmetric:
            return val, 4.0 * x * m
        return val, 2.0 * x * (m + inst.a.T @ w @ inst.b)


def qap_permutation_value(inst: QapInstance, perm) -> float:
    """Classical assignment objective sum_ij A_ij B_{p(i) p(j)}."""
    perm = np.asarray(perm, dtype=int)
    return float(np.sum(inst.a * inst.b[np.ix_(perm, perm)]))


def permutation_matrix(perm) -> np.ndarray:
    perm = np.asarray(perm, dtype=int)
    out = np.zeros((perm.size, perm.size))
    out[np.arange(perm.size), perm] = 1.0
    return out


@dataclass(frozen=True)
class AffinityInstance:
    """Graph-matching affinity: a symmetric nonnegative n^2 x n^2 matrix.

    The constructor symmetrizes the input; the gradient formula relies on
    symmetry, which affinity constructions guarantee up to rounding.
    """

    k: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError(f"affinity matrix must be square, got shape {k.shape}")
        n = int(round(np.sqrt(k.shape[0])))
        if n * n != k.shape[0]:
            raise ValueError(f"affinity size {k.shape[0]} is not a perfect square")
        object.__setattr__(self, "k", 0.5 * (k + k.T))
        object.__setattr__(self, "n", n)


class GraphMatchingObjective(Objective):
    """Maximize vec(X)^T K vec(X), implemented as its negation for minimizers.

    vec stacks columns. With K symmetric the gradient is -2 unvec(K vec(X)).
    Value and gradient share the product K vec(X), which dominates the cost.
    """

    def __init__(self, inst: AffinityInstance):
        self.inst = inst

    # perfbench/tracer.py wraps these in the class's own namespace
    value, gradient = Objective.value, Objective.gradient

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        v = x.reshape(-1, order="F")
        kv = self.inst.k @ v
        return -float(v @ kv), -2.0 * kv.reshape(x.shape, order="F")


class ProjectionObjective(Objective):
    """||X - C||_F^2 for a fixed target C; the canonical projection problem."""

    def __init__(self, target):
        self.target = check_matrix(target, "target")

    # perfbench/tracer.py wraps these in the class's own namespace
    value, gradient = Objective.value, Objective.gradient

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        d = x - self.target
        return float(np.sum(d * d)), 2.0 * d

    def hessian_vec(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(h, dtype=float)


@dataclass(frozen=True)
class OnmfInstance:
    """Orthogonal NMF data: nonnegative n x p matrix and cluster count r."""

    a: np.ndarray
    r: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"data matrix must be 2-dimensional, got {a.shape}")
        if np.any(a < 0):
            raise ValueError("data matrix must be entrywise nonnegative")
        if not 1 <= self.r <= a.shape[0]:
            raise ValueError(f"cluster count {self.r} out of range for {a.shape[0]} rows")
        object.__setattr__(self, "a", a)


class OnmfFactorObjective(Objective):
    """||A - X Y^T||_F^2 in X for a fixed nonnegative factor Y; value and
    gradient share the product X Y^T."""

    def __init__(self, a: np.ndarray, y: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.y = np.asarray(y, dtype=float)

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        xy = x @ self.y.T
        d = self.a - xy
        return float(np.sum(d * d)), 2.0 * (xy - self.a) @ self.y


def onmf_y_update(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Nonnegative least-squares surrogate max(0, A^T X (X^T X)^{-1}).

    For orthonormal X the Gram matrix is the identity and this reduces to
    max(0, A^T X), the exact minimizer over nonnegative Y.
    """
    gram = x.T @ x
    try:
        sol = np.linalg.solve(gram, (a.T @ x).T).T
    except np.linalg.LinAlgError:
        sol = (a.T @ x) @ np.linalg.pinv(gram)
    return np.maximum(0.0, sol)


def onmf_alternate(
    inst: OnmfInstance,
    x0: StiefelPoint,
    cfg: PenaltyConfig,
    solve=penalty_solve,
    *,
    max_rounds: int = 100,
) -> tuple[StiefelPoint, np.ndarray, list]:
    """Alternating minimization for orthogonal NMF.

    Each round updates Y by the nonnegative least-squares surrogate, then X by
    an outer solve of the factor objective from the current X. Stops when the
    relative change of the residual drops to 1e-6 or after ``max_rounds``.
    Returns the final factors and the residual history, one value per round.

    ``solve`` is the outer solver of the X-update, ``penalty_solve`` or
    ``alm_solve``; it is called as solve(objective, x, cfg) and must return a
    SolveReport. ``bench.default_config(solver, "onmf", inst)`` gives the
    harness's configuration.
    """
    x = x0
    y = onmf_y_update(inst.a, x.mat)
    history: list[float] = []
    prev = np.inf
    for _ in range(max_rounds):
        obj = OnmfFactorObjective(inst.a, y)
        report = solve(obj, x, cfg)
        x = report.x_final
        y = onmf_y_update(inst.a, x.mat)
        resid = OnmfFactorObjective(inst.a, y).value(x.mat)
        history.append(resid)
        if abs(prev - resid) <= _ONMF_REL_TOL * (1.0 + abs(resid)):
            break
        prev = resid
    return x, y, history


def cluster_labels(x: np.ndarray) -> np.ndarray:
    """1-based cluster assignment of each row by its largest entry."""
    return np.argmax(np.asarray(x), axis=1) + 1


def random_stiefel_start(n: int, r: int, seed: int) -> StiefelPoint:
    """Orthonormalized standard Gaussian draw; deterministic per seed."""
    if not seed >= 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    return StiefelPoint(qr_orthonormalize(rng.standard_normal((n, r))))


def planted_onmf_instance(
    n: int, p: int, r: int, noise: float, seed: int
) -> tuple[OnmfInstance, np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic ONMF data with r planted row clusters.

    Rows are split into r contiguous balanced groups; group j follows the
    nonnegative template row j of Y* scaled by the row's entry in X*, plus
    additive uniform noise of amplitude ``noise``. Templates have disjoint
    dominant blocks so clusters are separated at low noise. Returns the
    instance, the 1-based truth labels, and the planted factors.
    """
    if not 1 <= r <= min(n, p):
        raise ValueError(f"need 1 <= r <= min(n, p), got r={r}")
    rng = np.random.default_rng(seed)
    labels = 1 + (np.arange(n) % r)
    x_true = np.zeros((n, r))
    for j in range(r):
        rows = np.flatnonzero(labels == j + 1)
        weights = 0.5 + rng.random(rows.size)
        x_true[rows, j] = weights / np.linalg.norm(weights)
    y_true = 0.1 * rng.random((p, r))
    block = max(1, p // r)
    for j in range(r):
        lo = j * block
        hi = p if j == r - 1 else (j + 1) * block
        y_true[lo:hi, j] += 1.0 + rng.random(hi - lo)
    a = x_true @ y_true.T + noise * rng.random((n, p))
    return OnmfInstance(a=a, r=r), labels, x_true, y_true


def noisy_projection_target(
    n: int, r: int, xi: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic projection target: a feasible point plus Gaussian noise.

    Returns (C, X*) with C = X* + xi * N for a random feasible X* and a
    standard Gaussian N. A deliberately simple, documented generator; at
    moderate xi the feasible X* remains the unique projection.
    """
    rng = np.random.default_rng(seed)
    assign = rng.integers(0, r, size=n)
    # guarantee every column at least one row
    assign[:r] = np.arange(r)
    vals = 0.5 + rng.random(n)
    x_true = np.zeros((n, r))
    x_true[np.arange(n), assign] = vals
    x_true /= np.linalg.norm(x_true, axis=0)
    c = x_true + xi * rng.standard_normal((n, r))
    return c, x_true
