"""Reference objectives, oracles and probe families that only the tests use."""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from orthopt.diagnostics import ErrorBoundSample, brute_force_dist_splus
from orthopt.driver import ZERO_TOL, round_to_feasible
from orthopt.penalty import Objective
from orthopt.pgm import PgmTrace
from orthopt.problems import QapInstance, qap_permutation_value
from orthopt.stiefel import StiefelPoint, check_matrix, dist_to_stiefel

# stored fixtures of the tests
DATA = Path(__file__).resolve().parent / "data"
# largest n that brute_force_qap enumerates (n! permutations)
_BRUTE_FORCE_MAX_N = 9


class LinearObjective(Objective):
    """<G, X> for a fixed coefficient matrix G."""

    def __init__(self, coeff):
        self.coeff = check_matrix(coeff, "coeff")

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return float(np.sum(self.coeff * x)), self.coeff.copy()

    def hessian_vec(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        return np.zeros_like(self.coeff)


def brute_force_qap(inst: QapInstance) -> tuple[float, np.ndarray]:
    """Exhaustive minimum of the assignment objective over all permutations."""
    n = inst.n
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {_BRUTE_FORCE_MAX_N}, got {n}")
    best_val, best_perm = np.inf, None
    for perm in itertools.permutations(range(n)):
        val = qap_permutation_value(inst, perm)
        if val < best_val:
            best_val, best_perm = val, perm
    return float(best_val), np.asarray(best_perm, dtype=int)


def prox_nonneg_violation(x, gamma: float) -> np.ndarray:
    """Proximal map of the l1 violation: entrywise min(x + gamma, max(x, 0)).

    Entries in [-gamma, 0] snap to zero, entries below -gamma shift up by
    gamma, nonnegative entries are fixed. 1-Lipschitz in Frobenius norm.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    x = np.asarray(x, dtype=float)
    return np.minimum(x + gamma, np.maximum(x, 0.0))


def svd_start(a: np.ndarray, r: int) -> StiefelPoint:
    """Feasible start from the dominant left singular subspace.

    Rounds the entrywise absolute value of the top-r left singular vectors
    onto the nonnegative orthogonal set.
    """
    u, _, _ = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
    return round_to_feasible(np.abs(u[:, :r]))


def window_max_values(trace: PgmTrace, memory: int) -> list:
    """Running maximum of the trailing memory + 1 objective values of a trace,
    with memory the window memory of the ``PgmConfig`` that produced it.

    This sequence is nonincreasing for any run produced by the iteration.
    """
    out = []
    for k in range(len(trace.values)):
        lo = max(0, k - memory)
        out.append(max(trace.values[lo : k + 1]))
    return out


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


def rectangular_constant(xbar) -> float:
    """The paper's constant for n > r > 1, 2.1 sqrt(r) (1 + 3 r (n - r)) over
    the smallest positive entry of xbar, computed without the no-zero-row
    hypothesis that ``error_bound_constant`` checks: the constant that a probe
    around a zero-row base point is held to."""
    n, r = xbar.shape
    return 2.1 * np.sqrt(r) * (1.0 + 3.0 * r * (n - r)) / np.min(xbar[xbar > 0.0])


def reference_error_bound(x, kappa: float) -> ErrorBoundSample:
    """The error-bound check at one probe point, from public primitives: the
    exhaustive distance to the feasible set, the Frobenius norm of the
    negative part and the distance to the Stiefel manifold."""
    x = check_matrix(x, "x")
    dist_splus, _ = brute_force_dist_splus(x)
    dist_cone = float(np.linalg.norm(np.minimum(x, 0.0)))
    dist_st = dist_to_stiefel(x)
    holds = dist_splus <= (kappa + 1.0) * (dist_cone + dist_st)
    return ErrorBoundSample(x, dist_splus, dist_cone, dist_st, holds)


def shared_row_case(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A near-feasible orthonormal 5 x 4 point with one row in two column
    supports, and a standard Gaussian gradient, both seeded.

    Rows go to columns with every column used. Row i of a column j that holds
    two or more rows then gains a small entry in another column k, balanced
    by a negative entry of magnitude 1e-7 to 2e-6 on another row l of column
    j, so the columns stay orthogonal and the violation stays below 5e-6.
    All other entries are exact zeros.
    """
    rng = np.random.default_rng(seed)
    n, r = 5, 4
    assign = rng.permutation(np.concatenate([np.arange(r), rng.integers(0, r, n - r)]))
    x = np.zeros((n, r))
    x[np.arange(n), assign] = 0.5 + rng.random(n)
    j = int(rng.choice(np.flatnonzero(np.bincount(assign, minlength=r) >= 2)))
    i, l = rng.choice(np.flatnonzero(assign == j), 2, replace=False)
    k = (j + rng.integers(1, r)) % r
    x[l, k] = -(10.0 ** rng.uniform(-7.0, np.log10(2e-6)))
    x[i, k] = -x[l, j] * x[l, k] / x[i, j]
    return x / np.linalg.norm(x, axis=0), rng.standard_normal((n, r))


def _nnls(a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """argmin ||b - a u|| over u >= 0, by the Lawson-Hanson active-set method."""
    m = a.shape[1]
    u = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    for _ in range(10 * m + 10):
        w = a.T @ (b - a @ u)
        if not np.any(~passive & (w > tol)):
            return u
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        while True:
            z = np.zeros(m)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if np.all(z[passive] > 0.0):
                u = z
                break
            neg = passive & (z <= 0.0)
            u = u + np.min(u[neg] / (u[neg] - z[neg])) * (z - u)
            passive &= u > tol
            u[~passive] = 0.0
    raise RuntimeError("nonnegative least squares did not converge")


def reference_stationarity(x, g) -> float:
    """The stationarity residual min ||g + G - X S||_F over symmetric S and
    G <= 0 on the entries of x below ZERO_TOL, G = 0 elsewhere, minimized in
    G rather than in S: S is eliminated by projecting off the span of the
    X E_q (E_q the symmetric unit matrices), and G = -u with u the
    nonnegative least-squares solution on the zero entries."""
    x = check_matrix(x, "x")
    n, r = x.shape
    iu, ju = np.triu_indices(r)
    units = np.zeros((iu.size, r, r))
    units[np.arange(iu.size), iu, ju] = 1.0
    units[np.arange(iu.size), ju, iu] = 1.0
    q = np.linalg.qr((x @ units).reshape(iu.size, -1).T)[0]

    def off_span(v: np.ndarray) -> np.ndarray:
        return v - q @ (q.T @ v)

    b = off_span(np.asarray(g, dtype=float).ravel())
    a = off_span(np.eye(n * r)[:, (x < ZERO_TOL).ravel()])
    return float(np.linalg.norm(b - a @ _nnls(a, b)))
