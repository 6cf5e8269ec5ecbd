"""Reference objectives, oracles and probe families that only the tests use."""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from orthopt.driver import round_to_feasible
from orthopt.penalty import Objective
from orthopt.pgm import PgmTrace
from orthopt.problems import QapInstance, qap_permutation_value
from orthopt.stiefel import StiefelPoint, check_matrix

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


def window_max_values(trace: PgmTrace) -> list:
    """Running maximum of the trailing memory + 1 objective values of a trace.

    This sequence is nonincreasing for any run produced by the iteration.
    """
    out = []
    for k in range(len(trace.values)):
        lo = max(0, k - trace.memory)
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
