"""Nonmonotone line-search proximal gradient iteration on the Stiefel manifold.

Each step retracts a multiple of the negative projected gradient back onto the
manifold. The trial step size starts from a Barzilai-Borwein estimate (the
first from a caller-supplied step or 1 / ||grad||) and is shrunk
geometrically until the new value drops below the maximum objective
over a sliding window of past iterates minus a sufficient-decrease margin.
With window memory zero the method is strictly monotone. One loop in
``pgm_solve`` runs the iteration and its line search on raw arrays and
evaluates each trial point once; only the returned point is certified as a
``StiefelPoint``, which adopts the solver's own read-only array of it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .penalty import Objective
from .stiefel import (
    StiefelPoint,
    check_count,
    check_matrix,
    frobenius_norm,
    proj_tangent,
    qr_orthonormalize,
)

_BB_DEGENERACY = 1e-16
_EPS = float(np.finfo(float).eps)


class LineSearchError(RuntimeError):
    """Backtracking exhausted its budget without an acceptable step.

    The acceptance test is guaranteed to pass once the step is small enough,
    so hitting the budget usually means the supplied gradient is wrong. When
    raised from ``pgm_solve`` the partial trace is attached as ``trace``.
    """

    def __init__(self, msg: str, trace: "PgmTrace | None" = None):
        super().__init__(msg)
        self.trace = trace


@dataclass
class PgmConfig:
    """Tunables for the line-search iteration.

    Attributes:
        eta: backtracking shrink factor in (0, 1).
        alpha: sufficient-decrease weight.
        memory: the acceptance window covers the last memory + 1 values;
            0 gives a monotone method.
        t_min, t_max: clamp range for each iteration's starting trial step:
            ``t_first`` of ``pgm_solve`` or 1 / ||grad|| on the first
            iteration, the Barzilai-Borwein estimate on later ones.
        grad_tol: stop once the projected-gradient norm falls below this.
        max_iters: iteration cap per solve.
        max_backtracks: shrink budget per step; exceeding it raises
            LineSearchError.
    """

    eta: float = 0.1
    alpha: float = 1e-4
    memory: int = 5
    t_min: float = 1e-12
    t_max: float = 1e12
    grad_tol: float = 1e-6
    max_iters: int = 5000
    max_backtracks: int = 50

    def __post_init__(self):
        check_count(self.memory, "memory", minimum=0)
        check_count(self.max_iters, "max_iters")
        check_count(self.max_backtracks, "max_backtracks")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.t_min < math.inf:
            raise ValueError(f"t_min must be positive and finite, got {self.t_min}")
        # an infinite t_max means no cap
        if not self.t_min <= self.t_max:
            raise ValueError(f"need 0 < t_min <= t_max, got ({self.t_min}, {self.t_max})")
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")


@dataclass
class PgmTrace:
    """Per-iteration record of a solve.

    ``values`` and ``grad_norms`` cover every iterate including the start;
    the remaining lists have one entry per step, with ``v_norms`` 0.0 for a
    stalled step. ``evaluations``
    counts the objective evaluations (``value_and_gradient`` calls) of the
    solve: one at the start and one per trial point. The start is counted
    even when the objective answers it from a record handed in by an outer
    driver (see ``PenaltyObjective.last``).

    ``last_step`` is the step to carry into a later solve: the step size of
    the last accepted (not stalled) step, or the solve's ``t_first`` when no
    step was accepted.
    """

    memory: int
    grad_tol: float = float("nan")
    last_step: float | None = None
    evaluations: int = 0
    values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    v_norms: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.step_sizes)


def _bb_stepsize(
    dx: np.ndarray, dy: np.ndarray, t_min: float, t_max: float, fallback: float
) -> float:
    """Barzilai-Borwein step from iterate and gradient differences of one shape.

    Returns max(min(||dx||^2/|<dx,dy>|, |<dx,dy>|/||dy||^2, t_max), t_min).
    When the curvature inner product is negligible relative to the norms, or
    either difference vanishes, the (clamped) fallback is returned instead.
    """
    nx2 = float((dx * dx).sum())
    ny2 = float((dy * dy).sum())
    ip = abs(float((dx * dy).sum()))
    if nx2 == 0.0 or ny2 == 0.0 or ip <= _BB_DEGENERACY * np.sqrt(nx2 * ny2):
        t = fallback
    else:
        t = min(nx2 / ip, ip / ny2, t_max)
    return float(min(max(t, t_min), t_max))


def _projected_gradient(xm: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
    """Tangent projection of grad at xm and its norm; a non-finite gradient
    raises ValueError (its norm is then non-finite, so finite runs skip the scan)."""
    rgrad = proj_tangent(xm, grad)
    gnorm = frobenius_norm(rgrad)
    if not math.isfinite(gnorm):
        check_matrix(grad, "gradient")
    return rgrad, gnorm


def pgm_solve(
    obj: Objective,
    x0: StiefelPoint,
    cfg: PgmConfig,
    t_first: float | None = None,
    grad_tol: float | None = None,
) -> tuple[StiefelPoint, PgmTrace]:
    """Run the iteration from x0 until stationarity or the iteration cap.

    Returns the first iterate whose projected-gradient norm is at most
    ``grad_tol`` (``cfg.grad_tol`` when None; ``trace.converged`` is then
    True), or the lowest-value iterate of the trailing window once
    ``max_iters`` is exhausted. The final objective value never exceeds the
    initial one.

    The first trial step is ``t_first`` when given and 1 / ||grad|| otherwise,
    clamped to [t_min, t_max]; later steps use the Barzilai-Borwein estimate
    with the previous step as fallback. Backtracking and its acceptance test
    are the same for every step, so any positive ``t_first`` is admissible.
    The outer drivers (``penalty_solve`` and ``alm_solve``) pass the previous
    subproblem's ``trace.last_step``, and ``penalty_solve`` its stationarity
    target tau_l as ``grad_tol``.

    Each step sets V = -t * g for the projected gradient g at the iterate X,
    retracts X + V by QR, and multiplies t by eta until

        value(X+) <= window_max - alpha / (2 t) * ||V||^2

    with window_max the largest value over the window. When the demanded
    decrease falls below the resolution of the test and the trial value sits
    within a few resolutions of the window maximum, no representable progress
    exists at this scale: the step stalls (the iterate stays, and the trace
    records ||V|| as 0) instead of failing, so outer loops can recover (for
    example by growing the penalty weight). The resolution is
    eps * (1 + |window_max| + ||X||_F ||grad f(X)||_F): the float spacing of
    the window maximum plus the value change that the retraction's roundoff
    alone causes, with grad f(X) the Euclidean gradient at X. A genuine
    persistent increase at representable scales raises LineSearchError once
    the backtrack budget is exhausted.

    Iterates are kept as raw arrays and every point, x0 and each trial, is
    evaluated once through ``obj.value_and_gradient``; an accepted trial's
    gradient is reused for the next step. The returned point is x0 itself
    when the returned iterate is the start. Otherwise it is the solver's own
    iterate array,
    made read-only and adopted by ``StiefelPoint`` without a copy, so an
    evaluation record the objective keeps of that array (see
    ``PenaltyObjective.last``) is found by identity.
    Raises ValueError when a gradient at an iterate, or a trial point, is not
    finite, or when ``t_first`` or ``grad_tol`` is not positive.
    """
    if t_first is not None and not t_first > 0:
        raise ValueError(f"t_first must be positive, got {t_first}")
    if grad_tol is None:
        grad_tol = cfg.grad_tol
    elif not grad_tol > 0:
        raise ValueError(f"grad_tol must be positive, got {grad_tol}")
    trace = PgmTrace(memory=cfg.memory, grad_tol=grad_tol, last_step=t_first)

    def certified(mat: np.ndarray) -> StiefelPoint:
        if mat is x0.mat:
            return x0
        mat.flags.writeable = False
        return StiefelPoint(mat)

    xm = x0.mat
    trace.evaluations += 1
    val, grad = obj.value_and_gradient(xm)
    val = float(val)
    rgrad, gnorm = _projected_gradient(xm, grad)
    trace.values.append(val)
    trace.grad_norms.append(gnorm)

    window: deque = deque([(val, xm)], maxlen=cfg.memory + 1)
    prev_t = 1.0
    prev_mat: np.ndarray | None = None
    prev_rgrad: np.ndarray | None = None

    for k in range(cfg.max_iters):
        if gnorm <= grad_tol:
            trace.converged = True
            return certified(xm), trace
        if k == 0:
            t0 = 1.0 / gnorm if t_first is None else t_first
            t = float(min(max(t0, cfg.t_min), cfg.t_max))
        else:
            t = _bb_stepsize(xm - prev_mat, rgrad - prev_rgrad, cfg.t_min, cfg.t_max, prev_t)
        window_max = max(v for v, _ in window)
        for bt in range(cfg.max_backtracks + 1):
            v = -t * rgrad
            cand = qr_orthonormalize(xm + v)
            # a finite orthonormal factor has entries in [-1, 1], so its sum is
            # finite exactly when every entry is; the full check names the fault
            if not math.isfinite(cand.sum()):
                check_matrix(cand, "retracted trial point")
            trace.evaluations += 1
            cand_val, cand_grad = obj.value_and_gradient(cand)
            cand_val = float(cand_val)
            demand = (cfg.alpha / (2.0 * t)) * float((v * v).sum())
            if cand_val <= window_max - demand:
                v_norm = frobenius_norm(v)
                break
            roundoff = frobenius_norm(xm) * frobenius_norm(grad)
            resolution = _EPS * (1.0 + abs(window_max) + roundoff)
            if demand <= resolution and cand_val <= window_max + 4.0 * resolution:
                cand, v_norm = None, 0.0
                break
            t *= cfg.eta
        else:
            raise LineSearchError(
                f"no acceptable step after {cfg.max_backtracks} backtracks (last t={t:.3e})",
                trace,
            )
        prev_mat, prev_rgrad, prev_t = xm, rgrad, t
        # a stalled step leaves the iterate, its value and its gradient unchanged
        if cand is not None:
            xm, val, grad = cand, cand_val, cand_grad
            trace.last_step = t
            rgrad, gnorm = _projected_gradient(xm, grad)
        trace.values.append(val)
        trace.grad_norms.append(gnorm)
        trace.step_sizes.append(t)
        trace.v_norms.append(v_norm)
        trace.backtracks.append(bt)
        window.append((val, xm))

    if gnorm <= grad_tol:
        trace.converged = True
        return certified(xm), trace
    _, best = min(window, key=lambda pair: pair[0])
    return certified(best), trace
