"""Nonmonotone line-search proximal gradient iteration on the Stiefel manifold.

``pgm_solve`` retracts Barzilai-Borwein steps along the negative projected
gradient by QR and backtracks against the maximum value over a sliding
window; with window memory zero it is strictly monotone. Iterates are raw
arrays; only the returned point is certified as a ``StiefelPoint``. The
line search's constants ``_ETA``, ``_ALPHA``, ``_T_MIN``, ``_T_MAX`` and
``_MAX_BACKTRACKS`` are fixed, not settings.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .penalty import Objective
from .stiefel import (
    RetractionError, StiefelPoint, check_count, check_matrix, check_real, frobenius_norm,
    proj_tangent, qr_orthonormalize,
)

# backtracking shrink factor, sufficient-decrease weight, clamp range of each
# step's first trial step, and shrink budget per step
_ETA = 0.1
_ALPHA = 1e-4
_T_MIN, _T_MAX = 1e-12, 1e12
_MAX_BACKTRACKS = 50
_BB_DEGENERACY = 1e-16
_EPS = float(np.finfo(float).eps)


class LineSearchError(RuntimeError):
    """Backtracking exhausted its budget without an acceptable step.

    For a smooth objective the acceptance test passes, or the step stalls,
    once the step is small enough, so hitting the budget usually means the
    objective jumps or its gradient is beyond the range of floating point.
    When raised from ``pgm_solve`` the partial trace is attached as ``trace``.
    """

    def __init__(self, msg: str, trace: "PgmTrace | None" = None):
        super().__init__(msg)
        self.trace = trace


@dataclass
class PgmConfig:
    """Settings of the line-search iteration; its constants ``_ETA``,
    ``_ALPHA``, ``_T_MIN``, ``_T_MAX`` and ``_MAX_BACKTRACKS`` are fixed.

    Attributes:
        memory: the acceptance window covers the last memory + 1 values;
            0 gives a monotone method.
        grad_tol: stop once the projected-gradient norm falls below this;
            ``penalty_solve`` passes copies holding tau_l here instead.
        max_iters: iteration cap per solve.
    """

    memory: int = 5
    grad_tol: float = 1e-6
    max_iters: int = 5000

    def __post_init__(self):
        check_count(self.memory, "memory", minimum=0)
        check_count(self.max_iters, "max_iters")
        check_real(self.grad_tol, "grad_tol")


@dataclass
class PgmTrace:
    """Per-iteration record of a solve.

    ``values`` and ``grad_norms`` cover every iterate including the start,
    and no entry of ``values`` exceeds ``values[0]`` (see ``pgm_solve``);
    the remaining lists have one entry per step, with ``v_norms`` 0.0 for a
    stalled step (once for a stall that can only repeat, see ``pgm_solve``).
    ``evaluations`` counts the objective evaluations (``value_and_gradient``
    calls) of the solve: one at the start and one per trial point. The start
    is counted even when the objective answers it from a record handed in by
    an outer driver (see ``PenaltyObjective.last``).

    ``last_step`` is the step to carry into a later solve: the step size of
    the last accepted (not stalled) step, or the solve's ``t_first`` when no
    step was accepted.
    """

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


def _bb_stepsize(dx: np.ndarray, dy: np.ndarray, fallback: float) -> float:
    """Barzilai-Borwein step from iterate and gradient differences of one shape.

    Returns min(||dx||^2/|<dx,dy>|, |<dx,dy>|/||dy||^2) clamped to
    [_T_MIN, _T_MAX]. When the curvature inner product is negligible relative
    to the norms, or either difference vanishes, the (clamped) fallback is
    returned instead.
    """
    nx2 = float((dx * dx).sum())
    ny2 = float((dy * dy).sum())
    ip = abs(float((dx * dy).sum()))
    if nx2 == 0.0 or ny2 == 0.0 or ip <= _BB_DEGENERACY * np.sqrt(nx2 * ny2):
        t = fallback
    else:
        t = min(nx2 / ip, ip / ny2)
    return float(min(max(t, _T_MIN), _T_MAX))


def _projected_gradient(xm: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
    """Tangent projection of grad at xm and its norm; a non-finite gradient
    raises ValueError (its norm is then non-finite, so finite runs skip the scan)."""
    rgrad = proj_tangent(xm, grad)
    gnorm = frobenius_norm(rgrad)
    if not math.isfinite(gnorm):
        check_matrix(grad, "gradient")
    return rgrad, gnorm


def pgm_solve(
    obj: Objective, x0: StiefelPoint, cfg: PgmConfig, t_first: float | None = None
) -> tuple[StiefelPoint, PgmTrace]:
    """Run the iteration from x0 until stationarity or the iteration cap.

    The loop stops at the first iterate whose projected-gradient norm is at
    most ``cfg.grad_tol``, after ``max_iters`` steps, or at a stall that can
    only repeat (below). It returns the last iterate when that norm meets
    ``cfg.grad_tol`` (``trace.converged`` is then True, also at the cap), and
    otherwise the lowest-value iterate of the trailing window. The start
    value bounds every iterate (the paper's acceptance bound for a warm
    start): the window admits only values below its maximum, and a stalled
    step keeps the iterate.

    The first trial step is ``t_first`` when given and 1 / ||grad|| otherwise,
    later ones the Barzilai-Borwein estimate with the previous step as
    fallback, each clamped to [_T_MIN, _T_MAX]. Backtracking and its acceptance
    test are the same for every step, so any positive ``t_first`` is
    admissible, such as a previous solve's ``trace.last_step``.

    Each step sets V = -t * g for the projected gradient g at the iterate X,
    retracts X + V by QR, and multiplies t by _ETA until

        value(X+) <= window_max - _ALPHA / (2 t) * ||V||^2

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
    the budget of _MAX_BACKTRACKS shrinks is exhausted. A trial whose X + V
    is numerically rank deficient is rejected unevaluated, and t shrinks as
    after a failed test: X^T (X + V) is the identity plus a skew matrix for
    tangent V, so only a step too long for floating point gets there. A
    stall at the window maximum whose next step starts from the same trial
    step (a first-trial stall, or one from the _T_MIN clamp) repeats bit for
    bit, and the cap returns its iterate once the repeats fill the window;
    with at least memory steps left the loop stops there.

    Every point, x0 and each retracted trial, is evaluated once; an accepted
    trial's gradient is reused for the next step. The returned point is x0
    itself when the returned iterate is the start, and otherwise the solver's
    own read-only array, so an evaluation record the objective keeps of it
    (see ``PenaltyObjective.last``) is found by identity.
    Raises ValueError when a gradient at an iterate, or a trial point, is not
    finite, or when ``t_first`` is not positive and finite.
    """
    if t_first is not None:
        check_real(t_first, "t_first")
    trace = PgmTrace(last_step=t_first)

    xm = x0.mat
    trace.evaluations += 1
    val, grad = obj.value_and_gradient(xm)
    val = float(val)
    rgrad, gnorm = _projected_gradient(xm, grad)
    trace.values.append(val)
    trace.grad_norms.append(gnorm)

    window: deque = deque([(val, xm)], maxlen=cfg.memory + 1)
    # with no history the Barzilai-Borwein estimate is its clamped fallback,
    # the first trial step; 1 / ||grad|| is used only when ||grad|| > grad_tol
    t = 1.0 / max(gnorm, cfg.grad_tol) if t_first is None else t_first
    prev = (xm, rgrad)

    for k in range(cfg.max_iters):
        if gnorm <= cfg.grad_tol:
            break
        t = t_start = _bb_stepsize(xm - prev[0], rgrad - prev[1], t)
        window_max = max(v for v, _ in window)
        for bt in range(_MAX_BACKTRACKS + 1):
            v = -t * rgrad
            try:
                cand = qr_orthonormalize(xm + v)
            except RetractionError:
                t *= _ETA
                continue
            # a finite orthonormal factor has entries in [-1, 1], so its sum is
            # finite exactly when every entry is; the full check names the fault
            if not math.isfinite(cand.sum()):
                check_matrix(cand, "retracted trial point")
            trace.evaluations += 1
            cand_val, cand_grad = obj.value_and_gradient(cand)
            cand_val = float(cand_val)
            demand = (_ALPHA / (2.0 * t)) * float((v * v).sum())
            if cand_val <= window_max - demand:
                v_norm = frobenius_norm(v)
                break
            roundoff = frobenius_norm(xm) * frobenius_norm(grad)
            resolution = _EPS * (1.0 + abs(window_max) + roundoff)
            if demand <= resolution and cand_val <= window_max + 4.0 * resolution:
                cand, v_norm = None, 0.0
                break
            t *= _ETA
        else:
            raise LineSearchError(
                f"no acceptable step after {_MAX_BACKTRACKS} backtracks (last t={t:.3e})",
                trace,
            )
        prev = (xm, rgrad)
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
        repeats = cand is None and window_max == val and max(t, _T_MIN) == t_start
        if repeats and cfg.max_iters - k > cfg.memory:
            window.extend([(val, xm)] * cfg.memory)
            break

    trace.converged = gnorm <= cfg.grad_tol
    if not trace.converged:
        _, xm = min(window, key=lambda pair: pair[0])
    if xm is x0.mat:
        return x0, trace
    xm.flags.writeable = False
    return StiefelPoint(xm), trace
