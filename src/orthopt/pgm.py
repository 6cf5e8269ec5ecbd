"""Nonmonotone line-search proximal gradient iteration on the Stiefel manifold.

Each step retracts a multiple of the negative projected gradient back onto the
manifold. The trial step size starts from a Barzilai-Borwein estimate (the
first from a caller-supplied step or 1 / ||grad||) and is shrunk
geometrically until the new value drops below the maximum objective
over a sliding window of past iterates minus a sufficient-decrease margin.
With window memory zero the method is strictly monotone. The loop works on
raw arrays, evaluates each trial point once, and certifies only the returned
point as a ``StiefelPoint``.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .penalty import Objective
from .stiefel import (
    StiefelPoint,
    check_matrix,
    frobenius_norm,
    proj_tangent,
    qr_orthonormalize,
)

_BB_DEGENERACY = 1e-16
_EPS = float(np.finfo(float).eps)


def check_integer_fields(cfg, *names: str) -> None:
    """Raise ValueError unless each named field of cfg is an integer; bools
    and integral floats such as 1e3 are rejected too."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


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
        check_integer_fields(self, "memory", "max_iters", "max_backtracks")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.memory < 0:
            raise ValueError(f"memory must be nonnegative, got {self.memory}")
        if not 0.0 < self.t_min <= self.t_max:
            raise ValueError(f"need 0 < t_min <= t_max, got ({self.t_min}, {self.t_max})")
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iters < 1 or self.max_backtracks < 1:
            raise ValueError("max_iters and max_backtracks must be at least 1")


@dataclass
class PgmTrace:
    """Per-iteration record of a solve.

    ``values`` and ``grad_norms`` cover every iterate including the start;
    the remaining lists have one entry per accepted step. ``evaluations``
    counts the objective evaluations (``value_and_gradient`` calls) of the
    solve: one at the start and one per trial point. The start is counted
    even when the objective answers it from a record handed in by an outer
    driver (see ``PenaltyObjective.last``).
    """

    memory: int
    grad_tol: float = float("nan")
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

    def window_max_values(self) -> list:
        """Running maximum of the trailing memory + 1 objective values.

        This sequence is nonincreasing for any run produced by the iteration.
        """
        out = []
        for k in range(len(self.values)):
            lo = max(0, k - self.memory)
            out.append(max(self.values[lo : k + 1]))
        return out


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


class _Trial(NamedTuple):
    """Outcome of the array-level line search; ``mat`` is None on a stall."""

    mat: np.ndarray | None
    step: float
    direction: np.ndarray
    value: float
    grad: np.ndarray | None
    backtracks: int


def _projected_gradient(xm: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
    """Tangent projection of grad at xm and its norm; a non-finite gradient
    raises ValueError (its norm is then non-finite, so finite runs skip the scan)."""
    rgrad = proj_tangent(xm, grad)
    gnorm = frobenius_norm(rgrad)
    if not math.isfinite(gnorm):
        check_matrix(grad, "gradient")
    return rgrad, gnorm


def _line_search(
    xm: np.ndarray,
    g: np.ndarray,
    egrad: np.ndarray,
    evaluate: Callable[[np.ndarray], tuple],
    t_init: float,
    window_max: float,
    cfg: PgmConfig,
) -> _Trial:
    """One retraction step with nonmonotone backtracking, on raw arrays.

    Sets V = -t * g for the projected gradient g at xm and retracts by QR,
    multiplying t by eta until

        value(X+) <= window_max - alpha / (2 t) * ||V||^2

    ``evaluate`` returns (value, gradient) at a trial matrix and is called
    once per trial; the accepted trial's gradient is handed back for reuse.

    When the demanded decrease falls below the resolution of the test and
    the trial value sits within a few resolutions of the window maximum, no
    representable progress exists at this scale: the search stalls (``mat``
    is None, the direction zero) instead of failing, so outer loops can
    recover (for example by growing the penalty weight). The resolution is
    eps * (1 + |window_max| + ||X||_F ||grad f(X)||_F): the float spacing
    of the window maximum plus the value change that the retraction's
    roundoff alone causes, with ``egrad`` the Euclidean gradient at xm. A
    genuine persistent increase at representable scales raises
    LineSearchError once the backtrack budget is exhausted, and a
    non-finite trial point raises ValueError.
    """
    t = float(t_init)
    for bt in range(cfg.max_backtracks + 1):
        v = -t * g
        cand = qr_orthonormalize(xm + v)
        # a finite orthonormal factor has entries in [-1, 1], so its sum is
        # finite exactly when every entry is; the full check names the fault
        if not math.isfinite(cand.sum()):
            check_matrix(cand, "retracted trial point")
        val, grad = evaluate(cand)
        val = float(val)
        demand = (cfg.alpha / (2.0 * t)) * float((v * v).sum())
        if val <= window_max - demand:
            return _Trial(cand, t, v, val, grad, bt)
        roundoff = frobenius_norm(xm) * frobenius_norm(egrad)
        resolution = _EPS * (1.0 + abs(window_max) + roundoff)
        if demand <= resolution and val <= window_max + 4.0 * resolution:
            return _Trial(None, t, np.zeros_like(g), val, None, bt)
        t *= cfg.eta
    raise LineSearchError(
        f"no acceptable step after {cfg.max_backtracks} backtracks (last t={t:.3e})"
    )


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
    The outer drivers (``penalty_solve`` and ``alm_solve``) pass the last step
    accepted by an earlier subproblem of the run, and ``penalty_solve`` its
    stationarity target tau_l as ``grad_tol``.

    Iterates are kept as raw arrays and every trial point is evaluated once
    through ``obj.value_and_gradient``; the returned point is certified as a
    ``StiefelPoint`` on exit, and is x0 itself when no step was taken.
    Raises ValueError when a gradient at an iterate, or a trial point, is not
    finite, or when ``t_first`` or ``grad_tol`` is not positive.
    """
    if t_first is not None and not t_first > 0:
        raise ValueError(f"t_first must be positive, got {t_first}")
    if grad_tol is None:
        grad_tol = cfg.grad_tol
    elif not grad_tol > 0:
        raise ValueError(f"grad_tol must be positive, got {grad_tol}")
    trace = PgmTrace(memory=cfg.memory, grad_tol=grad_tol)

    def evaluate(mat: np.ndarray) -> tuple:
        trace.evaluations += 1
        return obj.value_and_gradient(mat)

    def certified(mat: np.ndarray) -> StiefelPoint:
        return x0 if mat is x0.mat else StiefelPoint(mat)

    xm = x0.mat
    val, grad = evaluate(xm)
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
            t_init = float(min(max(t0, cfg.t_min), cfg.t_max))
        else:
            t_init = _bb_stepsize(
                xm - prev_mat, rgrad - prev_rgrad, cfg.t_min, cfg.t_max, prev_t
            )
        window_max = max(v for v, _ in window)
        try:
            trial = _line_search(xm, rgrad, grad, evaluate, t_init, window_max, cfg)
        except LineSearchError as err:
            err.trace = trace
            raise
        prev_mat, prev_rgrad, prev_t = xm, rgrad, trial.step
        # a stalled step leaves the iterate, its value and its gradient unchanged
        if trial.mat is not None:
            xm, val, grad = trial.mat, trial.value, trial.grad
            rgrad, gnorm = _projected_gradient(xm, grad)
        trace.values.append(val)
        trace.grad_norms.append(gnorm)
        trace.step_sizes.append(trial.step)
        trace.v_norms.append(frobenius_norm(trial.direction))
        trace.backtracks.append(trial.backtracks)
        window.append((val, xm))

    if gnorm <= grad_tol:
        trace.converged = True
        return certified(xm), trace
    _, best = min(window, key=lambda pair: pair[0])
    return certified(best), trace
