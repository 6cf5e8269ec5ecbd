"""Outer solvers: the increasing-penalty driver and an augmented-Lagrangian
baseline, both built on the manifold line-search iteration.

The penalty driver approximately minimizes f + rho_l * penalty over the
manifold for a slowly growing weight sequence rho_l and a tightening
stationarity target tau_l, warm-starting each subproblem, and stops once the
iterate is nonnegative to tolerance, or earlier with a certified feasible
point on the iterate's row support once its violation is small. The report
rounding and the certified exit build their feasible points from a row
assignment with ``stiefel.assigned_point``. Each warm start is the
previous iterate or, when it has the lower penalized value at the grown
weight, its copy with every negative-sum column negated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .penalty import Objective, PenaltyObjective, check_feasible, nonneg_violation, penalty_terms
from .pgm import LineSearchError, PgmConfig, PgmTrace, pgm_solve
from .stiefel import (
    StiefelPoint, assigned_point, check_count, check_matrix, check_real, proj_tangent
)

# outer-loop f-stagnation lag and relative tolerance for the early stop
_STAGNATION_LAG = 9
_STAGNATION_RTOL = 1e-8
# alm_solve's weight growth per outer iteration
_MU_GROWTH = 1.2
# the data-driven initial weight is this fraction of |f(x0)| / violation(x0)
_RHO0_SCALE = 0.1
# penalty_solve tries its certified exit at every outer iteration whose
# violation is at most _EXIT_NINF; the candidate on the iterate's row support
# exits when its stationarity residual is at most _EXIT_TOL
_EXIT_NINF = 1e-1
_EXIT_TOL = 1e-6
# the rectangular candidate takes at most this many masked sphere steps, and
# stops once no entry moves by more than _FINISH_MOVE
_FINISH_STEPS = 20
_FINISH_MOVE = 1e-12


@dataclass
class PenaltyConfig:
    """Settings of both outer solvers, ``penalty_solve`` and ``alm_solve``.

    Both read ``rho0`` (the initial weight), ``epsilon``, ``l_max`` and
    ``pgm``; the schedule fields ``gamma``, ``tau*``, ``sigma_*`` and
    ``rho_max`` apply only to ``penalty_solve``, where ``rho_max`` caps the
    initial weight too, and ``pgm.grad_tol``, which tau_l replaces there,
    only to ``alm_solve``.

    ``gamma > 0`` runs the Moreau-envelope penalty, ``gamma == 0`` the
    quadratic one. Every other default serves both penalties, so the
    ``seppg_zero`` solver of ``bench`` is ``PenaltyConfig(gamma=0.0)``.

    ``rho0=None`` selects the data-driven initial weight
    0.1 * |f(x0)| / violation(x0), falling back to 1 when the start is
    already nonnegative. No field rounds: a solve is rounded onto the
    feasible set only when it is reported, as in ``bench``.
    """

    gamma: float = 0.05
    rho0: float | None = None
    rho_max: float = 1e10
    sigma_rho_small: float = 1.05  # growth factor while rho <= 1
    sigma_rho_large: float = 1.1   # growth factor once rho > 1
    tau0: float = 1.0
    tau_min: float = 1e-5
    sigma_tau: float = 0.95
    epsilon: float = 1e-6
    l_max: int = 2000
    pgm: PgmConfig = field(default_factory=PgmConfig)

    def __post_init__(self):
        check_count(self.l_max, "l_max")
        check_real(self.gamma, "gamma", zero_ok=True)
        if self.rho0 is not None:
            check_real(self.rho0, "rho0")
        # an infinite rho_max means no cap
        if not self.rho_max > 0:
            raise ValueError(f"rho_max must be positive, got {self.rho_max}")
        for name in ("sigma_rho_small", "sigma_rho_large"):
            value = getattr(self, name)
            if not 1 < value < math.inf:
                raise ValueError(f"{name} must be above 1 and finite, got {value}")
        for name in ("tau0", "tau_min", "epsilon"):
            check_real(getattr(self, name), name)
        if not self.tau_min <= self.tau0:
            raise ValueError(f"need tau_min <= tau0, got ({self.tau_min}, {self.tau0})")
        if not 0.0 < self.sigma_tau < 1.0:
            raise ValueError(f"sigma_tau must lie in (0, 1), got {self.sigma_tau}")


@dataclass
class OuterRecord:
    """One outer iteration: weight, inner target, and iterate summary."""

    rho: float
    tau: float
    ninf: float
    f_value: float


@dataclass
class SolveReport:
    """Outcome of an outer solve.

    ``ninf`` is the l1 nonnegativity violation of the final point, and
    ``stationarity`` the projected-gradient norm of the last subproblem
    objective at exit. After a certified exit (``certified_exit``, only from
    ``penalty_solve``) the final point is feasible and ``stationarity`` is
    its ``stationarity_residual`` for f. ``flags`` collects anomalies: the
    inner target of outer step k missed at the iteration cap
    (``inner_tolerance_not_met@outer=k``) or at a stall that can only repeat
    (``inner_stalled@outer=k``), a line-search failure, the outer budget
    exhausted. The paper's acceptance bound needs none, since each
    subproblem's start value bounds every iterate ``pgm_solve`` can return.
    """

    x_final: StiefelPoint
    f_final: float
    ninf: float
    orth_residual: float
    stationarity: float
    outer_iters: int
    inner_iters_total: int
    wall_time: float
    trace: list = field(default_factory=list)
    inner_traces: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    certified_exit: bool = False


def _assignment(x: np.ndarray) -> np.ndarray:
    """Each row's column in the feasible point that ``round_to_feasible``
    builds from the finite n x r matrix x, n >= r: the column of the row's
    largest entry, with every column left without a positive entry repaired
    from a donor row (see there)."""
    n, r = x.shape
    assign = np.argmax(x, axis=1)
    # rows whose kept entry is positive, or that were moved to repair a column
    held = x[np.arange(n), assign] > 0.0
    supported = np.bincount(assign[held], minlength=r)
    for j in np.flatnonzero(supported == 0):
        donors = np.flatnonzero(~held | (supported[assign] >= 2))
        i = int(donors[np.argmax(x[donors, j])])
        if held[i]:
            supported[assign[i]] -= 1
        assign[i], held[i], supported[j] = j, True, 1
    return assign


def round_to_feasible(x) -> StiefelPoint:
    """Round a matrix onto the nonnegative orthogonal set.

    Each row goes to the column of its largest entry (ties go to the
    smallest column index), and a column left without a positive entry is
    repaired by moving in the row with the largest entry for it among the
    donors: rows with no positive entry in their column, and rows whose
    column holds at least two positive entries. A donor always exists, since
    n >= r: with a column empty, either some row has no positive entry in
    its column or some other column holds two. No repair empties another
    column, so a square input rounds to a permutation matrix.

    The point that ``assigned_point`` builds on the assignment has disjoint
    row supports, unit nonnegative columns and orthogonality residual at
    roundoff level, for every finite input.
    """
    x = check_matrix(x, "x")
    return StiefelPoint(assigned_point(x, _assignment(x)))


def _initial_rho(f0: float, x0: StiefelPoint, cfg: PenaltyConfig) -> float:
    if cfg.rho0 is not None:
        return cfg.rho0
    viol = nonneg_violation(x0.mat)
    if viol <= 0:
        return 1.0
    rho = _RHO0_SCALE * abs(f0) / viol
    return rho if rho > 0 else 1.0


def _solve_subproblem(
    obj: PenaltyObjective, x_start: StiefelPoint, cfg: PgmConfig, inner_traces: list, flags: list
) -> tuple[StiefelPoint, bool]:
    """One inner solve of an outer loop to projected-gradient norm
    ``cfg.grad_tol``. Its trace and its flags, which give the outer index as
    ``len(inner_traces)``, the number of earlier solves, are recorded.

    The solve's first trial step is the previous subproblem's
    ``PgmTrace.last_step``, so the step scale learned there carries over;
    until a step has been accepted, pgm_solve starts from 1 / ||grad||.

    Returns (solution, True), whose value under obj is at most x_start's
    (the paper's acceptance bound, kept by ``pgm_solve``), or
    (x_start, False) after a line-search failure, which aborts the outer
    loop; the failed solve's partial trace is kept, and the report evaluates
    x_start again.
    """
    outer = len(inner_traces)
    t_first = inner_traces[-1].last_step if inner_traces else None
    try:
        x, tr = pgm_solve(obj, x_start, cfg, t_first=t_first)
    except LineSearchError as err:
        inner_traces.append(err.trace)
        flags.append(f"line_search_failure@outer={outer}")
        return x_start, False
    inner_traces.append(tr)
    if not tr.converged:
        # before the cap, only a stall that can only repeat ends the solve
        missed = "inner_stalled" if tr.iterations < cfg.max_iters else "inner_tolerance_not_met"
        flags.append(f"{missed}@outer={outer}")
    return x, True


def _report(
    obj: PenaltyObjective,
    x: StiefelPoint,
    start_time: float,
    records: list,
    inner_traces: list,
    flags: list,
    certified: tuple | None = None,
) -> SolveReport:
    """Report of x. Without ``certified``, stationarity is measured on the
    last subproblem objective, whose record is reused when it was taken at
    x; a certified exit passes (f(x), stationarity residual) instead."""
    if certified is None:
        # answered from obj.last, or evaluated and stored there
        _, grad = obj.value_and_gradient(x.mat)
        f_final, stationarity = obj.last[1], float(np.linalg.norm(proj_tangent(x.mat, grad)))
    else:
        f_final, stationarity = certified
    return SolveReport(
        x_final=x,
        f_final=f_final,
        ninf=nonneg_violation(x.mat),
        orth_residual=x.orth_residual,
        stationarity=stationarity,
        outer_iters=len(inner_traces),
        inner_iters_total=sum(tr.iterations for tr in inner_traces),
        wall_time=time.perf_counter() - start_time,
        trace=records,
        inner_traces=inner_traces,
        flags=flags,
        certified_exit=certified is not None,
    )


def _support_candidate(f: Objective, x: np.ndarray, grad: np.ndarray) -> tuple:
    """A feasible point on the row assignment of x with f's value and
    stationarity residual there, (p, f(p), residual); grad is grad f(x).

    The start is ``round_to_feasible(x)``, which for n = r is the candidate,
    a permutation, whose residual is 0.0 by construction and not computed:
    its exact 0/1 entries leave g_ij - 1 * g_ij = 0 in ``_stationarity``.
    For n > r disjoint row supports reduce X^T X = I to unit columns: the
    point comes from projected-gradient steps on that product of spheres,
    each column with its own Barzilai-Borwein step and each step projected
    onto the same assignment. On an objective that is an isotropic quadratic
    in each column there (projection, the ONMF factor), the second step lands
    on the closed-form minimizer, the normalized positive part of C or of
    A Y on the support.
    """
    n, r = x.shape
    assign = _assignment(x)
    p = assigned_point(x, assign)
    val, g = f.value_and_gradient(p)
    if n == r:
        return p, val, 0.0
    prev, prev_g = x, grad
    for _ in range(_FINISH_STEPS):
        dx, dg = p - prev, g - prev_g
        curv = (dx * dg).sum(axis=0)
        # a column without positive curvature along its last move stays put
        t = np.divide((dx * dx).sum(axis=0), curv, out=np.zeros(r), where=curv > 0.0)
        prev, prev_g, p = p, g, assigned_point(p - t * g, assign)
        val, g = f.value_and_gradient(p)
        if np.max(np.abs(p - prev)) <= _FINISH_MOVE:
            break
    return p, val, _stationarity(p, g)


def penalty_solve(
    f: Objective, x0: StiefelPoint, cfg: PenaltyConfig | None = None
) -> SolveReport:
    """Run the increasing-penalty driver on f from an orthonormal start.

    Each outer iteration solves the current penalized subproblem to projected
    gradient norm tau_l (``cfg.pgm`` with tau_l as its ``grad_tol``) from the
    warm start chosen at the end of the previous iteration. The solution's
    penalized value is at most the warm start's, the paper's acceptance
    bound: the start value bounds every iterate ``pgm_solve`` can
    return. The driver stops when the violation drops to epsilon, or to
    5 * epsilon with the objective stagnant over the trailing window of
    outer iterations, or when the outer budget runs out.

    Certified exit: at every outer iteration whose violation is at most 0.1
    and that has not stopped the run, the driver builds a feasible point on
    the row assignment that ``round_to_feasible`` gives the iterate
    (``_support_candidate``), and returns it when its
    ``stationarity_residual`` is at most 1e-6 (0.0 by construction for
    n == r, where the candidate is a permutation); the report then has
    ``certified_exit`` set and that residual as ``stationarity``. After a
    failed check the loop goes on unchanged and tries again after the next
    subproblem.

    The next warm start is the solved iterate, or its copy X D with every
    negative-sum column negated (D = diag(+-1)) when that copy has the lower
    penalized value at the grown weight: a column equal to -e_i has no
    descent direction in any penalized subproblem, and only the flip moves it.

    A line-search failure inside a subproblem aborts the run; the report then
    describes that subproblem's warm start (the previous iterate, or its
    sign-flipped copy), evaluated again, and carries the flag
    ``line_search_failure@outer=k``.

    f and the penalty are evaluated once per point, value and gradient
    together: the parts (f, grad f, p, grad p) of each subproblem's last
    evaluation at its solution, or of a winning sign-flip candidate, give the
    penalized values at both weights, the next subproblem's first evaluation
    and the report, each combined as f + rho * p. The solution's record is
    found by identity: ``pgm_solve`` returns the array it evaluated there,
    which ``StiefelPoint`` adopts. The certified exit evaluates f at its
    candidate points only.
    """
    if cfg is None:
        cfg = PenaltyConfig()
    start_time = time.perf_counter()

    start = PenaltyObjective(f, 0.0, cfg.gamma).parts(x0.mat)
    # rho_max caps the first weight too, so the weights never fall
    rho = min(_initial_rho(start[1], x0, cfg), cfg.rho_max)
    tau = cfg.tau0

    x_start = x0
    records: list[OuterRecord] = []
    inner_traces: list[PgmTrace] = []
    flags: list[str] = []
    certified = None

    # l_max >= 1, so pobj is the last subproblem objective after the loop
    for _ in range(cfg.l_max):
        # x_start's parts give the first evaluation
        pobj = PenaltyObjective(f, rho, cfg.gamma, start)
        pgm_cfg = replace(cfg.pgm, grad_tol=tau)
        x, ok = _solve_subproblem(pobj, x_start, pgm_cfg, inner_traces, flags)
        if not ok:
            break

        start = pobj.parts(x.mat)
        _, f_val, _, pen, _ = start
        ninf = nonneg_violation(x.mat)
        records.append(OuterRecord(rho=rho, tau=tau, ninf=ninf, f_value=f_val))

        if ninf <= cfg.epsilon:
            break
        if ninf <= 5.0 * cfg.epsilon and len(records) > _STAGNATION_LAG:
            f_lag = records[-1 - _STAGNATION_LAG].f_value
            if abs(f_val - f_lag) / (1.0 + abs(f_val)) <= _STAGNATION_RTOL:
                break

        if ninf <= _EXIT_NINF:
            p, f_p, residual = _support_candidate(f, x.mat, start[2])
            if residual <= _EXIT_TOL:
                x, certified = StiefelPoint(p), (f_p, residual)
                break

        sigma = cfg.sigma_rho_small if rho <= 1.0 else cfg.sigma_rho_large
        rho = min(sigma * rho, cfg.rho_max)
        tau = max(cfg.sigma_tau * tau, cfg.tau_min)

        theta_plain = f_val + rho * pen
        x_start = x
        signs = np.where(x.mat.sum(axis=0) < 0.0, -1.0, 1.0)
        # with no column flipped the copy is x itself and cannot win the gate
        if np.any(signs < 0.0):
            x_flip = StiefelPoint(x.mat * signs)
            flip = PenaltyObjective(f, rho, cfg.gamma).parts(x_flip.mat)
            # the same float sums as theta_plain
            theta_flip = flip[1] + rho * flip[3]
            if theta_flip < theta_plain:
                x_start, start = x_flip, flip
    else:
        flags.append("outer_budget_exhausted")

    return _report(pobj, x, start_time, records, inner_traces, flags, certified)


class AugLagObjective(PenaltyObjective):
    """Augmented Lagrangian in the primal matrix for fixed multiplier and weight.

    value(X) = f(X) + mu/2 ||min(0, X - lam/mu)||_F^2 - ||lam||_F^2 / (2 mu)
    gradient(X) = grad f(X) + mu * min(0, X - lam/mu)

    This is the ``PenaltyObjective`` of weight mu/2 with the quadratic
    penalty taken at X - lam/mu, less a constant, and it keeps the same
    record ``last``. A record passed in needs only its x and f parts: its p
    part belongs to the earlier multiplier and weight, so the constructor
    recomputes it once.
    """

    def __init__(self, f: Objective, lam: np.ndarray, mu: float, last: tuple | None = None):
        check_real(mu, "mu")
        self.lam = np.asarray(lam, dtype=float)
        self.mu = float(mu)
        self._shift = self.lam / self.mu
        self._lam_term = float(np.sum(self.lam * self.lam)) / (2.0 * self.mu)
        if last is not None:
            last = (*last[:3], *self._penalty(last[0]))
        super().__init__(f, 0.5 * self.mu, 0.0, last)

    def _penalty(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return penalty_terms(x - self._shift, 0.0)

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        val, grad = super().value_and_gradient(x)
        return val - self._lam_term, grad


def alm_solve(
    f: Objective, x0: StiefelPoint, cfg: PenaltyConfig | None = None
) -> SolveReport:
    """Augmented-Lagrangian baseline for the same constrained problem.

    Alternates an approximate manifold minimization of the augmented
    Lagrangian with the multiplier update max(lam - mu X, 0) and the weight
    update mu <- 1.2 mu, starting from lam = 0 and mu = cfg.rho0 (chosen as
    in ``penalty_solve`` when None). Each subproblem is solved with
    ``cfg.pgm`` as it is, so to the fixed ``cfg.pgm.grad_tol``. Stops once
    the violation reaches ``cfg.epsilon`` or after ``cfg.l_max`` outer
    iterations; the schedule fields of ``cfg`` are not read.

    f is evaluated once per point: each subproblem's first evaluation, the
    outer records and the report reuse the f part of the evaluation at the
    solved iterate.
    """
    if cfg is None:
        cfg = PenaltyConfig()
    start_time = time.perf_counter()

    lam = np.zeros(x0.shape)
    start = (x0.mat, *f.value_and_gradient(x0.mat))
    mu = _initial_rho(start[1], x0, cfg)
    x = x0
    records: list[OuterRecord] = []
    inner_traces: list[PgmTrace] = []
    flags: list[str] = []

    # l_max >= 1, so obj is the last subproblem objective after the loop
    for _ in range(cfg.l_max):
        obj = AugLagObjective(f, lam, mu, start)
        x, ok = _solve_subproblem(obj, x, cfg.pgm, inner_traces, flags)
        if not ok:
            break
        start = obj.parts(x.mat)
        ninf = nonneg_violation(x.mat)
        records.append(
            OuterRecord(rho=mu, tau=cfg.pgm.grad_tol, ninf=ninf, f_value=start[1])
        )
        if ninf <= cfg.epsilon:
            break
        lam = np.maximum(lam - mu * x.mat, 0.0)
        mu *= _MU_GROWTH
    else:
        flags.append("outer_budget_exhausted")

    return _report(obj, x, start_time, records, inner_traces, flags)


# entries of a feasible point below this count as zero
ZERO_TOL = 1e-8
# the active-set least squares takes at most this many steps, each with a
# line search of _BISECTIONS halvings of its bracket
_ACTIVE_SET_STEPS = 100
_BISECTIONS = 60


def stationarity_residual(f: Objective, x: StiefelPoint) -> float:
    """First-order residual of the constrained problem at a near-feasible point.

    Computes min over G in the normal cone of the nonnegative orthant at x of
    ||Proj_tangent(grad f(x) + G)||_F. The normal cone at a nonnegative point
    allows nonpositive entries where x vanishes and zeros elsewhere; entries of
    x below ``ZERO_TOL`` count as zero. At a point whose entries are exact
    zeros outside at most one entry of at least ``ZERO_TOL`` per row (such as
    a permutation matrix or a rounded point), the minimum has a closed form.
    Elsewhere an active-set least squares over the symmetric multiplier of
    the orthogonality constraint computes it (``_active_set``), exactly
    unless a support entry lies within a few times ``ZERO_TOL``.

    Raises:
        ValueError: if the nonnegativity violation of x exceeds 5e-6, or the
            gradient at x is not finite.
    """
    return _residual_and_gradient(f, x, "point x")[0]


def _residual_and_gradient(f: Objective, x: StiefelPoint, name: str) -> tuple[float, np.ndarray]:
    """``stationarity_residual(f, x)`` and the gradient it read, evaluated once."""
    check_feasible(x.mat, name)
    g = check_matrix(f.gradient(x.mat), "gradient")
    return _stationarity(x.mat, g), g


def _stationarity(xm: np.ndarray, g: np.ndarray) -> float:
    """``stationarity_residual`` at the nonnegative point xm with gradient g."""
    zero_mask = xm < ZERO_TOL
    if not np.any(zero_mask):
        return float(np.linalg.norm(proj_tangent(xm, g)))

    support = ~zero_mask
    if np.all(support.sum(axis=1) <= 1) and not np.any(xm[zero_mask]):
        # Disjoint row supports, exact zeros elsewhere: the residual is
        # min ||g + G - X S|| over symmetric S. Entry (i, j) off the support
        # column k of row i is g_ij + G_ij - x_ik S_kj, which S_kj = S_jk
        # negative enough lets G_ij <= 0 cancel. Left are each column's
        # gradient on its support off the column, and the negative gradient
        # entries of rows without support.
        on = np.where(support, g, 0.0)
        on -= xm * ((on * xm).sum(axis=0) / (xm * xm).sum(axis=0))
        off = np.minimum(g[~support.any(axis=1)], 0.0)
        return math.sqrt(float((on * on).sum() + (off * off).sum()))
    return _active_set(xm, g, zero_mask)


def _active_set(xm: np.ndarray, g: np.ndarray, zero_mask: np.ndarray) -> float:
    """The residual min ||Proj_tangent(g + G)|| over G <= 0 on zero_mask and
    G = 0 elsewhere, by least squares over the symmetric multiplier S.

    With the optimal G for a given S, the squared residual is
    h(S) = sum of (g - X S)^2 off the zero set plus sum of min(g - X S, 0)^2
    on it, a convex piecewise quadratic in the r (r + 1) / 2 entries of S.
    From S = sym(X^T g), the projected gradient's multiplier, each step
    solves the least squares whose rows are the entries off the zero set
    and the zero-set entries where g - X S is negative, and moves toward its
    solution to the minimum of h along the segment, found by bisection on
    the slope. It stops when the set of those rows repeats; S then
    minimizes h. A step that cannot lower h is blocked by zero-set entries
    that the move would turn negative at once: they join the rows for one
    more step, and a second such step in a row stops the loop.

    The multipliers grow like 1 / (smallest support entry), so at points
    with a support entry within a few times ``ZERO_TOL`` the least squares
    is ill-conditioned and the result can stay above the minimum.
    """
    r = xm.shape[1]
    iu, ju = np.triu_indices(r)
    units = np.zeros((iu.size, r, r))
    units[np.arange(iu.size), iu, ju] = 1.0
    units[np.arange(iu.size), ju, iu] = 1.0
    # column q holds vec(X E_q) for the q-th symmetric unit matrix E_q
    design = (xm @ units).reshape(iu.size, -1).T
    gv, zero = g.ravel(), zero_mask.ravel()

    def clipped(raw: np.ndarray) -> np.ndarray:
        return np.where(zero, np.minimum(raw, 0.0), raw)

    m = xm.T @ g
    s = 0.5 * (m + m.T)[iu, ju]
    raw = gv - design @ s
    res = clipped(raw)
    h = float(res @ res)
    active = zero & (raw < 0.0)
    stalled = False
    for _ in range(_ACTIVE_SET_STEPS):
        rows = ~zero | active
        step = np.linalg.lstsq(design[rows], raw[rows], rcond=None)[0]
        dv = design @ step
        # h(s + t step) is convex in t with slope -2 <dv, clipped(raw - t dv)>;
        # [lo, hi] brackets its minimum over [0, 1]
        lo = hi = 1.0
        if dv @ clipped(raw - dv) < 0.0:
            lo = 0.0
            for _ in range(_BISECTIONS):
                mid = 0.5 * (lo + hi)
                if dv @ clipped(raw - mid * dv) < 0.0:
                    hi = mid
                else:
                    lo = mid
        blocking = zero & (raw - hi * dv < 0.0)
        s = s + lo * step
        raw = gv - design @ s
        res = clipped(raw)
        h, h_prev = float(res @ res), h
        if h < h_prev:
            now, stalled = zero & (raw < 0.0), False
        elif stalled:
            break
        else:
            now, stalled = active | blocking, True
        if np.array_equal(now, active):
            break
        active = now
    return math.sqrt(h)
