"""Outer solvers: the increasing-penalty driver and an augmented-Lagrangian
baseline, both built on the manifold line-search iteration.

The penalty driver approximately minimizes f + rho_l * penalty over the
manifold for a slowly growing weight sequence rho_l and a tightening
stationarity target tau_l, warm-starting each subproblem, and stops once the
iterate is nonnegative to tolerance. Each warm start is the previous iterate
or, when it has the lower penalized value at the grown weight, its copy with
every negative-sum column negated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .penalty import Objective, PenaltyObjective, nonneg_violation, penalty_terms
from .pgm import LineSearchError, PgmConfig, PgmTrace, check_integer_fields, pgm_solve
from .stiefel import StiefelPoint, check_matrix, proj_tangent

# outer-loop f-stagnation lag and relative tolerance for the early stop
_STAGNATION_LAG = 9
_STAGNATION_RTOL = 1e-8
# columns whose norm falls outside this range are rescaled before normalizing
_NORM_RANGE = (1e-150, 1e150)
# alm_solve's weight growth per outer iteration
_MU_GROWTH = 1.2
# the data-driven initial weight is this fraction of |f(x0)| / violation(x0)
_RHO0_SCALE = 0.1


@dataclass
class PenaltyConfig:
    """Settings of both outer solvers, ``penalty_solve`` and ``alm_solve``.

    Both read ``rho0`` (the initial weight), ``epsilon``, ``l_max`` and
    ``pgm``; the schedule fields ``gamma``, ``tau*``, ``sigma_*`` and
    ``rho_max`` apply only to ``penalty_solve``.

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
        check_integer_fields(self, "l_max")
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.rho0 is not None and not self.rho0 > 0:
            raise ValueError(f"rho0 must be positive, got {self.rho0}")
        if not self.rho_max > 0:
            raise ValueError(f"rho_max must be positive, got {self.rho_max}")
        if not (self.sigma_rho_small > 1 and self.sigma_rho_large > 1):
            raise ValueError("sigma_rho_small and sigma_rho_large must exceed 1")
        if not (self.tau0 > 0 and self.tau_min > 0):
            raise ValueError("tau0 and tau_min must be positive")
        if not 0.0 < self.sigma_tau < 1.0:
            raise ValueError(f"sigma_tau must lie in (0, 1), got {self.sigma_tau}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.l_max < 1:
            raise ValueError(f"l_max must be at least 1, got {self.l_max}")


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

    ``ninf`` is the l1 nonnegativity violation of the final point,
    ``stationarity`` the projected-gradient norm of the last subproblem
    objective at exit. ``flags`` collects anomalies (inner target missed,
    acceptance bound violated, line-search failure, budget exhausted).
    """

    solver: str
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


def _round_permutation(x: np.ndarray) -> np.ndarray:
    """Greedy crossing-out: repeatedly fix the globally largest entry."""
    n = x.shape[0]
    work = np.array(x, dtype=float)
    out = np.zeros_like(work)
    for _ in range(n):
        i, j = np.unravel_index(int(np.argmax(work)), work.shape)
        out[i, j] = 1.0
        work[i, :] = -np.inf
        work[:, j] = -np.inf
    return out


def round_to_feasible(x) -> StiefelPoint:
    """Round a matrix onto the nonnegative orthogonal set.

    For n > r each row keeps at most its largest entry (ties go to the
    smallest column index), kept entries are clamped at zero from below, and
    columns are normalized. A column left without positive mass is repaired
    by moving in the row with the largest entry for it among the donors: rows
    with no positive kept entry, and rows whose column keeps at least two
    positive entries. A donor always exists when n > r, and no repair empties
    another column. Square inputs are rounded to a permutation matrix by
    greedily fixing the globally largest entry.

    The result has disjoint row supports across columns, unit nonnegative
    columns, and orthogonality residual at roundoff level, for every finite
    input.
    """
    x = check_matrix(x, "x")
    n, r = x.shape
    if n == r:
        return StiefelPoint(_round_permutation(x))

    rows = np.arange(n)
    assign = np.argmax(x, axis=1)
    vals = np.maximum(x[rows, assign], 0.0)

    supported = np.bincount(assign[vals > 0], minlength=r)
    for j in np.flatnonzero(supported == 0):
        donors = np.flatnonzero((vals == 0.0) | (supported[assign] >= 2))
        i = int(donors[np.argmax(x[donors, j])])
        if vals[i] > 0.0:
            supported[assign[i]] -= 1
        assign[i] = j
        # a nonpositive entry becomes the column's sole support and normalizes to 1
        vals[i] = x[i, j] if x[i, j] > 0.0 else 1.0
        supported[j] = 1

    out = np.zeros_like(x)
    out[rows, assign] = vals
    # squares of tiny or huge entries under- or overflow: rescale those columns first
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(out, axis=0)
    extreme = ~((norms >= _NORM_RANGE[0]) & (norms <= _NORM_RANGE[1]))
    if np.any(extreme):
        out[:, extreme] /= out[:, extreme].max(axis=0)
        norms[extreme] = np.linalg.norm(out[:, extreme], axis=0)
    return StiefelPoint(out / norms)


def _initial_rho(f0: float, x0: StiefelPoint, cfg: PenaltyConfig) -> float:
    if cfg.rho0 is not None:
        return cfg.rho0
    viol = nonneg_violation(x0.mat)
    if viol <= 0:
        return 1.0
    rho = _RHO0_SCALE * abs(f0) / viol
    return rho if rho > 0 else 1.0


def _last_accepted_step(inner_traces: list) -> float | None:
    """Step size of the latest accepted inner step over the traces, or None.

    Subproblems that took no step are skipped. A stalled step is never
    returned: it records a zero direction, and its step size is only where
    backtracking ended.
    """
    for tr in reversed(inner_traces):
        for t, v_norm in zip(reversed(tr.step_sizes), reversed(tr.v_norms)):
            if v_norm > 0.0:
                return t
    return None


def _solve_subproblem(
    obj: Objective,
    x_start: StiefelPoint,
    cfg: PgmConfig,
    outer: int,
    inner_traces: list,
    flags: list,
) -> tuple[StiefelPoint, bool]:
    """One inner solve of an outer loop, with its trace and flags recorded.

    The solve's first trial step is the last step accepted by an earlier
    subproblem of the run in ``inner_traces`` (see ``_last_accepted_step``),
    so the step scale learned there carries over; until a step has been
    accepted, pgm_solve starts from 1 / ||grad||.

    Returns (solution, True), or (x_start, False) after a line-search failure,
    which aborts the outer loop; the failed solve's partial trace is kept.
    """
    try:
        x, tr = pgm_solve(obj, x_start, cfg, t_first=_last_accepted_step(inner_traces))
    except LineSearchError as err:
        inner_traces.append(err.trace)
        flags.extend([f"line_search_failure@outer={outer}", "aborted_with_partial_report"])
        return x_start, False
    inner_traces.append(tr)
    if not tr.converged:
        flags.append(f"inner_tolerance_not_met@outer={outer}")
    return x, True


def _report(
    solver: str,
    f: Objective,
    obj: Objective,
    x: StiefelPoint,
    start_time: float,
    records: list,
    inner_traces: list,
    flags: list,
) -> SolveReport:
    """Report of x; stationarity is measured on the last subproblem objective."""
    return SolveReport(
        solver=solver,
        x_final=x,
        f_final=f.value(x.mat),
        ninf=nonneg_violation(x.mat),
        orth_residual=x.orth_residual,
        stationarity=float(np.linalg.norm(proj_tangent(x.mat, obj.gradient(x.mat)))),
        outer_iters=len(inner_traces),
        inner_iters_total=sum(tr.iterations for tr in inner_traces),
        wall_time=time.perf_counter() - start_time,
        trace=records,
        inner_traces=inner_traces,
        flags=flags,
    )


def penalty_solve(
    f: Objective, x0: StiefelPoint, cfg: PenaltyConfig | None = None
) -> SolveReport:
    """Run the increasing-penalty driver on f from an orthonormal start.

    Each outer iteration solves the current penalized subproblem to projected
    gradient norm tau_l, starting from the warm start chosen at the end of the
    previous iteration. The driver stops when the violation drops to epsilon,
    or to 5 * epsilon with the objective stagnant over the trailing window of
    outer iterations, or when the outer budget runs out.

    The next warm start is the solved iterate, or its copy X D with every
    negative-sum column negated (D = diag(+-1)) when that copy has the lower
    penalized value at the grown weight: a column equal to -e_i has no
    descent direction in any penalized subproblem, and only the flip moves it.

    A line-search failure inside a subproblem aborts the run; the report then
    describes that subproblem's warm start (the previous iterate, or its
    sign-flipped copy) and carries flags.

    Each outer iteration evaluates f and the penalty term once at the solved
    iterate and builds both penalized values (for the weight just solved and
    the grown one) from those two terms.
    """
    if cfg is None:
        cfg = PenaltyConfig()
    start_time = time.perf_counter()

    f0 = f.value(x0.mat)
    rho = _initial_rho(f0, x0, cfg)
    tau = cfg.tau0
    upsilon = f0 + rho * penalty_terms(x0.mat, cfg.gamma)[0]

    solver = "penalty_envelope" if cfg.gamma > 0 else "penalty_quadratic"
    x_start = x0
    records: list[OuterRecord] = []
    inner_traces: list[PgmTrace] = []
    flags: list[str] = []

    # l_max >= 1, so pobj is the last subproblem objective after the loop
    for l in range(cfg.l_max):
        pobj = PenaltyObjective(f, rho, cfg.gamma)
        x, ok = _solve_subproblem(
            pobj, x_start, replace(cfg.pgm, grad_tol=tau), l, inner_traces, flags
        )
        if not ok:
            break

        # the same float sums as pobj.value(x.mat)
        f_val = f.value(x.mat)
        pen = penalty_terms(x.mat, cfg.gamma)[0]
        theta_x = f_val + rho * pen
        if theta_x > upsilon + 1e-12 * (1.0 + abs(upsilon)):
            flags.append(f"acceptance_bound_violated@outer={l}")

        ninf = nonneg_violation(x.mat)
        records.append(OuterRecord(rho=rho, tau=tau, ninf=ninf, f_value=f_val))

        if ninf <= cfg.epsilon:
            break
        if ninf <= 5.0 * cfg.epsilon and len(records) > _STAGNATION_LAG:
            f_lag = records[-1 - _STAGNATION_LAG].f_value
            if abs(f_val - f_lag) / (1.0 + abs(f_val)) <= _STAGNATION_RTOL:
                break

        sigma = cfg.sigma_rho_small if rho <= 1.0 else cfg.sigma_rho_large
        rho = min(sigma * rho, cfg.rho_max)
        tau = max(cfg.sigma_tau * tau, cfg.tau_min)

        theta_plain = f_val + rho * pen
        x_start, upsilon = x, theta_plain
        signs = np.where(x.mat.sum(axis=0) < 0.0, -1.0, 1.0)
        # with no column flipped the copy is x itself and cannot win the gate
        if np.any(signs < 0.0):
            x_flip = StiefelPoint(x.mat * signs)
            # the same float sums as theta_plain
            theta_flip = f.value(x_flip.mat) + rho * penalty_terms(x_flip.mat, cfg.gamma)[0]
            if theta_flip < theta_plain:
                x_start, upsilon = x_flip, theta_flip
    else:
        flags.append("outer_budget_exhausted")

    return _report(solver, f, pobj, x, start_time, records, inner_traces, flags)


class AugLagObjective(Objective):
    """Augmented Lagrangian in the primal matrix for fixed multiplier and weight.

    value(X) = f(X) + mu/2 ||min(0, X - lam/mu)||_F^2 - ||lam||_F^2 / (2 mu)
    gradient(X) = grad f(X) + mu * min(0, X - lam/mu)

    The middle term is the quadratic penalty at X - lam/mu scaled by mu/2.
    """

    def __init__(self, f: Objective, lam: np.ndarray, mu: float):
        if not mu > 0:
            raise ValueError(f"mu must be positive, got {mu}")
        self.f = f
        self.lam = np.asarray(lam, dtype=float)
        self.mu = float(mu)
        self._shift = self.lam / self.mu
        self._lam_term = float(np.sum(self.lam * self.lam)) / (2.0 * self.mu)
        self._half_mu = 0.5 * self.mu

    def value(self, x: np.ndarray) -> float:
        pv = penalty_terms(x - self._shift, 0.0)[0]
        return self.f.value(x) + self._half_mu * pv - self._lam_term

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.f.gradient(x) + self._half_mu * penalty_terms(x - self._shift, 0.0)[1]

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        fv, fg = self.f.value_and_gradient(x)
        pv, pg = penalty_terms(x - self._shift, 0.0)
        return fv + self._half_mu * pv - self._lam_term, fg + self._half_mu * pg


def alm_solve(
    f: Objective, x0: StiefelPoint, cfg: PenaltyConfig | None = None
) -> SolveReport:
    """Augmented-Lagrangian baseline for the same constrained problem.

    Alternates an approximate manifold minimization of the augmented
    Lagrangian with the multiplier update max(lam - mu X, 0) and the weight
    update mu <- 1.2 mu, starting from lam = 0 and mu = cfg.rho0 (chosen as
    in ``penalty_solve`` when None). Each subproblem is solved to the fixed
    ``cfg.pgm.grad_tol``. Stops once the violation reaches ``cfg.epsilon`` or
    after ``cfg.l_max`` outer iterations; the schedule fields of ``cfg`` are
    not read.
    """
    if cfg is None:
        cfg = PenaltyConfig()
    start_time = time.perf_counter()

    lam = np.zeros(x0.shape)
    mu = cfg.rho0 if cfg.rho0 is not None else _initial_rho(f.value(x0.mat), x0, cfg)
    x = x0
    records: list[OuterRecord] = []
    inner_traces: list[PgmTrace] = []
    flags: list[str] = []

    # l_max >= 1, so obj is the last subproblem objective after the loop
    for k in range(cfg.l_max):
        obj = AugLagObjective(f, lam, mu)
        x, ok = _solve_subproblem(obj, x, cfg.pgm, k, inner_traces, flags)
        if not ok:
            break
        ninf = nonneg_violation(x.mat)
        records.append(
            OuterRecord(rho=mu, tau=cfg.pgm.grad_tol, ninf=ninf, f_value=f.value(x.mat))
        )
        if ninf <= cfg.epsilon:
            break
        lam = np.maximum(lam - mu * x.mat, 0.0)
        mu *= _MU_GROWTH
    else:
        flags.append("outer_budget_exhausted")

    return _report("alm", f, obj, x, start_time, records, inner_traces, flags)


# entries of a feasible point below this count as zero
ZERO_TOL = 1e-8
# largest nonnegativity violation stationarity_residual accepts
_FEAS_TOL = 5e-6


def stationarity_residual(f: Objective, x: StiefelPoint) -> float:
    """First-order residual of the constrained problem at a near-feasible point.

    Computes min over G in the normal cone of the nonnegative orthant at x of
    ||Proj_tangent(grad f(x) + G)||_F. The normal cone at a nonnegative point
    allows nonpositive entries where x vanishes and zeros elsewhere; entries of
    x below ``ZERO_TOL`` count as zero. The minimization is a small convex
    least-squares over the constrained entries of G, solved by projected
    gradient with the exact step 1/L in at most 5000 steps.

    Raises:
        ValueError: if the nonnegativity violation of x exceeds 5e-6, or the
            gradient at x is not finite.
    """
    if nonneg_violation(x.mat) > _FEAS_TOL:
        raise ValueError(
            f"point is not feasible to tolerance {_FEAS_TOL}: "
            f"violation {nonneg_violation(x.mat):.3e}"
        )
    xm = x.mat
    g = check_matrix(f.gradient(xm), "gradient")
    zero_mask = xm < ZERO_TOL

    def tangent(w: np.ndarray) -> np.ndarray:
        return proj_tangent(xm, w)

    if not np.any(zero_mask):
        return float(np.linalg.norm(tangent(g)))

    G = np.zeros_like(xm)
    h_prev = np.inf
    for _ in range(5000):
        resid = tangent(g + G)
        # objective h(G) = ||resid||^2, gradient 2*resid on the free entries,
        # Lipschitz constant 2 -> exact projected-gradient step of length 1/2
        G_new = np.where(zero_mask, np.minimum(0.0, G - resid), 0.0)
        h = float(np.sum(resid * resid))
        if np.max(np.abs(G_new - G)) <= 1e-14 * (1.0 + np.max(np.abs(G))):
            G = G_new
            break
        if abs(h_prev - h) <= 1e-18 * (1.0 + h):
            G = G_new
            break
        G, h_prev = G_new, h
    return float(np.linalg.norm(tangent(g + G)))
