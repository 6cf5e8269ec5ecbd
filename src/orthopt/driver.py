"""Outer solvers: the increasing-penalty driver and an augmented-Lagrangian
baseline, both built on the manifold line-search iteration.

The penalty driver approximately minimizes f + rho_l * penalty over the
manifold for a slowly growing weight sequence rho_l and a tightening
stationarity target tau_l, warm-starting each subproblem, and stops once the
iterate is nonnegative to tolerance. Once rho is large, a rounded feasible
candidate is offered as warm start whenever it has the lower penalized value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .penalty import Objective, PenaltyObjective, nonneg_violation, penalty_value
from .pgm import LineSearchError, PgmConfig, PgmTrace, check_integer_fields, pgm_solve
from .stiefel import StiefelPoint, check_matrix, proj_tangent

# outer-loop f-stagnation lag and relative tolerance for the early stop
_STAGNATION_LAG = 9
_STAGNATION_RTOL = 1e-8
# columns whose norm falls outside this range are rescaled before normalizing
_NORM_RANGE = (1e-150, 1e150)


@dataclass
class PenaltyConfig:
    """Tunables for the penalty driver.

    ``gamma > 0`` runs the Moreau-envelope penalty, ``gamma == 0`` the
    quadratic one; the two presets below fix the conventional pairings of
    gamma and initial stationarity target.

    ``rho0=None`` selects the data-driven initial weight
    rho0_scale * |f(x0)| / violation(x0), falling back to 1 when the start is
    already nonnegative.
    """

    gamma: float = 0.05
    rho0: float | None = None
    rho0_scale: float = 0.1
    rho_max: float = 1e10
    sigma_rho_small: float = 1.05  # growth factor while rho <= 1
    sigma_rho_large: float = 1.1   # growth factor once rho > 1
    tau0: float = 1.0
    tau_min: float = 1e-5
    sigma_tau: float = 0.95
    epsilon: float = 1e-6
    l_max: int = 2000
    rho_feas_threshold: float = 1e3  # rounded warm starts only once rho reaches this
    pgm: PgmConfig = field(default_factory=PgmConfig)

    def __post_init__(self):
        check_integer_fields(self, "l_max")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.rho0 is not None and self.rho0 <= 0:
            raise ValueError(f"rho0 must be positive, got {self.rho0}")
        if self.rho0_scale <= 0 or self.rho_max <= 0:
            raise ValueError("rho0_scale and rho_max must be positive")
        if self.sigma_rho_small <= 1 or self.sigma_rho_large <= 1:
            raise ValueError("penalty growth factors must exceed 1")
        if self.tau0 <= 0 or self.tau_min <= 0:
            raise ValueError("tau0 and tau_min must be positive")
        if not 0.0 < self.sigma_tau < 1.0:
            raise ValueError(f"sigma_tau must lie in (0, 1), got {self.sigma_tau}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.l_max < 1:
            raise ValueError(f"l_max must be at least 1, got {self.l_max}")
        if self.rho_feas_threshold <= 0:
            raise ValueError("rho_feas_threshold must be positive")

    @classmethod
    def envelope(cls, **overrides) -> "PenaltyConfig":
        """Preset for the smooth envelope penalty: gamma 0.05, tau0 1.0."""
        overrides.setdefault("gamma", 0.05)
        overrides.setdefault("tau0", 1.0)
        return cls(**overrides)

    @classmethod
    def quadratic(cls, **overrides) -> "PenaltyConfig":
        """Preset for the quadratic penalty: gamma 0, tau0 0.005."""
        overrides.setdefault("gamma", 0.0)
        overrides.setdefault("tau0", 0.005)
        return cls(**overrides)


@dataclass
class OuterRecord:
    """One outer iteration: weight, inner target, and iterate summary."""

    rho: float
    tau: float
    ninf: float
    f_value: float
    upsilon: float


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
    rho = cfg.rho0_scale * abs(f0) / viol
    return rho if rho > 0 else 1.0


def _solve_subproblem(
    obj: Objective,
    x_start: StiefelPoint,
    cfg: PgmConfig,
    outer: int,
    inner_traces: list,
    flags: list,
) -> tuple[StiefelPoint, bool]:
    """One inner solve of an outer loop, with its trace and flags recorded.

    Returns (solution, True), or (x_start, False) after a line-search failure,
    which aborts the outer loop; the failed solve's partial trace is kept.
    """
    try:
        x, tr = pgm_solve(obj, x_start, cfg)
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

    A line-search failure inside a subproblem aborts the run; the report then
    describes that subproblem's warm start (the previous iterate, or its
    rounded candidate) and carries flags.

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
    upsilon = f0 + rho * penalty_value(x0.mat, cfg.gamma)

    solver = "penalty_envelope" if cfg.gamma > 0 else "penalty_quadratic"
    x_start = x0
    f_hist: list[float] = []
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
        pen = penalty_value(x.mat, cfg.gamma)
        theta_x = f_val + rho * pen
        if theta_x > upsilon + 1e-12 * (1.0 + abs(upsilon)):
            flags.append(f"acceptance_bound_violated@outer={l}")

        ninf = nonneg_violation(x.mat)
        f_hist.append(f_val)
        records.append(OuterRecord(rho=rho, tau=tau, ninf=ninf, f_value=f_val, upsilon=upsilon))

        if ninf <= cfg.epsilon:
            break
        if ninf <= 5.0 * cfg.epsilon and len(f_hist) > _STAGNATION_LAG:
            rel = abs(f_hist[-1] - f_hist[-1 - _STAGNATION_LAG]) / (1.0 + abs(f_hist[-1]))
            if rel <= _STAGNATION_RTOL:
                break

        sigma = cfg.sigma_rho_small if rho <= 1.0 else cfg.sigma_rho_large
        rho = min(sigma * rho, cfg.rho_max)
        tau = max(cfg.sigma_tau * tau, cfg.tau_min)

        theta_plain = f_val + rho * pen
        x_start, upsilon = x, theta_plain
        # the rounded-warm-start gate compares against the weight just solved
        # (records[-1].rho), not the freshly grown one
        if records[-1].rho >= cfg.rho_feas_threshold:
            x_round = round_to_feasible(x.mat)
            theta_round = PenaltyObjective(f, rho, cfg.gamma).value(x_round.mat)
            if theta_round < theta_plain:
                x_start, upsilon = x_round, theta_round
    else:
        flags.append("outer_budget_exhausted")

    return _report(solver, f, pobj, x, start_time, records, inner_traces, flags)


class AugLagObjective(Objective):
    """Augmented Lagrangian in the primal matrix for fixed multiplier and weight.

    value(X) = f(X) + mu/2 ||min(0, X - lam/mu)||_F^2 - ||lam||_F^2 / (2 mu)
    gradient(X) = grad f(X) + mu * min(0, X - lam/mu)
    """

    def __init__(self, f: Objective, lam: np.ndarray, mu: float):
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {mu}")
        self.f = f
        self.lam = np.asarray(lam, dtype=float)
        self.mu = float(mu)
        self._shift = self.lam / self.mu
        self._lam_term = float(np.sum(self.lam * self.lam)) / (2.0 * self.mu)

    def _slack(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(0.0, x - self._shift)

    def _value(self, fv: float, s: np.ndarray) -> float:
        return fv + 0.5 * self.mu * float(np.sum(s * s)) - self._lam_term

    def value(self, x: np.ndarray) -> float:
        return self._value(self.f.value(x), self._slack(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.f.gradient(x) + self.mu * self._slack(x)

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        fv, fg = self.f.value_and_gradient(x)
        s = self._slack(x)
        return self._value(fv, s), fg + self.mu * s


def alm_solve(
    f: Objective,
    x0: StiefelPoint,
    mu0: float,
    pgm_cfg: PgmConfig | None = None,
    *,
    epsilon: float = 1e-6,
    max_outer: int = 1000,
    mu_growth: float = 1.2,
) -> SolveReport:
    """Augmented-Lagrangian baseline for the same constrained problem.

    Alternates an approximate manifold minimization of the augmented
    Lagrangian with the multiplier update max(lam - mu X, 0) and the weight
    update mu <- mu_growth * mu, starting from lam = 0. Stops once the
    violation reaches epsilon or the outer cap is hit.
    """
    if mu0 <= 0:
        raise ValueError(f"mu0 must be positive, got {mu0}")
    if pgm_cfg is None:
        pgm_cfg = PgmConfig(grad_tol=1e-6)
    start_time = time.perf_counter()

    lam = np.zeros(x0.shape)
    mu = float(mu0)
    x = x0
    # max_outer == 0 reports x0 against the first subproblem objective
    obj = AugLagObjective(f, lam, mu)
    records: list[OuterRecord] = []
    inner_traces: list[PgmTrace] = []
    flags: list[str] = []

    for k in range(max_outer):
        obj = AugLagObjective(f, lam, mu)
        x, ok = _solve_subproblem(obj, x, pgm_cfg, k, inner_traces, flags)
        if not ok:
            break
        ninf = nonneg_violation(x.mat)
        records.append(
            OuterRecord(rho=mu, tau=pgm_cfg.grad_tol, ninf=ninf, f_value=f.value(x.mat), upsilon=float("nan"))
        )
        if ninf <= epsilon:
            break
        lam = np.maximum(lam - mu * x.mat, 0.0)
        mu *= mu_growth
    else:
        flags.append("outer_budget_exhausted")

    return _report("alm", f, obj, x, start_time, records, inner_traces, flags)


def stationarity_residual(
    f: Objective,
    x: StiefelPoint,
    *,
    feas_tol: float = 5e-6,
    zero_tol: float = 1e-8,
    max_iters: int = 5000,
) -> float:
    """First-order residual of the constrained problem at a near-feasible point.

    Computes min over G in the normal cone of the nonnegative orthant at x of
    ||Proj_tangent(grad f(x) + G)||_F. The normal cone at a nonnegative point
    allows nonpositive entries where x vanishes and zeros elsewhere; entries of
    x below ``zero_tol`` count as zero. The minimization is a small convex
    least-squares over the constrained entries of G, solved by projected
    gradient with the exact step 1/L.

    Raises:
        ValueError: if the nonnegativity violation of x exceeds ``feas_tol``,
            or the gradient at x is not finite.
    """
    if nonneg_violation(x.mat) > feas_tol:
        raise ValueError(
            f"point is not feasible to tolerance {feas_tol}: "
            f"violation {nonneg_violation(x.mat):.3e}"
        )
    xm = x.mat
    g = check_matrix(f.gradient(xm), "gradient")
    zero_mask = xm < zero_tol

    def tangent(w: np.ndarray) -> np.ndarray:
        return proj_tangent(xm, w)

    if not np.any(zero_mask):
        return float(np.linalg.norm(tangent(g)))

    G = np.zeros_like(xm)
    h_prev = np.inf
    for _ in range(max_iters):
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
