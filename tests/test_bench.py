"""Instance parsing, metrics, experiment harness, and the CLI surface."""

import hashlib
import math
import os
import re
import statistics
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from orthopt.bench import (
    ExperimentSpec,
    _map_starts,
    QaplibParseError,
    clustering_metrics,
    default_config,
    default_jobs,
    load_best_known,
    load_dense_matrix,
    parse_qaplib,
    relgap,
    run_experiment,
    save_dense_matrix,
)
from orthopt.cli import load_config_overrides, main
from orthopt.driver import PenaltyConfig
from orthopt.diagnostics import default_base_point, error_bound_sweep, sosc_probe
from orthopt.penalty import nonneg_violation
from orthopt.pgm import PgmConfig
from orthopt.problems import ProjectionObjective, QapInstance

from helpers import brute_force_qap

SMALL_QAP = "2\n0 1\n1 0\n0 2\n2 0\n"


def format_qaplib(inst: QapInstance) -> str:
    """Test-data writer: an instance in the token stream the parser accepts."""
    lines = [str(inst.n)]
    for mat in (inst.a, inst.b):
        lines.extend(" ".join("%.17g" % v for v in row) for row in mat)
    return "\n".join(lines) + "\n"


class _PickleCounter:
    """Shared data that counts how often it is pickled in this process."""

    pickled = 0

    def __reduce__(self):
        type(self).pickled += 1
        return (_PickleCounter, ())


def _tag_start(shared, index):
    return type(shared).__name__, index


class TestParseQaplib:
    def test_small_fixture(self, tmp_path):
        path = tmp_path / "small.dat"
        path.write_text(SMALL_QAP)
        inst = parse_qaplib(path)
        assert inst.n == 2
        npt.assert_array_equal(inst.a, np.array([[0.0, 1.0], [1.0, 0.0]]))
        npt.assert_array_equal(inst.b, np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        inst = QapInstance(a=rng.random((3, 3)), b=rng.random((3, 3)))
        path = tmp_path / "rt.dat"
        path.write_text(format_qaplib(inst))
        back = parse_qaplib(path)
        npt.assert_array_equal(back.a, inst.a)
        npt.assert_array_equal(back.b, inst.b)

    def test_truncated_file_names_expected_count(self, tmp_path):
        path = tmp_path / "short.dat"
        path.write_text("2\n0 1\n1 0\n0 2\n")  # one row of B missing
        with pytest.raises(QaplibParseError, match=r"expected 9 tokens"):
            parse_qaplib(path)

    @pytest.mark.parametrize("n", [100000, 1000000000])
    def test_impossible_dimension_rejected_before_allocating(self, tmp_path, n):
        # 2 n^2 values cannot fit in a 10-byte file; allocating them would
        # need 149 GiB (MemoryError) or more than numpy allows (ValueError)
        path = tmp_path / "huge.dat"
        path.write_text(f"{n}\n1 2 3\n")
        expected = rf"expected {2 * n * n + 1} tokens \(1 \+ 2\*{n}\^2\), found 4"
        with pytest.raises(QaplibParseError, match=expected) as exc:
            parse_qaplib(path)
        assert exc.value.offset == path.stat().st_size

    def test_extra_tokens_rejected(self, tmp_path):
        path = tmp_path / "long.dat"
        path.write_text(SMALL_QAP + "99\n")
        with pytest.raises(QaplibParseError, match="extra"):
            parse_qaplib(path)

    def test_malformed_token_reports_offset(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("2\n0 x\n1 0\n0 2\n2 0\n")
        with pytest.raises(QaplibParseError, match="byte offset 4") as exc:
            parse_qaplib(path)
        assert exc.value.offset == 4

    def test_bad_dimension_token_reports_offset(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text(" 2.5\n0 1\n1 0\n0 2\n2 0\n")
        with pytest.raises(QaplibParseError, match=r"^bad dimension token b'2\.5' \(byte offset 1\)$") as exc:
            parse_qaplib(path)
        assert exc.value.offset == 1

    def test_file_long_enough_for_its_dimension_but_short_of_tokens(self, tmp_path):
        # 38 bytes pass the 2 k - 1 byte precheck for 9 tokens; the count finds 7
        path = tmp_path / "short.dat"
        path.write_text("2\n0.000 1.000\n1.000 0.000\n0.000 2.000\n")
        with pytest.raises(QaplibParseError, match=r"expected 9 tokens \(1 \+ 2\*2\^2\), found 7") as exc:
            parse_qaplib(path)
        assert exc.value.offset == path.stat().st_size

    def test_empty_and_bad_dimension(self, tmp_path):
        empty = tmp_path / "empty.dat"
        empty.write_text("")
        with pytest.raises(QaplibParseError):
            parse_qaplib(empty)
        neg = tmp_path / "neg.dat"
        neg.write_text("-1\n")
        with pytest.raises(QaplibParseError, match="positive"):
            parse_qaplib(neg)


def test_load_best_known(tmp_path):
    path = tmp_path / "best.txt"
    path.write_text("# bounds\nnug12 578\ntai10a 135028\n")
    table = load_best_known(path)
    assert table == {"nug12": 578.0, "tai10a": 135028.0}


def test_dense_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((4, 3))
    path = tmp_path / "m.txt"
    save_dense_matrix(path, mat)
    npt.assert_array_equal(load_dense_matrix(path), mat)


class TestRelgap:
    def test_zero_at_best(self):
        assert relgap(10.0, 10.0) == 0.0

    def test_five_percent(self):
        npt.assert_allclose(relgap(1.05 * 8.0, 8.0), 5.0)

    def test_best_zero_rejected(self):
        with pytest.raises(ValueError):
            relgap(1.0, 0.0)

    def test_negative_reference_keeps_excess_positive(self):
        # graph matching minimizes a negated score, so its references are negative
        assert relgap(-9.0, -10.0) == 10.0
        assert relgap(-11.0, -10.0) == -10.0


class TestClusteringMetrics:
    def test_perfect_clustering_is_exact(self):
        truth = [1, 1, 2, 2, 3, 3]
        pidx, eidx, nmi = clustering_metrics(truth, truth, 3)
        assert (pidx, eidx, nmi) == (1.0, 0.0, 1.0)

    def test_unbalanced_perfect_clustering_is_exact(self):
        truth = [1] * 7 + [2] * 2 + [3]
        pidx, eidx, nmi = clustering_metrics(truth, truth, 3)
        assert (pidx, eidx, nmi) == (1.0, 0.0, 1.0)

    def test_one_cluster_has_zero_entropy(self):
        # log2(r) = 0 leaves the entropy index undefined; it is set to 0
        pidx, eidx, nmi = clustering_metrics([1, 1, 1], [1, 1, 1], 1)
        assert (pidx, eidx, nmi) == (1.0, 0.0, 1.0)
        assert math.copysign(1.0, eidx) == 1.0

    def test_single_cluster_prediction(self):
        pidx, eidx, nmi = clustering_metrics([1, 1, 2, 2], [1, 1, 1, 1], 2)
        assert pidx == 0.5
        assert nmi == 0.0
        npt.assert_allclose(eidx, 1.0)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(1, 4, size=30)
        pred = rng.integers(1, 4, size=30)
        base = clustering_metrics(truth, pred, 3)
        relabel = {1: 3, 2: 1, 3: 2}
        pred2 = np.array([relabel[v] for v in pred])
        npt.assert_allclose(clustering_metrics(truth, pred2, 3), base)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            clustering_metrics([1, 2], [1, 3], 2)


def spec_for_proj(tmp_path=None, **overrides):
    c = default_base_point(4, 2)
    kwargs = dict(
        kind="proj",
        name="proj42",
        instance=c.mat,
        solver="seppg_plus",
        num_starts=2,
        seed=5,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestRunExperiment:
    def test_projection_single_start(self):
        row = run_experiment(spec_for_proj(num_starts=1))
        assert row.failures == 0
        assert row.min_gap_pct is None and row.med_gap_pct is None
        assert row.mean_ninf <= 1e-6
        assert row.mean_orth_residual <= 1e-10

    def test_reported_ninf_matches_recomputed_violation(self):
        row = run_experiment(spec_for_proj(num_starts=2))
        for rec in row.records:
            npt.assert_allclose(rec.ninf, nonneg_violation(rec.x_final))

    def test_deterministic_csv_bytes(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_experiment(spec_for_proj(), out_prefix=str(out1))
        run_experiment(spec_for_proj(), out_prefix=str(out2))
        for suffix in ("_summary.csv", "_starts.csv"):
            b1 = (tmp_path / ("a" + suffix)).read_bytes()
            b2 = (tmp_path / ("b" + suffix)).read_bytes()
            assert b1 == b2
        # the records' fields in order, three under another header; timings
        # and matrices stay out of the artifacts
        assert (tmp_path / "a_summary.csv").read_text().splitlines()[0] == (
            "instance,solver,starts,failures,min_gap_pct,med_gap_pct,rmed_gap_pct,"
            "mean_ninf,mean_orth_residual"
        )
        assert (tmp_path / "a_starts.csv").read_text().splitlines()[0] == (
            "start,seed,failed,error,f_final,f_rounded,gap_pct,rgap_pct,ninf,"
            "orth_residual,stationarity,outer_iters,inner_iters,certified_exit"
        )

    def test_qap_gaps_respect_exhaustive_optimum(self):
        rng = np.random.default_rng(3)
        inst = QapInstance(a=rng.random((4, 4)), b=rng.random((4, 4)))
        best, _ = brute_force_qap(inst)
        spec = ExperimentSpec(
            kind="qap",
            name="rand4",
            instance=inst,
            solver="seppg_zero",
            num_starts=5,
            seed=1,
            best_known=best,
        )
        row = run_experiment(spec)
        assert row.failures == 0
        assert row.min_gap_pct >= -1e-6
        assert row.med_gap_pct >= row.min_gap_pct
        # median recomputed independently from the raw records
        gaps = sorted(rec.gap_pct for rec in row.records)
        npt.assert_allclose(row.med_gap_pct, statistics.median(gaps))

    def test_parallel_jobs_match_serial(self):
        serial = run_experiment(spec_for_proj(num_starts=3, jobs=1))
        parallel = run_experiment(spec_for_proj(num_starts=3, jobs=2))
        for a, b in zip(serial.records, parallel.records):
            assert a.f_final == b.f_final
            assert a.ninf == b.ninf

    def test_pooled_starts_get_the_shared_data_once_per_worker(self):
        # 5 starts over 2 workers: an uneven split, results in index order;
        # the shared object is pickled at most once per worker (never on fork)
        _PickleCounter.pickled = 0
        out = _map_starts(_tag_start, _PickleCounter(), 5, 2)
        assert out == [("_PickleCounter", i) for i in range(5)]
        assert _PickleCounter.pickled <= 2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            spec_for_proj(solver="nope")
        with pytest.raises(ValueError):
            spec_for_proj(num_starts=0)
        with pytest.raises(ValueError):
            spec_for_proj(kind="unknown")

    @pytest.mark.parametrize(
        "kind,instance",
        [
            ("gm", np.eye(4)),
            ("qap", np.eye(4)),
            ("proj", QapInstance(np.eye(3), np.eye(3))),
            ("proj", np.eye(4)[:2]),
            ("proj", np.full((3, 2), np.nan)),
        ],
        ids=["gm-matrix", "qap-matrix", "proj-qap-instance", "proj-wide", "proj-nan"],
    )
    def test_instance_that_does_not_fit_the_kind_is_rejected_by_name(self, kind, instance):
        with pytest.raises(ValueError, match=f"^instance 'p' does not fit kind '{kind}': "):
            ExperimentSpec(kind, "p", instance)

    @pytest.mark.parametrize(
        "field,value",
        [("rho0", -1.0), ("rho0", 0.0), ("rho0", float("nan")), ("seed", -1)],
    )
    def test_bad_mu0_or_seed_rejected_up_front(self, field, value):
        # alm's initial weight is the configuration's rho0
        with pytest.raises(ValueError, match=f"^{field} must be"):
            if field == "rho0":
                spec_for_proj(solver="alm", config=PenaltyConfig(rho0=value))
            else:
                spec_for_proj(solver="alm", seed=value)

    def test_failed_start_is_recorded_and_left_out_of_the_means(self, tmp_path, monkeypatch):
        import orthopt.bench as bench

        solve = bench.penalty_solve
        calls = []

        def fail_on_start_1(f, x0, cfg):
            calls.append(x0)
            if len(calls) == 2:
                raise RuntimeError("boom, at start 1")
            return solve(f, x0, cfg)

        monkeypatch.setattr(bench, "penalty_solve", fail_on_start_1)
        row = run_experiment(spec_for_proj(num_starts=3), out_prefix=str(tmp_path / "run"))
        failed = row.records[1]
        assert failed.failed and failed.error == "RuntimeError: boom, at start 1"
        assert failed.f_final is None and failed.ninf is None
        good = [row.records[0], row.records[2]]
        assert not any(rec.failed for rec in good)
        assert row.failures == 1
        assert row.mean_ninf == float(np.mean([rec.ninf for rec in good]))
        assert row.mean_orth_residual == float(np.mean([rec.orth_residual for rec in good]))
        header, *rows = (tmp_path / "run_starts.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), rows[1].split(",")))
        assert len(cells) == len(rows[1].split(","))
        assert cells["failed"] == "1"
        assert cells["error"] == "RuntimeError: boom; at start 1"

    def test_zero_best_known_rejected_up_front(self):
        with pytest.raises(ValueError, match="best_known"):
            spec_for_proj(best_known=0.0)

    @pytest.mark.parametrize("best", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_best_known_rejected_up_front(self, best):
        with pytest.raises(ValueError, match="^best_known must be finite"):
            spec_for_proj(best_known=best)


class TestCli:
    def test_proj_subcommand(self, tmp_path, capsys):
        c = default_base_point(4, 2)
        inst = tmp_path / "c.txt"
        save_dense_matrix(inst, c.mat)
        out = tmp_path / "run"
        code = main([
            "proj", str(inst), "--starts", "2", "--seed", "3",
            "--jobs", "1", "--out", str(out), "--dump-x",
        ])
        assert code == 0
        assert (tmp_path / "run_summary.csv").exists()
        assert (tmp_path / "run_starts.csv").exists()
        assert (tmp_path / "run_x_start0.txt").exists()
        assert "mean_ninf" in capsys.readouterr().out

    def test_qap_subcommand_with_best_known(self, tmp_path, capsys):
        inst = tmp_path / "tiny.dat"
        inst.write_text(SMALL_QAP)
        best = tmp_path / "best.txt"
        best.write_text("tiny 4\n")
        code = main([
            "qap", str(inst), "--best-known", str(best), "--solver", "seppg_zero",
            "--starts", "2", "--seed", "0", "--jobs", "1",
        ])
        assert code == 0
        assert "med_gap" in capsys.readouterr().out

    def test_onmf_subcommand(self, tmp_path, capsys):
        from orthopt.problems import planted_onmf_instance

        inst, labels, _, _ = planted_onmf_instance(12, 6, 2, noise=0.0, seed=4)
        a_path = tmp_path / "a.txt"
        save_dense_matrix(a_path, inst.a)
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("\n".join(str(v) for v in labels) + "\n")
        out = tmp_path / "onmf"
        code = main([
            "onmf", str(a_path), "--clusters", "2", "--labels", str(labels_path),
            "--starts", "1", "--seed", "2", "--jobs", "1", "--out", str(out),
        ])
        assert code == 0
        lines = (tmp_path / "onmf_onmf.csv").read_text().splitlines()
        assert lines[0] == "start,seed,objective,pidx,eidx,nmi"
        assert len(lines) == 2 and lines[1].startswith("0,2,")
        assert "purity" in capsys.readouterr().out

    def test_qap_best_known_sidecar_without_the_instance_exits_naming_it(self, tmp_path, capsys):
        inst = tmp_path / "tiny.dat"
        inst.write_text(SMALL_QAP)
        best = tmp_path / "best.txt"
        best.write_text("other 4\n")
        code = main(["qap", str(inst), "--best-known", str(best), "--starts", "1", "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: ValueError: no best-known value for 'tiny' in {best}\n"

    def test_onmf_dump_x_writes_each_final_matrix(self, tmp_path, capsys):
        from orthopt.cli import _onmf_start
        from orthopt.driver import penalty_solve
        from orthopt.problems import planted_onmf_instance

        inst, _, _, _ = planted_onmf_instance(12, 6, 2, noise=0.05, seed=4)
        a_path = tmp_path / "a.txt"
        save_dense_matrix(a_path, inst.a)
        out = tmp_path / "onmf"
        code = main([
            "onmf", str(a_path), "--clusters", "2", "--starts", "2", "--seed", "1",
            "--jobs", "1", "--out", str(out), "--dump-x",
        ])
        assert code == 0
        cfg = default_config("seppg_plus", "onmf", inst)
        for i in range(2):
            x = _onmf_start((inst, cfg, penalty_solve, 1), i)[0]
            npt.assert_array_equal(load_dense_matrix(tmp_path / f"onmf_x_start{i}.txt"), x)

    def test_onmf_subcommand_without_labels_leaves_metric_cells_empty(self, tmp_path, capsys):
        from orthopt.problems import planted_onmf_instance

        inst, _, _, _ = planted_onmf_instance(12, 6, 2, noise=0.0, seed=4)
        a_path = tmp_path / "a.txt"
        save_dense_matrix(a_path, inst.a)
        out = tmp_path / "onmf"
        code = main([
            "onmf", str(a_path), "--clusters", "2", "--starts", "2", "--seed", "2",
            "--jobs", "1", "--out", str(out),
        ])
        assert code == 0
        lines = (tmp_path / "onmf_onmf.csv").read_text().splitlines()
        assert lines[0] == "start,seed,objective,pidx,eidx,nmi"
        assert len(lines) == 3
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[:2] == [str(i), str(2 ^ i)]
            float(cells[2])
            assert cells[3:] == ["", "", ""]
        assert "purity" not in capsys.readouterr().out

    def test_diag_errorbound_subcommand(self, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        code = main([
            "diag-errorbound", "--shape", "3", "2", "--samples", "50",
            "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        assert "violations=0" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 51
        assert lines[0].endswith("kappa,holds")
        assert lines[0] == ",".join(
            [f"x{i}" for i in range(6)] + ["dist_splus", "dist_cone", "dist_st", "kappa", "holds"]
        )
        samples = error_bound_sweep(default_base_point(3, 2), 0.05, 50, 0)
        for line, s in zip(lines[1:], samples):
            cells = line.split(",")
            assert [float(c) for c in cells[:6]] == s.x.ravel().tolist()
            floats = [float(c) for c in cells[6:10]]
            assert floats == [s.dist_splus, s.dist_cone, s.dist_st, samples.kappa]
            assert cells[10] == ("1" if s.holds else "0")

    def test_diag_errorbound_csv_bytes_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "eb.csv"
        code = main([
            "diag-errorbound", "--shape", "8", "2", "--samples", "200",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out == "shape=(8,2) kappa=219.7688 samples=200 violations=0\n"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "0c9ff018f5202dfe449baa55ffb1980e76d4b41311b0eb55a5a9cbe9ec42b618"

    def test_diag_errorbound_zero_mass_minimizers_are_pinned(self, tmp_path, capsys):
        # two of these samples win with a column whose rows hold no positive
        # entry, so their minimizers take e_i at that column's largest entry
        out = tmp_path / "eb.csv"
        code = main([
            "diag-errorbound", "--shape", "3", "3", "--delta", "1.5", "--samples", "200",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out == "shape=(3,3) kappa=3.6373 samples=200 violations=0\n"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "9d2c7c7f3a83e4823a0015767ab08cd353d0ddd3e6804efe02bec9a44986d506"

    def test_diag_errorbound_without_samples_exits_with_error(self, capsys):
        code = main(["diag-errorbound", "--shape", "3", "2", "--samples", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(r"^error: ValueError: num_samples must be at least 1", err)
        assert err.count("\n") == 1

    def test_diag_errorbound_overflowing_delta_exits_naming_delta(self, tmp_path, capsys):
        out = tmp_path / "eb.csv"
        code = main([
            "diag-errorbound", "--shape", "8", "2", "--delta", "1e300", "--samples", "5",
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(r"^error: ValueError: delta must be positive and at most 1e\+154, got 1e\+300$", err)
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("shape", [["3", "0"], ["-2", "-3"]])
    def test_diag_errorbound_bad_shape_exits_naming_shape(self, capsys, shape):
        code = main(["diag-errorbound", "--shape", *shape, "--samples", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(rf"^error: ValueError: r must be at least 1, got {shape[1]}$", err)
        assert err.count("\n") == 1

    def test_diag_errorbound_infeasible_base_exits_with_error(self, tmp_path, capsys):
        # orthonormal, with one negative entry
        base = tmp_path / "x.txt"
        save_dense_matrix(base, [[0.6, 0.0], [-0.8, 0.0], [0.0, 1.0]])
        out = tmp_path / "eb.csv"
        code = main(["diag-errorbound", "--base", str(base), "--samples", "5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(
            r"^error: ValueError: base point xbar is infeasible: violation 8\.000e-01 exceeds 5e-06$",
            err,
        )
        assert err.count("\n") == 1
        assert not out.exists()

    def test_diag_sosc_infeasible_point_exits_as_diag_errorbound_does(self, tmp_path, capsys):
        # the same file, rejected by both commands with the same line
        base = tmp_path / "x.txt"
        save_dense_matrix(base, [[0.6, 0.0], [-0.8, 0.0], [0.0, 1.0]])
        assert main(["diag-errorbound", "--base", str(base), "--samples", "5"]) == 2
        errorbound = capsys.readouterr().err
        assert main(["diag-sosc", str(base), "--dirs", "5"]) == 2
        assert capsys.readouterr().err == errorbound

    def test_diag_errorbound_zero_row_base_exits_naming_the_hypothesis(self, tmp_path, capsys):
        base = tmp_path / "x.txt"
        save_dense_matrix(base, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert main(["diag-errorbound", "--base", str(base), "--samples", "5"]) == 2
        err = capsys.readouterr().err
        assert re.match(
            r"^error: ValueError: base point has a zero row; .* without zero rows\n$", err
        )

    def test_diag_sosc_subcommand(self, tmp_path, capsys):
        point = tmp_path / "x.txt"
        save_dense_matrix(point, default_base_point(5, 2).mat)
        out = tmp_path / "forms.csv"
        code = main(["diag-sosc", str(point), "--dirs", "100", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert "min_form" in capsys.readouterr().out
        base = default_base_point(5, 2)
        forms = sosc_probe(ProjectionObjective(base.mat), base, 100, 1).forms
        lines = out.read_text().splitlines()
        assert lines[0] == "form"
        assert [float(c) for c in lines[1:]] == forms.tolist()

    def test_diag_sosc_without_surviving_direction_is_inconclusive(self, tmp_path, capsys):
        # at the identity every entry off the diagonal is zero, and no sampled
        # tangent direction keeps all of them nonnegative to first order
        point = tmp_path / "i4.txt"
        save_dense_matrix(point, np.eye(4))
        out = tmp_path / "forms.csv"
        code = main(["diag-sosc", str(point), "--dirs", "50", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "inconclusive: 0 of 50 sampled directions lie in the cone\n"
        assert out.read_text() == "form\n"

    @pytest.mark.parametrize("cols", [1, 3])
    def test_diag_sosc_target_of_another_shape_exits_naming_both(self, tmp_path, capsys, cols):
        # a 4 x 1 target would broadcast across the point's two columns
        point, target = tmp_path / "x4.txt", tmp_path / "t.txt"
        save_dense_matrix(point, default_base_point(4, 2).mat)
        save_dense_matrix(target, np.full((4, cols), 0.5))
        assert main(["diag-sosc", str(point), "--target", str(target), "--dirs", "5"]) == 2
        assert capsys.readouterr().err == (
            f"error: ValueError: target shape (4, {cols}) differs from the point's shape (4, 2)\n"
        )

    @pytest.mark.parametrize("text", ["", "# no numbers\n\n"], ids=["empty", "comment_only"])
    @pytest.mark.parametrize(
        "command",
        [["proj"], ["gm"], ["onmf", "--clusters", "2"], ["diag-errorbound", "--base"], ["diag-sosc"]],
        ids=["proj", "gm", "onmf", "diag-errorbound", "diag-sosc"],
    )
    def test_matrix_file_without_numbers_exits_with_one_error_line(
        self, tmp_path, capsys, command, text
    ):
        path = tmp_path / "m.txt"
        path.write_text(text)
        # a warning would reach stderr ahead of the error line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*command, str(path)]) == 2
        assert caught == []
        assert capsys.readouterr().err == f"error: ValueError: matrix file {path} holds no numbers\n"

    @pytest.mark.parametrize(
        "text,fault",
        [
            ("1 2\n3\n", "the number of columns changed from 2 to 1 at row 2"),
            ("1 x\n", "could not convert string 'x' to float64 at row 0, column 2."),
        ],
        ids=["ragged", "non_numeric"],
    )
    @pytest.mark.parametrize(
        "command",
        [["proj"], ["gm"], ["onmf", "--clusters", "1"], ["diag-errorbound", "--base"], ["diag-sosc"]],
        ids=["proj", "gm", "onmf", "diag-errorbound", "diag-sosc"],
    )
    def test_malformed_matrix_file_exits_naming_it(self, tmp_path, capsys, command, text, fault):
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: ValueError: matrix file {path}: {fault}\n"

    @pytest.mark.parametrize(
        "text,fault",
        [
            ("", "matrix file {path} holds no numbers"),
            ("1\n2 1\n", "matrix file {path}: the number of columns changed from 1 to 2 at row 2"),
            ("1\nx\n", "matrix file {path}: could not convert string 'x' to float64 at row 1, column 1."),
            ("1\n2\n" * 5 + "1\n1.5\n", "labels file {path} needs an integer in [1, 2] per data row (12)"),
            ("1\n2\n" * 5 + "1\n3\n", "labels file {path} needs an integer in [1, 2] per data row (12)"),
            ("1 2\n" * 6, "labels file {path} needs an integer in [1, 2] per data row (12)"),
        ],
        ids=["empty", "ragged", "non_numeric", "fractional", "out_of_range", "two_columns"],
    )
    def test_onmf_bad_labels_file_exits_naming_it_before_any_start(
        self, tmp_path, capsys, monkeypatch, text, fault
    ):
        from orthopt.problems import planted_onmf_instance

        a_path, path = tmp_path / "a.txt", tmp_path / "labels.txt"
        save_dense_matrix(a_path, planted_onmf_instance(12, 6, 2, noise=0.05, seed=4)[0].a)
        path.write_text(text)

        def no_start(*args):
            raise AssertionError("a start ran")

        monkeypatch.setattr("orthopt.cli._onmf_start", no_start)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "onmf", str(a_path), "--clusters", "2", "--labels", str(path),
                "--jobs", "1", "--out", str(tmp_path / "onmf"),
            ])
        assert code == 2
        assert caught == []
        assert capsys.readouterr().err == f"error: ValueError: {fault.format(path=path)}\n"
        assert list(tmp_path.glob("*.csv")) == []

    def test_onmf_labels_may_be_one_row(self, tmp_path, capsys):
        from orthopt.problems import planted_onmf_instance

        inst, labels, _, _ = planted_onmf_instance(12, 6, 2, noise=0.0, seed=4)
        a_path, row, col = tmp_path / "a.txt", tmp_path / "row.txt", tmp_path / "col.txt"
        save_dense_matrix(a_path, inst.a)
        row.write_text(" ".join(str(v) for v in labels) + "\n")
        col.write_text("\n".join(str(v) for v in labels) + "\n")
        for path in (row, col):
            assert main(["onmf", str(a_path), "--clusters", "2", "--labels", str(path), "--jobs", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and out[0] == out[1] and "purity=1.0000" in out[0]

    def test_onmf_solves_through_the_bench_solver_lookup(self, tmp_path, capsys, monkeypatch):
        # perfbench/tracer.py patches the drivers among bench's module globals
        from orthopt import bench
        from orthopt.problems import planted_onmf_instance

        a_path = tmp_path / "a.txt"
        save_dense_matrix(a_path, planted_onmf_instance(12, 6, 2, noise=0.05, seed=4)[0].a)
        calls = []

        def spying(name):
            real = getattr(bench, name)

            def spy(*args):
                calls.append(name)
                return real(*args)

            return spy

        for name in ("alm_solve", "penalty_solve"):
            monkeypatch.setattr(bench, name, spying(name))
        for solver, name in (("alm", "alm_solve"), ("seppg_zero", "penalty_solve")):
            calls.clear()
            assert main(["onmf", str(a_path), "--clusters", "2", "--solver", solver, "--jobs", "1"]) == 0
            assert calls and set(calls) == {name}

    @pytest.mark.parametrize(
        "command,bad,name",
        [
            ("qap", "nan", "B"),
            ("qap", "inf", "B"),
            ("gm", "nan", "affinity matrix"),
            ("gm", "-inf", "affinity matrix"),
            ("proj", "nan", "projection target"),
            ("onmf", "nan", "data matrix"),
            ("onmf", "-inf", "data matrix"),
        ],
        ids=["qap_nan", "qap_inf", "gm_nan", "gm_neg_inf", "proj_nan", "onmf_nan", "onmf_neg_inf"],
    )
    def test_non_finite_instance_data_exits_naming_it(self, tmp_path, capsys, command, bad, name):
        data = tmp_path / "data.txt"
        argv = [command, str(data)]
        if command == "qap":
            data.write_text(SMALL_QAP.replace("2 0\n", f"2 {bad}\n"))
        else:
            if command == "gm":
                mat = np.ones((4, 4))
            elif command == "proj":
                mat = default_base_point(4, 2).mat.copy()
            else:
                mat = np.ones((6, 4))
                argv += ["--clusters", "2"]
            mat[1, 1] = float(bad)
            save_dense_matrix(data, mat)
        code = main([*argv, "--jobs", "1", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(rf"^error: ValueError: {name} contains NaN or Inf entries$", err)
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("run*"))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_best_known_exits_naming_it(self, tmp_path, capsys, bad):
        inst = tmp_path / "q2.dat"
        inst.write_text(SMALL_QAP)
        best = tmp_path / "best.txt"
        best.write_text(f"q2 {bad}\n")
        code = main(["qap", str(inst), "--best-known", str(best), "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(rf"^error: ValueError: bad value '{bad}' on line 1$", err)
        assert err.count("\n") == 1

    def test_failure_emits_single_error_line(self, tmp_path, capsys):
        missing = tmp_path / "nope.dat"
        code = main(["qap", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(r"^error: \w+", err)
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "line,flags,message",
        [
            ("rho0 = -1", [], "rho0 must be positive"),
            ("rho0 = nan", [], "rho0 must be positive"),
            ("", ["--seed", "-1"], "seed must be nonnegative"),
        ],
        ids=["rho0_negative", "rho0_nan", "seed_negative"],
    )
    def test_bad_mu0_or_seed_exits_with_error(self, tmp_path, capsys, line, flags, message):
        # alm's initial weight is the configuration's rho0
        inst = tmp_path / "tiny.dat"
        inst.write_text(SMALL_QAP)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        code = main(["qap", str(inst), "--solver", "alm", "--jobs", "1", "--config", str(cfg), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(rf"^error: ValueError: {message}", err)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["qap", "gm", "proj", "onmf"])
    def test_jobs_below_one_exits_naming_jobs(self, tmp_path, capsys, command):
        data = tmp_path / "data.txt"
        argv = [command, str(data)]
        if command == "qap":
            data.write_text(SMALL_QAP)
        elif command == "gm":
            save_dense_matrix(data, np.ones((4, 4)))
        elif command == "proj":
            save_dense_matrix(data, default_base_point(4, 2).mat)
        else:
            save_dense_matrix(data, np.ones((6, 4)))
            argv += ["--clusters", "2"]
        code = main([*argv, "--jobs", "0", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(r"^error: ValueError: jobs must be at least 1", err)
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("run*"))

    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("proj", ["--out", "{tmp}/missing/run"], "output directory {tmp}/missing does not exist"),
            ("onmf", ["--out", "{tmp}/missing/run"], "output directory {tmp}/missing does not exist"),
            (
                "diag-errorbound",
                ["--out", "{tmp}/missing/eb.csv"],
                "output directory {tmp}/missing does not exist",
            ),
            ("proj", ["--dump-x"], "--dump-x needs --out"),
        ],
        ids=["proj", "onmf", "diag-errorbound", "dump-x-without-out"],
    )
    def test_unwritable_output_exits_before_any_work(
        self, tmp_path, capsys, command, flags, message
    ):
        data = tmp_path / "data.txt"
        if command == "proj":
            save_dense_matrix(data, default_base_point(4, 2).mat)
            argv = ["proj", str(data), "--starts", "3", "--jobs", "1"]
        elif command == "onmf":
            save_dense_matrix(data, np.ones((6, 4)))
            argv = ["onmf", str(data), "--clusters", "2", "--jobs", "1"]
        else:
            argv = ["diag-errorbound", "--shape", "3", "2", "--samples", "5"]
        assert main([*argv, *(flag.format(tmp=tmp_path) for flag in flags)]) == 2
        # nothing is printed before the error: no start line and no summary
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ValueError: {message.format(tmp=tmp_path)}\n"

    @pytest.mark.parametrize("solver", ["seppg_plus", "seppg_zero", "alm"])
    def test_gm_subcommand_matches_run_experiment(self, tmp_path, capsys, solver):
        from test_trajectories import tiny_gm

        inst = tiny_gm()
        path = tmp_path / "gm4.txt"
        save_dense_matrix(path, inst.k)
        code = main([
            "gm", str(path), "--solver", solver, "--starts", "2", "--seed", "3",
            "--jobs", "1", "--out", str(tmp_path / "cli"),
        ])
        assert code == 0
        spec = ExperimentSpec(
            kind="gm", name="gm4", instance=inst, solver=solver, num_starts=2, seed=3
        )
        run_experiment(spec, out_prefix=str(tmp_path / "lib"))
        assert _csv_bytes(tmp_path / "cli") == _csv_bytes(tmp_path / "lib")

    @pytest.mark.parametrize("starts", ["0", "-2"])
    def test_onmf_starts_below_one_exits_with_error(self, tmp_path, capsys, starts):
        a_path = tmp_path / "a.txt"
        save_dense_matrix(a_path, np.ones((6, 4)))
        out = tmp_path / "onmf"
        code = main([
            "onmf", str(a_path), "--clusters", "2", "--starts", starts, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(r"^error: ValueError: starts must be at least 1", err)
        assert err.count("\n") == 1
        assert not (tmp_path / "onmf_onmf.csv").exists()

    @pytest.mark.parametrize("command", ["onmf", "diag-errorbound", "diag-sosc"])
    def test_negative_seed_exits_naming_seed(self, tmp_path, capsys, command):
        data = tmp_path / "data.txt"
        if command == "onmf":
            save_dense_matrix(data, np.ones((6, 4)))
            argv = ["onmf", str(data), "--clusters", "2"]
        elif command == "diag-sosc":
            save_dense_matrix(data, default_base_point(4, 2).mat)
            argv = ["diag-sosc", str(data), "--dirs", "10"]
        else:
            argv = ["diag-errorbound", "--shape", "3", "2", "--samples", "5"]
        code = main([*argv, "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(r"^error: ValueError: seed must be nonnegative", err)
        assert err.count("\n") == 1

    def test_config_overrides(self, tmp_path, capsys):
        c = default_base_point(4, 2)
        inst = tmp_path / "c.txt"
        save_dense_matrix(inst, c.mat)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("rho0 = 2.5\nepsilon = 1e-7\npgm.memory = 3\n")
        code = main(["proj", str(inst), "--config", str(cfg), "--starts", "1", "--jobs", "1"])
        assert code == 0


def _csv_bytes(prefix):
    return [
        (prefix.parent / (prefix.name + suffix)).read_bytes()
        for suffix in ("_summary.csv", "_starts.csv")
    ]


class TestCliDefaults:
    """``--config`` overrides land on top of the solver's data-scaled defaults."""

    def test_proj_config_restating_a_default_changes_nothing(self, tmp_path, capsys):
        from orthopt.problems import noisy_projection_target

        target, _ = noisy_projection_target(12, 3, 0.25 / np.sqrt(12), seed=2)
        inst = tmp_path / "c.txt"
        save_dense_matrix(inst, target)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("epsilon = 1e-6\n")
        common = ["proj", str(inst), "--starts", "3", "--seed", "0", "--jobs", "1"]
        assert main(common + ["--out", str(tmp_path / "plain")]) == 0
        assert main(common + ["--out", str(tmp_path / "cfg"), "--config", str(cfg)]) == 0
        assert _csv_bytes(tmp_path / "plain") == _csv_bytes(tmp_path / "cfg")

    def test_qap_config_restating_the_data_driven_weight_changes_nothing(self, tmp_path, capsys):
        # rho0 = none selects the data-driven initial weight, seppg_plus's default on qap
        inst = tmp_path / "tiny.dat"
        inst.write_text(SMALL_QAP)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("rho0 = none\n")
        common = ["qap", str(inst), "--starts", "2", "--seed", "0", "--jobs", "1"]
        assert main(common + ["--out", str(tmp_path / "plain")]) == 0
        assert main(common + ["--out", str(tmp_path / "cfg"), "--config", str(cfg)]) == 0
        assert _csv_bytes(tmp_path / "plain") == _csv_bytes(tmp_path / "cfg")

    def test_onmf_config_restating_a_default_changes_nothing(self, tmp_path, capsys):
        from orthopt.problems import planted_onmf_instance

        inst, _, _, _ = planted_onmf_instance(12, 6, 2, noise=0.05, seed=4)
        a_path = tmp_path / "a.txt"
        save_dense_matrix(a_path, inst.a)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("epsilon = 1e-6\n")
        common = ["onmf", str(a_path), "--clusters", "2", "--starts", "2", "--jobs", "1"]
        assert main(common + ["--out", str(tmp_path / "plain")]) == 0
        assert main(common + ["--out", str(tmp_path / "cfg"), "--config", str(cfg)]) == 0
        plain = (tmp_path / "plain_onmf.csv").read_bytes()
        assert plain == (tmp_path / "cfg_onmf.csv").read_bytes()

    @pytest.mark.parametrize(
        "line", ["l_max = 1e3", "pgm.max_iters = 1e4", "pgm.memory = 2.5"]
    )
    def test_float_in_integer_field_exits_with_error(self, tmp_path, capsys, line):
        inst = tmp_path / "c.txt"
        save_dense_matrix(inst, default_base_point(4, 2).mat)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        code = main(["proj", str(inst), "--config", str(cfg), "--starts", "1", "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(r"^error: ValueError: ", err)
        assert err.count("\n") == 1

    def test_infinite_inner_tolerance_exits_with_error(self, tmp_path, capsys):
        inst = tmp_path / "c.txt"
        save_dense_matrix(inst, default_base_point(4, 2).mat)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("pgm.grad_tol = inf\n")
        code = main(["proj", str(inst), "--config", str(cfg), "--starts", "1", "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: ValueError: pgm.grad_tol must be positive and finite, got inf\n"

    def test_tau0_below_default_tau_min_exits_with_error(self, tmp_path, capsys):
        # the default tau_min = 1e-5 would loosen the target after one subproblem
        inst = tmp_path / "c.txt"
        save_dense_matrix(inst, default_base_point(4, 2).mat)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("tau0 = 1e-6\n")
        code = main(["proj", str(inst), "--config", str(cfg), "--starts", "1", "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: ValueError: need tau_min <= tau0, got (1e-05, 1e-06)\n"

    @pytest.mark.parametrize(
        "line",
        [
            "epsilon = nan",
            "epsilon = inf",
            "rho_feas_threshold = 1e3",
            "rho0_scale = 0.2",
            "gamma = true",
            "epsilon = abc",
            "epsilon = none",
            "pgm.alpha = none",
            "pgm = 3",
            "pgm.alpha = inf",
            "pgm.t_min = 1e13",
            "pgm.foo = 1",
            "epsilon 1e-6",
            "pgm.grad_tol = none",
            "pgm.memory = -1",
        ],
    )
    def test_invalid_or_removed_config_key_exits_with_error(self, tmp_path, capsys, line):
        inst = tmp_path / "c.txt"
        save_dense_matrix(inst, default_base_point(4, 2).mat)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        code = main(["proj", str(inst), "--config", str(cfg), "--starts", "1", "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match(r"^error: \w+: ", err)
        assert err.count("\n") == 1
        assert line.split("=")[0].strip() in err

    @pytest.mark.parametrize(
        "key, first, second", [("epsilon", "1e-3", "1e-6"), ("pgm.memory", "3", "4")]
    )
    def test_repeated_config_key_exits_with_error(self, tmp_path, capsys, key, first, second):
        inst = tmp_path / "c.txt"
        save_dense_matrix(inst, default_base_point(4, 2).mat)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = {first}\n{key} = {second}\n")
        code = main(["proj", str(inst), "--config", str(cfg), "--starts", "1", "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: ValueError: duplicate key {key!r} on line 2\n"

    def _config_error(self, tmp_path, capsys, text):
        inst = tmp_path / "c.txt"
        save_dense_matrix(inst, default_base_point(4, 2).mat)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        code = main(["proj", str(inst), "--config", str(cfg), "--starts", "1", "--jobs", "1"])
        assert code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# header\n\nepsilon 1e-6\n", "expected key=value, got 'epsilon 1e-6' on line 3"),
            ("epsilon = 1e-6\npgm.eta = 0.5\n", "unexpected key 'pgm.eta' on line 2"),
            ("epsilon = 1e-3\n\nepsilon = 1e-6\n", "duplicate key 'epsilon' on line 3"),
            ("tau0 = 0.5\npgm.grad_tol = abc\n", "pgm.grad_tol must be a number, got 'abc' on line 2"),
            ("gamma = none\n", "gamma must be a number, got 'none' on line 1"),
        ],
        ids=["no_equals", "unexpected", "duplicate", "not_a_number", "none_off_rho0"],
    )
    def test_rejected_line_is_named_by_key_and_line(self, tmp_path, capsys, text, message):
        assert self._config_error(tmp_path, capsys, text) == f"error: ValueError: {message}\n"

    @pytest.mark.parametrize(
        "key",
        ["pgm.eta", "pgm.alpha", "pgm.t_min", "pgm.t_max", "pgm.max_backtracks", "pgm", "pgm.foo",
         "foo", "rho_feas_threshold"],
    )
    def test_unknown_key_has_one_message(self, tmp_path, capsys, key):
        # inner and outer keys alike, and never Python's own keyword-argument text
        err = self._config_error(tmp_path, capsys, f"{key} = 1\n")
        assert err == f"error: ValueError: unexpected key {key!r} on line 1\n"
        assert "__init__()" not in err

    def test_every_settable_key_reaches_its_field(self, tmp_path):
        values = {
            "gamma": 0.0, "rho0": 2.5, "rho_max": 1e9, "sigma_rho_small": 1.02,
            "sigma_rho_large": 1.2, "tau0": 0.5, "tau_min": 1e-4, "sigma_tau": 0.9,
            "epsilon": 1e-7, "l_max": 30, "pgm.memory": 3, "pgm.grad_tol": 1e-5, "pgm.max_iters": 40,
        }
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
        outer = {key: value for key, value in values.items() if "." not in key}
        inner = {key[4:]: value for key, value in values.items() if "." in key}
        expected = PenaltyConfig(**outer, pgm=PgmConfig(**inner))
        assert load_config_overrides(cfg, PenaltyConfig()) == expected


def test_comma_in_instance_name_keeps_csv_shape(tmp_path, capsys):
    inst = tmp_path / "nug,12.dat"
    inst.write_text(SMALL_QAP)
    out = tmp_path / "run"
    code = main(["qap", str(inst), "--starts", "2", "--jobs", "1", "--out", str(out)])
    assert code == 0
    for suffix in ("_summary.csv", "_starts.csv"):
        lines = (tmp_path / ("run" + suffix)).read_text().splitlines()
        widths = {len(line.split(",")) for line in lines}
        assert len(widths) == 1, f"{suffix}: cell counts {sorted(widths)}"


def test_default_jobs_counts_the_cpus_this_process_may_use(monkeypatch):
    # a container or taskset may allow fewer CPUs than the machine has
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert default_jobs() == 3
    # platforms without affinity masks fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_jobs() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_jobs() == 1
