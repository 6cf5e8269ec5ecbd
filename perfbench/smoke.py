"""Smoke check: every workload at a tiny size, untraced and traced.

    python3 perfbench/smoke.py

Runs each workload through ``run.main`` with shrunken inputs and fails
(nonzero exit) unless every named metric is printed with its unit, the last
line is a well-formed result with ``correct`` true, and its metrics are
exactly the end-to-end (untraced) or per-layer (traced) set.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SOLVER_REPORT = (
    "setup_s", "starts_per_s", "start_s_p50", "start_s_p90", "rgap_min_pct",
    "rgap_med_pct", "fail_frac", "ninf_max", "peak_rss_mb",
)
DIAG_REPORT = ("setup_s", "samples_per_s", "bound_holds_frac", "fail_frac", "peak_rss_mb")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def run_tiny(workload: str, trace: int) -> tuple[dict, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            tiny=True,
        )
    lines = buf.getvalue().strip().splitlines()
    check(code == 0, f"{workload} trace={trace} exited with {code}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "metric":
            printed[parts[1]] = parts[3]
    return printed, json.loads(lines[-1])


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from tracer import LAYER_METRICS

    for workload in run.WORKLOADS:
        for trace, expected in ((0, run.END_TO_END), (1, LAYER_METRICS)):
            printed, result = run_tiny(workload, trace)
            tag = f"{workload} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            check(result["correct"] is True, f"{tag}: not correct")
            check(result["attempted"] >= 1 and result["failed"] == 0, f"{tag}: attempted/failed")
            check(set(result["metrics"]) == set(expected), f"{tag}: metric names")
            for name, unit in expected.items():
                check(result["metrics"][name]["unit"] == unit, f"{tag}: unit of {name}")
            if trace:
                named = expected
            else:
                named = {n: None for n in (DIAG_REPORT if workload == "diag_errorbound" else SOLVER_REPORT)}
            for name, unit in named.items():
                check(name in printed, f"{tag}: {name} not printed")
                check(unit is None or printed[name] == unit, f"{tag}: {name} printed without unit {unit}")
            print(f"smoke ok {tag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
