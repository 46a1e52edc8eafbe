"""Smoke test of the benchmark itself, on a minimal input.

Runs every workload untraced and traced on a 3-subject cohort cut to 120 s
sessions and a 240 s live stream, and checks that each run emits exactly the
metrics BENCHMARK.json names, with their units, and runs every correctness
check. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

CHECKS = {
    "live_verify": {"live.timeline_equals_stream_record",
                    "live.no_access_opens_in_intruder_segment",
                    "live.handover_access_within_t_avg_plus_t_v"},
    "loo_eval": {"loo.report_rows_identical", "loo.reports_follow_from_cells"},
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


def test_spec_names_the_workloads_the_runner_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_emits_every_metric_and_runs_every_check(work, workload, trace):
    outcome = run.run_benchmark(ROOT, workload, seed=0, seconds=0.0, trace=trace,
                                work=work, session_s=120.0, stream_s=240.0)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in outcome.metrics.items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(value) for value, _ in outcome.metrics.values())
    if not trace:
        assert all(value > 0 for value, _ in outcome.metrics.values())
    assert set(outcome.check_summary()) == CHECKS[workload]
    assert outcome.attempted > 0
    assert outcome.failed == 0
    if trace:
        assert os.path.isfile(os.path.join(work, "spans", f"{workload}-seed0.csv"))
        import ecgauth.beatmath
        import ecgauth.pipeline
        import ecgauth.qrs
        assert ecgauth.pipeline.cluster_ranks is ecgauth.beatmath.cluster_ranks
        assert not hasattr(ecgauth.qrs.QrsDetector.feed, "__wrapped__")


def test_exits_nonzero_without_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "loo_eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
