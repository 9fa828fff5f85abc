"""Tests of the benchmark itself, at tiny input sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.metrics import PER_LAYER
from perfbench.run import ROOT, spawn
from perfbench.workloads import TINY, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-layer metrics that may read 0 on their own workload at tiny size:
#: the overhead is a difference of two wall times, and committed slice
#: releases are rare (one in the full serve drill, none in the tiny one).
MAY_BE_ZERO = {
    "trace.overhead_s",
    "core.fabric_manager.teardown.calls",
    "core.fabric_manager.teardown.busy_s",
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, lines = run_bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= (2 if trace else 3)
    assert code == (0 if result["correct"] else 1)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for spec in expected:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, spec["name"]
    if trace:
        for name, (_unit, _better, _moves, workloads) in PER_LAYER.items():
            if workload in workloads and name not in MAY_BE_ZERO:
                assert result["metrics"][name]["value"] != 0, name
        for name in SPEC["per_layer"]:
            assert any(line.startswith(name["name"] + " = ") for line in lines)


def test_sched_check_reports_the_paper_claim_without_failing_on_it():
    # 120 jobs are too few for the 98% claim; whatever the outcome, the run
    # states it and passes as long as the schedules match the reference.
    code, lines = run_bench("sched_util", 1)
    result = json.loads(lines[-1])
    util = result["metrics"]["scheduler.sim_utilization"]["value"]
    holds = "holds" if util > 0.98 else "does not hold"
    assert any(line.startswith("paper claim") and f" {holds} " in line for line in lines)
    assert result["correct"] and result["failed"] == 0 and code == 0


def test_sched_check_catches_a_schedule_that_differs_from_the_reference():
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS["sched_util"]
    state = workload.setup(1, tiny=True)
    out = workload.call(state)
    assert workload.check(state, out)["failures"] == []
    out["contiguous"].waits_s[-1] += 1.0
    failures = workload.check(state, out)["failures"]
    assert failures == [failures[0]] and "contiguous schedule differs" in failures[0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_sum_to_no_more_than_traced_wall(workload):
    traced = spawn(workload, 1, 1, tiny=True)
    self_s = [v for k, v in traced["layers"].items() if k.endswith(".self_s")]
    assert self_s and all(v >= 0 for v in self_s)
    assert sum(self_s) <= traced["traced_s"]


def test_serve_stream_times_the_streaming_drill():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.serve.drill import run_serve_drill

    workload = WORKLOADS["serve_stream"]
    state = workload.setup(3, tiny=True)
    checked = workload.check(state, workload.call(state))
    drill = run_serve_drill(
        seed=3, smoke=False, num_primaries=TINY["serve_stream"], num_tenants=2048,
        streaming=True,
    )["summary"]
    assert checked["failures"] == []
    assert checked["digests"] == {
        "outcomes": drill["outcomes_digest"],
        "state": drill["state_digest"],
        "faults": drill["faults_digest"],
    }
    assert checked["items"] == drill["offered"]


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench("sched_util", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
