"""Acceptance tests for the overload-burst serving drill.

These pin the ISSUE's acceptance bar: deterministic shedding under a
3x-capacity burst with a controller-crash + RPC-timeout storm, serve
SLOs within the committed thresholds, retry amplification within the
provable cap, and replay equivalence of the commit log.
"""

import json
from pathlib import Path

import pytest

from repro.faults.injector import FaultInjector
from repro.serve.drill import build_fault_timeline, report_records, run_serve_drill
from repro.serve.requests import Outcome
from repro.tools.noc import scenario_slos

THRESHOLDS = json.loads(
    (Path(__file__).resolve().parents[2] / "benchmarks" / "slo_thresholds.json")
    .read_text()
)


@pytest.fixture(scope="module")
def drill():
    return run_serve_drill(seed=0, smoke=True)


class TestAcceptance:
    def test_overload_is_real(self, drill):
        summary = drill["summary"]
        # The workload offers ~3x the admission capacity: a healthy
        # chunk must be refused or shed, and faults must actually bite.
        assert summary["rejected"] > 0
        assert summary["shed"] > 0
        assert summary["breaker_trips"] > 0
        assert summary["recoveries"] > 0
        assert summary["offered_rate_per_s"] > 1_000.0

    def test_partition_of_offered_load(self, drill):
        s = drill["summary"]
        assert (
            s["ok"] + s["rejected"] + s["shed"] + s["timeout"] + s["error"]
            == s["offered"]
        )
        assert s["admitted"] == s["ok"] + s["timeout"] + s["error"]

    def test_slos_within_committed_thresholds(self, drill):
        slos = scenario_slos("serve", drill["summary"])
        for name, value in slos.items():
            assert value <= THRESHOLDS[name], f"{name}: {value} > {THRESHOLDS[name]}"

    def test_retry_amplification_within_provable_cap(self, drill):
        report = drill["report"]
        cap = 1.0 + report.config.retry_ratio
        assert report.downstream_attempts <= cap * report.deposits
        assert drill["summary"]["serve_retry_amplification"] <= cap

    def test_replay_digest_matches_live_state(self, drill):
        s = drill["summary"]
        assert s["replay_digest"] == s["state_digest"]

    def test_same_seed_identical_run(self, drill):
        again = run_serve_drill(seed=0, smoke=True)["summary"]
        assert again == drill["summary"]

    def test_different_seed_different_outcomes(self, drill):
        other = run_serve_drill(seed=1, smoke=True)["summary"]
        assert other["outcomes_digest"] != drill["summary"]["outcomes_digest"]

    def test_jsonl_artifact_covers_every_request(self, drill):
        records = report_records(drill["report"])
        assert len(records) == drill["summary"]["offered"]
        for row in records[:50]:
            assert row["outcome"] in {o.value for o in Outcome}
            assert row["finish_s"] >= row["arrival_s"] >= 0.0

    def test_fault_timeline_is_seed_stable(self):
        def digest(seed):
            injector = FaultInjector(seed=seed)
            build_fault_timeline(injector, horizon_s=4.0)
            injector.advance_to(10.0)
            return injector.delivered_digest()

        assert digest(3) == digest(3)
