"""Acceptance tests for the replicated-controller failover drill.

These pin the PR's acceptance bar: the serving layer keeps admitting
through leader handoffs under a rolling crash / partition / clock-skew
storm, the breaker's open edge triggers elections instead of pure
refusal, no client-acked commit is ever lost, replay equivalence holds
on both the serve commit log and the replicated log, and the failover
SLOs sit within the committed thresholds.
"""

import json
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.faults.events import FaultKind, controller_target
from repro.faults.injector import FaultInjector
from repro.serve.drill import build_failover_timeline, run_failover_drill
from repro.serve.requests import Outcome, RequestKind, TenantRequest
from repro.serve.service import FabricService, ServeConfig, replay_committed
from repro.tools.noc import scenario_slos

THRESHOLDS = json.loads(
    (Path(__file__).resolve().parents[2] / "benchmarks" / "slo_thresholds.json")
    .read_text()
)


@pytest.fixture(scope="module")
def drill():
    return run_failover_drill(seed=0, smoke=True)


class TestConfig:
    def test_even_replica_group_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(num_controller_replicas=2)
        with pytest.raises(ConfigurationError):
            ServeConfig(num_controller_replicas=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(num_controller_replicas=3, replica_lease_s=0.0)

    def test_default_is_single_controller(self):
        service = FabricService(ServeConfig(seed=0))
        assert service.replication is None
        assert service.controller is not None

    def test_replicated_mode_routes_manager_to_leader(self):
        service = FabricService(ServeConfig(seed=0, num_controller_replicas=3))
        assert service.controller is None
        group = service.replication
        assert group is not None and group.leader_index == 0
        assert service.manager is group.live_manager()


class TestAcceptance:
    def test_storm_forces_real_failovers(self, drill):
        summary = drill["summary"]
        assert summary["failovers"] >= 1
        assert summary["elections"] >= 2
        assert summary["failover_unavailable_s"] > 0.0

    def test_no_committed_op_lost(self, drill):
        # The drill itself raises on loss; the summary pins the zero.
        assert drill["summary"]["committed_ops_lost"] == 0

    def test_service_still_serves_through_handoffs(self, drill):
        summary = drill["summary"]
        assert summary["ok"] > 0.25 * summary["offered"]
        assert summary["availability"] > 0.5

    def test_slos_within_committed_thresholds(self, drill):
        slos = scenario_slos("failover", drill["summary"])
        for name, value in slos.items():
            assert value <= THRESHOLDS[name], (name, value)

    def test_replay_equivalence_on_both_logs(self, drill):
        summary = drill["summary"]
        assert summary["replay_digest"] == summary["state_digest"]

    def test_same_seed_identical_run(self, drill):
        again = run_failover_drill(seed=0, smoke=True)
        assert again["summary"] == drill["summary"]

    def test_different_seed_different_outcomes(self, drill):
        other = run_failover_drill(seed=1, smoke=True)
        assert other["summary"]["outcomes_digest"] != (
            drill["summary"]["outcomes_digest"]
        )

    def test_summary_only_reports_failover_keys_when_replicated(self, drill):
        from repro.serve.drill import run_serve_drill

        single = run_serve_drill(seed=0, smoke=True)["summary"]
        assert "failovers" not in single
        assert "failover_p99_s" in drill["summary"]


class TestTimeline:
    def test_failover_timeline_is_deterministic(self):
        def schedule():
            injector = FaultInjector(seed=0)
            build_failover_timeline(injector, horizon_s=3.0)
            return injector.pending_digest()

        assert schedule() == schedule()

    def test_rotates_all_three_failure_modes(self):
        injector = FaultInjector(seed=0)
        build_failover_timeline(injector, horizon_s=4.0)
        kinds = {e.kind.value for e in injector.pending_events()}
        assert {"controller-crash", "network-partition", "clock-skew"} <= kinds


class TestLateCommits:
    def test_establish_committed_by_later_election_is_compensated(self):
        # All 4 establish attempts for rq-006422 miss their quorum, so the
        # request ends ERROR; a later election's barrier still commits its
        # entry.  The commit log projects the replicated log, so the late
        # establish is in it, counted, and undone by a compensating
        # teardown -- and the serial replay matches the live state.
        out = run_failover_drill(seed=0, smoke=False, num_primaries=10_000)
        summary, report = out["summary"], out["report"]
        assert summary["replay_digest"] == summary["state_digest"]
        assert summary["late_commits"] >= 1
        assert "rq-006422" in report.late_commits
        undo = [e for e in report.commit_log if e.request_id == "undo-rq-006422"]
        assert [e.payload["op"] for e in undo] == ["teardown"]
        assert undo[0].payload["link"] == "sl-rq-006422"
        outcome = {r.request.request_id: r.outcome for r in report.records}
        assert outcome["rq-006422"] is Outcome.ERROR

    def test_late_establish_and_teardown_resolve_one_fixed_way(self):
        # Both followers are down from 0.2 s to 1.2 s: the leader keeps
        # serving, but every commit misses its quorum, so the second
        # alloc and the release end ERROR with their entries in the
        # leader's log.  The traffic update after the followers return
        # commits them along with its own entry.
        config = ServeConfig(
            seed=0, num_controller_replicas=3, num_tenants=16,
            num_traffic_ocses=2, allocator_cubes=8,
        )

        def request(i, kind, t, **params):
            return TenantRequest(
                f"rq-{i:06d}", "t-001", kind, t, t + 5.0,
                params=tuple(params.items()), seq=i,
            )

        requests = [
            request(0, RequestKind.SLICE_ALLOC, 0.01, cubes=2),
            request(1, RequestKind.SLICE_ALLOC, 0.25, cubes=2),
            request(2, RequestKind.SLICE_RELEASE, 0.30, slice="rq-000000"),
            request(3, RequestKind.TRAFFIC_UPDATE, 1.50, bank=1),
        ]
        injector = FaultInjector(seed=0)
        for i in (1, 2):
            injector.schedule(
                0.2, FaultKind.CONTROLLER_CRASH, controller_target(i),
                clear_after_s=1.0,
            )
        service = FabricService(config)
        report = service.run(requests, faults=injector)
        outcome = {r.request.request_id: r.outcome for r in report.records}
        assert outcome == {
            "rq-000000": Outcome.OK, "rq-000001": Outcome.ERROR,
            "rq-000002": Outcome.ERROR, "rq-000003": Outcome.OK,
        }
        assert report.late_commits == ("rq-000001", "rq-000002")
        assert [e.request_id for e in report.commit_log] == [
            "rq-000000", "rq-000001", "rq-000002", "rq-000003",
            "undo-rq-000001",
        ]
        # The late establish is undone and the late release stands: no
        # slice link is left and every cube is free again.
        assert service.manager.links == ()
        assert service._allocs == {}
        assert len(service.allocator.pod.healthy_free_cubes()) == 8
        assert replay_committed(config, report.commit_log) == report.state_digest
        group = service.replication
        assert group.state_digest() == group.replay_digest()
