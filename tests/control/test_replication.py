"""Tests for repro.control.replication (leases, fencing, failover)."""

import pytest

from repro.core.errors import (
    ConfigurationError,
    NotLeaderError,
    QuorumError,
    ReplicationError,
)
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import OcsId
from repro.faults.events import (
    FaultKind,
    controller_target,
    network_target,
    partition_groups_param,
)
from repro.faults.injector import FaultInjector
from repro.control.replication import (
    LogEntry,
    ReplicationGroup,
    Role,
    apply_entry,
    log_digest,
    serial_replay_digest,
)


def build_manager() -> FabricManager:
    mgr = FabricManager()
    mgr.add_switch(OcsId(0), SimpleSwitch(8))
    return mgr


def make_group(lease_s: float = 1.0) -> ReplicationGroup:
    group = ReplicationGroup(
        num_replicas=3, manager_factory=build_manager, lease_s=lease_s
    )
    group.elect(0, 0.0)
    return group


RETARGET = {"op": "retarget", "changes": [[0, 0, 4]]}


class TestValidation:
    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            ReplicationGroup(num_replicas=0)
        with pytest.raises(ConfigurationError):
            ReplicationGroup(lease_s=0.0)

    def test_unknown_op_rejected(self):
        with pytest.raises(ReplicationError):
            apply_entry(build_manager(), {"op": "meltdown"})


class TestElectionAndCommit:
    def test_elect_commits_barrier_and_replicates(self):
        group = make_group()
        assert group.leader_index == 0
        assert group.nodes[0].role is Role.LEADER
        # The election barrier is committed on a quorum.
        assert group.commits == 1
        assert all(len(n.log) == 1 for n in group.nodes)

    def test_submit_replicates_and_applies_everywhere(self):
        group = make_group()
        entry = group.submit(RETARGET, 0.1, token="t1")
        assert entry.payload["op"] == "retarget"
        digests = {n.state_digest() for n in group.nodes}
        assert len(digests) == 1
        assert group.state_digest() == group.replay_digest()

    def test_token_replay_is_idempotent(self):
        group = make_group()
        first = group.submit(RETARGET, 0.1, token="t1")
        again = group.submit(RETARGET, 0.2, token="t1")
        assert again is not None and again.seq == first.seq
        assert group.commits == 2  # barrier + one real commit, no dup

    def test_standby_blocked_while_lease_live_then_wins_after_expiry(self):
        group = make_group(lease_s=1.0)
        with pytest.raises(QuorumError):
            group.elect(1, 0.5)  # replica 0's lease still looks live
        assert group.lease_refusals > 0
        epoch = group.elect(1, 2.0)  # lease lapsed everywhere
        assert group.leader_index == 1
        assert epoch > 1


class TestTokenDedupe:
    def test_retries_of_one_token_commit_once(self):
        # An isolated leader keeps every attempt in its uncommitted
        # suffix.  Retrying the token must re-ship that entry, not append
        # copies that the next election's barrier would all commit.
        group = make_group(lease_s=5.0)
        injector = FaultInjector(seed=0)
        group.attach_faults(injector)
        injector.schedule(
            1.0, FaultKind.NETWORK_PARTITION, controller_target(0),
            clear_after_s=1.0,
        )
        injector.advance_to(1.0)
        for k in range(3):
            with pytest.raises(QuorumError):
                group.submit(RETARGET, 1.1 + 0.1 * k, token="t-x")
        assert len(group.nodes[0].log) == 2  # barrier + one attempt
        injector.advance_to(2.5)
        group.elect(0, 2.5)
        retargets = [
            e for e in group.committed_entries() if e.payload["op"] == "retarget"
        ]
        assert [e.payload["token"] for e in retargets] == ["t-x"]
        # The barrier burned the token: a further retry replays it.
        again = group.submit(RETARGET, 2.6, token="t-x")
        assert again.seq == retargets[0].seq
        assert len(group.committed_entries()) == 3
        assert group.state_digest() == group.replay_digest()


class TestOpVocabulary:
    def test_adopt_and_reconfigure_ops(self):
        mgr = build_manager()
        apply_entry(mgr, {"op": "establish", "link": "a", "ocs": 0, "north": 0, "south": 4})
        apply_entry(
            mgr,
            {"op": "reconfigure", "switches": [[0, [[0, 4]], [[0, 5], [1, 6]]]]},
        )
        assert mgr.links == ()  # the moved circuit dropped its link
        apply_entry(mgr, {"op": "adopt", "link": "b", "ocs": 0, "north": 1, "south": 6})
        assert sorted(mgr.switch(OcsId(0)).state.circuits) == [(0, 5), (1, 6)]
        assert [str(link.link_id) for link in mgr.links] == ["b"]


class TestFencing:
    def deposed_leader(self, group: ReplicationGroup):
        """Partition the leader away, elect a successor, heal -- the old
        leader still believes it leads at a stale epoch."""
        injector = FaultInjector(seed=0)
        group.attach_faults(injector)
        injector.schedule(
            1.0, FaultKind.NETWORK_PARTITION, controller_target(0),
            clear_after_s=1.0,
        )
        injector.advance_to(1.1)
        group.elect(1, 2.5)  # old lease expired; 1 and 2 form a quorum
        injector.advance_to(2.6)  # heal: replica 0 is back, still "LEADER"
        return group.nodes[0]

    def test_deposed_leader_write_is_fenced_not_applied(self):
        group = make_group()
        stale = self.deposed_leader(group)
        assert stale.role is Role.LEADER and group.leader_index == 1
        before = group.commits
        with pytest.raises(QuorumError):
            group.submit_as(0, RETARGET, 2.7)
        assert group.fencing_rejections >= 2  # both peers refused the ship
        assert group.commits == before
        assert group.committed_ops_lost() == 0

    def test_divergent_suffix_truncated_on_next_ship(self):
        group = make_group()
        stale = self.deposed_leader(group)
        with pytest.raises(QuorumError):
            group.submit_as(0, RETARGET, 2.7)
        stale_len = len(stale.log)  # carries the dead uncommitted entry
        group.submit({"op": "noop"}, 2.8)  # real leader ships; 0 adopts
        assert len(stale.log) != stale_len or stale.log == group.nodes[1].log
        assert stale.log == group.nodes[1].log
        assert stale.role is Role.FOLLOWER  # learned of its successor
        assert group.state_digest() == group.replay_digest()

    def test_one_leader_per_epoch_ledger(self):
        group = make_group()
        group.submit(RETARGET, 0.1)
        group.elect(1, 2.0)
        group.submit({"op": "noop"}, 2.1)
        leaders = group.epoch_leaders()
        assert set(leaders.values()) <= {0, 1}
        for record in group.acked_commits():
            assert leaders[record.epoch] == record.leader


class TestCrashFailover:
    def test_leader_crash_triggers_outage_then_failover(self):
        group = make_group(lease_s=0.2)
        injector = FaultInjector(seed=0)
        group.attach_faults(injector)
        injector.schedule(0.5, FaultKind.CONTROLLER_CRASH, controller_target(0))
        injector.advance_to(0.6)
        with pytest.raises(NotLeaderError):
            group.submit(RETARGET, 0.6)
        group.elect(1, 0.8)  # lease (0.2 s) has lapsed
        assert group.leader_index == 1
        assert group.failover_durations_s  # the outage window closed
        assert group.unavailable_s > 0.0
        assert group.committed_ops_lost() == 0

    def test_elect_reachable_takes_the_first_electable_replica(self):
        group = make_group(lease_s=0.2)
        injector = FaultInjector(seed=0)
        group.attach_faults(injector)
        injector.schedule(0.5, FaultKind.CONTROLLER_CRASH, controller_target(0))
        injector.advance_to(0.6)
        assert group.elect_reachable(0.8)  # skips the crashed replica 0
        assert group.leader_index == 1
        injector.schedule(0.9, FaultKind.CONTROLLER_CRASH, controller_target(1))
        injector.advance_to(1.0)
        assert not group.elect_reachable(1.5)  # one live replica: no quorum
        assert group.leader_index is None

    def test_restarted_replica_catches_up_on_heartbeat(self):
        group = make_group(lease_s=0.2)
        group.submit(RETARGET, 0.1, token="t1")
        injector = FaultInjector(seed=0)
        group.attach_faults(injector)
        injector.schedule(
            0.5, FaultKind.CONTROLLER_CRASH, controller_target(2),
            clear_after_s=0.5,
        )
        injector.advance_to(0.6)
        group.submit({"op": "retarget", "changes": [[0, 1, 5]]}, 0.7)
        injector.advance_to(1.1)  # replica 2 reboots with a stale manager
        assert group.heartbeat(1.2)
        node = group.nodes[2]
        assert node.log == group.nodes[0].log
        assert node.state_digest() == group.state_digest()


class TestPartitionsAndSkew:
    def test_minority_group_cannot_elect(self):
        group = make_group(lease_s=0.2)
        injector = FaultInjector(seed=0)
        group.attach_faults(injector)
        injector.schedule(
            0.5, FaultKind.NETWORK_PARTITION, network_target("control"),
            params=(partition_groups_param([[0], [1, 2]]),),
        )
        injector.advance_to(0.6)
        with pytest.raises(QuorumError):
            group.elect(0, 1.0)  # marooned old leader: 1 grant < quorum 2
        group.elect(1, 1.0)  # the majority side elects fine
        assert group.leader_index == 1
        assert group.client_reachable(1) and not group.client_reachable(0)

    def test_clock_skew_bends_lease_liveness_not_safety(self):
        group = make_group(lease_s=1.0)
        injector = FaultInjector(seed=0)
        group.attach_faults(injector)
        injector.schedule(
            0.1, FaultKind.CLOCK_SKEW, controller_target(1), severity=5.0
        )
        injector.schedule(
            0.1, FaultKind.CLOCK_SKEW, controller_target(2), severity=5.0
        )
        injector.advance_to(0.2)
        # Replicas 1 and 2 run fast clocks, so both see the live lease
        # as expired and form an early election quorum -- a liveness
        # wobble (the unskewed replica 0 still refuses)...
        group.elect(1, 0.3)
        assert group.leader_index == 1
        # ...but commits still require a true quorum, so nothing is lost
        # and the state machines agree byte for byte.
        group.submit(RETARGET, 0.4)
        assert group.committed_ops_lost() == 0
        assert group.state_digest() == group.replay_digest()


class TestLogIdentity:
    def test_log_digest_orders_and_distinguishes(self):
        a = [LogEntry(1, 0, {"op": "noop"}), LogEntry(1, 1, RETARGET)]
        b = [LogEntry(1, 0, {"op": "noop"}), LogEntry(2, 1, RETARGET)]
        assert log_digest(a) != log_digest(b)
        assert log_digest(a) == log_digest(list(a))

    def test_serial_replay_digest_matches_incremental(self):
        group = make_group()
        for k in range(6):
            group.submit(
                {"op": "retarget", "changes": [[0, k % 4, 4 + k % 4]]}, 0.1 * k
            )
        assert (
            serial_replay_digest(build_manager, group.committed_entries())
            == group.state_digest()
        )
