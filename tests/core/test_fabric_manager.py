"""Tests for repro.core.fabric_manager."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import (
    ConfigurationError,
    CrossConnectError,
    PartialTransactionError,
    PortInUseError,
    TopologyError,
)
from repro.core.fabric_manager import FabricManager, LogicalLink, SimpleSwitch
from repro.core.ids import LinkId, OcsId


class FlakySwitch(SimpleSwitch):
    """A switch whose apply_plan raises on command (programming fault)."""

    def __init__(self, radix: int):
        super().__init__(radix)
        self.fail_next = False

    def apply_plan(self, plan):
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("injected programming failure")
        return super().apply_plan(plan)


@pytest.fixture
def mgr():
    m = FabricManager()
    m.add_switch(OcsId(0), SimpleSwitch(8))
    m.add_switch(OcsId(1), SimpleSwitch(8))
    return m


class TestInventory:
    def test_add_and_get(self, mgr):
        assert mgr.switch(OcsId(0)).radix == 8
        assert mgr.switch_ids == (OcsId(0), OcsId(1))

    def test_duplicate_rejected(self, mgr):
        with pytest.raises(ConfigurationError):
            mgr.add_switch(OcsId(0), SimpleSwitch(8))

    def test_unknown_switch(self, mgr):
        with pytest.raises(TopologyError):
            mgr.switch(OcsId(9))


class TestLogicalLinks:
    def test_establish_and_lookup(self, mgr):
        link = mgr.establish(LinkId("a-b"), OcsId(0), north=1, south=2)
        assert mgr.link(LinkId("a-b")) == link
        assert mgr.switch(OcsId(0)).state.south_of(1) == 2
        assert mgr.num_circuits == 1

    def test_duplicate_link_rejected(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 0)
        with pytest.raises(ConfigurationError):
            mgr.establish(LinkId("x"), OcsId(1), 0, 0)

    def test_teardown(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        mgr.teardown(LinkId("x"))
        assert mgr.num_circuits == 0
        with pytest.raises(TopologyError):
            mgr.link(LinkId("x"))

    def test_teardown_unknown(self, mgr):
        with pytest.raises(TopologyError):
            mgr.teardown(LinkId("nope"))

    def test_links_sorted(self, mgr):
        mgr.establish(LinkId("b"), OcsId(0), 0, 0)
        mgr.establish(LinkId("a"), OcsId(0), 1, 1)
        assert [str(l.link_id) for l in mgr.links] == ["a", "b"]

    def test_verify_links_clean(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        assert mgr.verify_links() == ()

    def test_verify_links_detects_missing(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        mgr.switch(OcsId(0)).state.disconnect(0)  # out-of-band break
        assert mgr.verify_links() == (LinkId("x"),)


class TestTransactions:
    def test_reconfigure_applies_targets(self, mgr):
        target = CrossConnectMap.from_circuits(8, {0: 1, 2: 3})
        duration = mgr.reconfigure({OcsId(0): target})
        assert mgr.switch(OcsId(0)).state == target
        assert duration > 0

    def test_reconfigure_parallel_duration_is_max(self, mgr):
        t0 = CrossConnectMap.from_circuits(8, {0: 1})
        t1 = CrossConnectMap.from_circuits(8, {0: 1, 2: 3})
        duration = mgr.reconfigure({OcsId(0): t0, OcsId(1): t1})
        plans = mgr.plan({OcsId(0): t0, OcsId(1): t1})
        # After application both plans are noops; duration returned earlier
        # equals the max of the individual (equal-batch) plans.
        assert all(p.is_noop for p in plans.values())
        assert duration == pytest.approx(15.0)

    def test_reconfigure_radix_mismatch_aborts(self, mgr):
        bad = CrossConnectMap(16)
        with pytest.raises(CrossConnectError):
            mgr.reconfigure({OcsId(0): bad})
        # No partial application.
        assert mgr.num_circuits == 0

    def test_reconfigure_drops_stale_links(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        target = CrossConnectMap.from_circuits(8, {1: 1})
        mgr.reconfigure({OcsId(0): target})
        with pytest.raises(TopologyError):
            mgr.link(LinkId("x"))

    def test_reconfigure_preserves_matching_links(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        target = CrossConnectMap.from_circuits(8, {0: 5, 1: 1})
        mgr.reconfigure({OcsId(0): target})
        assert mgr.link(LinkId("x")).south == 5

    def test_stats_recorded(self, mgr):
        mgr.reconfigure({OcsId(0): CrossConnectMap.from_circuits(8, {0: 1})})
        assert mgr.stats.transactions == 1
        assert mgr.stats.circuits_made == 1

    def test_snapshot_is_deep(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        snap = mgr.snapshot()
        snap[OcsId(0)].disconnect(0)
        assert mgr.switch(OcsId(0)).state.south_of(0) == 5


class TestPartialTransactionRollback:
    @pytest.fixture
    def flaky_mgr(self):
        m = FabricManager()
        for i in range(3):
            m.add_switch(OcsId(i), FlakySwitch(8))
            m.establish(LinkId(f"l{i}"), OcsId(i), 0, 4)
        return m

    def test_failure_on_second_switch_restores_first(self, flaky_mgr):
        targets = {
            OcsId(i): CrossConnectMap.from_circuits(8, {0: 5}) for i in range(3)
        }
        flaky_mgr.switch(OcsId(1)).fail_next = True
        with pytest.raises(PartialTransactionError) as exc:
            flaky_mgr.reconfigure(targets)
        err = exc.value
        assert err.ocs_id == OcsId(1)
        assert err.applied == (OcsId(0),)
        assert err.unapplied == (OcsId(1), OcsId(2))
        assert err.rolled_back
        # Every switch is back at its pre-transaction state: no partial
        # application survives, and the link table still verifies clean.
        for i in range(3):
            assert flaky_mgr.switch(OcsId(i)).state.south_of(0) == 4
        assert flaky_mgr.verify_links() == ()

    def test_failure_on_first_switch_rolls_nothing(self, flaky_mgr):
        targets = {OcsId(0): CrossConnectMap.from_circuits(8, {0: 5})}
        flaky_mgr.switch(OcsId(0)).fail_next = True
        with pytest.raises(PartialTransactionError) as exc:
            flaky_mgr.reconfigure(targets)
        assert exc.value.applied == ()
        assert exc.value.rolled_back  # vacuously restored
        assert flaky_mgr.switch(OcsId(0)).state.south_of(0) == 4

    def test_chains_original_cause(self, flaky_mgr):
        flaky_mgr.switch(OcsId(0)).fail_next = True
        with pytest.raises(PartialTransactionError) as exc:
            flaky_mgr.reconfigure({OcsId(0): CrossConnectMap.from_circuits(8, {0: 5})})
        assert isinstance(exc.value.__cause__, RuntimeError)


class TestTeardownValidatesFirst:
    def test_drifted_circuit_keeps_record(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        state = mgr.switch(OcsId(0)).state
        state.disconnect(0)
        state.connect(0, 6)  # out-of-band drift to the wrong peer
        with pytest.raises(CrossConnectError):
            mgr.teardown(LinkId("x"))
        # The record survives for the reconciler, and the wrong-peer
        # circuit was not torn down blindly.
        assert mgr.link(LinkId("x")).south == 5
        assert state.south_of(0) == 6
        assert mgr.verify_links() == (LinkId("x"),)

    def test_missing_circuit_keeps_record(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        mgr.switch(OcsId(0)).state.disconnect(0)
        with pytest.raises(CrossConnectError):
            mgr.teardown(LinkId("x"))
        assert mgr.link(LinkId("x")).south == 5


class TestDurability:
    def test_checkpoint_restore_roundtrip(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        mgr.establish(LinkId("y"), OcsId(1), 2, 3)
        snapshot = mgr.checkpoint()
        digest = mgr.state_digest()
        fresh = FabricManager()
        fresh.add_switch(OcsId(0), SimpleSwitch(8))
        fresh.add_switch(OcsId(1), SimpleSwitch(8))
        fresh.restore(snapshot)
        assert fresh.state_digest() == digest
        assert fresh.link(LinkId("y")).north == 2
        assert fresh.verify_links() == ()

    def test_restore_rejects_radix_mismatch(self, mgr):
        snapshot = mgr.checkpoint()
        bad = FabricManager()
        bad.add_switch(OcsId(0), SimpleSwitch(4))
        bad.add_switch(OcsId(1), SimpleSwitch(4))
        with pytest.raises(ConfigurationError):
            bad.restore(snapshot)

    def test_digest_tracks_links_not_just_hardware(self, mgr):
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        with_link = mgr.state_digest()
        other = FabricManager()
        other.add_switch(OcsId(0), SimpleSwitch(8))
        other.add_switch(OcsId(1), SimpleSwitch(8))
        other.switch(OcsId(0)).state.connect(0, 5)  # same circuit, no link
        assert other.state_digest() != with_link


def from_scratch_digest(mgr):
    """The digest definition, recomputed independently of the manager's
    incremental caches."""
    payload = json.dumps(mgr.checkpoint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Switch indices chosen so checkpoint key order ("0" < "10" < "2")
#: differs from numeric order; OcsId(10) is flaky and programs last.
DIGEST_SWITCHES = (0, 2, 10)
RADIX = 6

digest_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "connect", "disconnect", "clear", "retarget", "establish",
            "adopt_link", "teardown", "reconfigure", "reconfigure_fail",
            "checkpoint", "restore", "replace_links", "drop_stale_links",
            "add_switch", "digest",
        ]),
        st.sampled_from(DIGEST_SWITCHES),
        st.integers(0, RADIX - 1),
        st.integers(0, RADIX - 1),
        st.integers(0, 3),
    ),
    max_size=40,
)


class TestIncrementalDigest:
    @given(ops=digest_ops)
    @settings(max_examples=200, deadline=None)
    def test_every_mutator_keeps_digest_equal_to_from_scratch_hash(self, ops):
        mgr = FabricManager()
        for index in DIGEST_SWITCHES:
            switch = FlakySwitch(RADIX) if index == 10 else SimpleSwitch(RADIX)
            mgr.add_switch(OcsId(index), switch)
        snapshots = [mgr.checkpoint()]
        extra = 3
        assert mgr.state_digest() == from_scratch_digest(mgr)
        for op, index, north, south, k in ops:
            ocs = OcsId(index)
            state = mgr.switch(ocs).state
            link = LinkId(f"l{k}")
            try:
                if op == "connect":
                    state.connect(north, south)
                elif op == "disconnect":
                    state.disconnect(north)
                elif op == "clear":
                    state.clear()
                elif op == "retarget":
                    state.retarget(north, south)
                elif op == "establish":
                    mgr.establish(link, ocs, north, south)
                elif op == "adopt_link":
                    current = state.south_of(north)
                    target = south if current is None else current
                    mgr.adopt_link(link, ocs, north, target)
                elif op == "teardown":
                    mgr.teardown(link)
                elif op in ("reconfigure", "reconfigure_fail"):
                    targets = {}
                    for other in (ocs, OcsId(10)):
                        target = mgr.switch(other).state.copy()
                        target.retarget(north, south)
                        targets[other] = target
                    mgr.switch(OcsId(10)).fail_next = op == "reconfigure_fail"
                    mgr.reconfigure(targets)
                elif op == "checkpoint":
                    snapshots.append(mgr.checkpoint())
                elif op == "restore":
                    mgr.restore(snapshots[k % len(snapshots)])
                elif op == "replace_links":
                    kept = mgr.links[: k]
                    mgr.replace_links(
                        kept + (LogicalLink(LinkId(f"r{k}"), ocs, north, south),)
                    )
                elif op == "drop_stale_links":
                    mgr.drop_stale_links()
                elif op == "add_switch":
                    mgr.add_switch(OcsId(extra), SimpleSwitch(RADIX))
                    mgr.switch(OcsId(extra)).state.connect(north, south)
                    extra += 1
            except (ConfigurationError, CrossConnectError, PartialTransactionError,
                    TopologyError):
                pass
            finally:
                mgr.switch(OcsId(10)).fail_next = False
            assert mgr.state_digest() == from_scratch_digest(mgr)
            # A second call hits the memoized digest and must agree too.
            assert mgr.state_digest() == from_scratch_digest(mgr)

    def test_unchanged_fabric_reuses_digest_and_fragments(self):
        mgr = FabricManager()
        mgr.add_switch(OcsId(0), SimpleSwitch(8))
        mgr.add_switch(OcsId(1), SimpleSwitch(8))
        mgr.establish(LinkId("x"), OcsId(0), 0, 5)
        first = mgr.state_digest()
        fragment = mgr._switch_json[1]
        mgr.switch(OcsId(0)).state.retarget(0, 5)  # already there: no bump
        assert mgr.state_digest() is first
        mgr.switch(OcsId(0)).state.connect(1, 1)
        assert mgr.state_digest() == from_scratch_digest(mgr) != first
        assert mgr._switch_json[1] is fragment


class TestReconfigureDelta:
    """The delta entry shares reconfigure's commit and inverse-plan rollback."""

    @pytest.fixture
    def mgr(self):
        m = FabricManager()
        for i in range(3):
            m.add_switch(OcsId(i), FlakySwitch(8))
            m.establish(LinkId(f"l{i}"), OcsId(i), 0, 4)
        return m

    def test_matches_full_rebuild_reconfigure(self, mgr):
        twin = FabricManager()
        for i in range(3):
            twin.add_switch(OcsId(i), SimpleSwitch(8))
            twin.establish(LinkId(f"l{i}"), OcsId(i), 0, 4)
        deltas = {OcsId(i): ({(0, 4)}, {(0, 5), (i + 1, 1)}) for i in range(3)}
        targets = {
            OcsId(i): CrossConnectMap.from_circuits(8, {0: 5, i + 1: 1}) for i in range(3)
        }
        assert mgr.reconfigure_delta(deltas) == twin.reconfigure(targets)
        assert mgr.state_digest() == twin.state_digest()
        assert mgr.stats == twin.stats
        assert mgr.links == ()  # the l* circuits moved: stale records dropped

    def test_bad_delta_changes_nothing(self, mgr):
        digest = mgr.state_digest()
        with pytest.raises(PortInUseError):
            mgr.reconfigure_delta(
                {OcsId(0): ((), {(1, 1)}), OcsId(2): ((), {(0, 5)})}
            )
        assert mgr.state_digest() == digest
        assert mgr.stats.transactions == 0

    def test_unknown_switch_raises_before_any_change(self, mgr):
        digest = mgr.state_digest()
        with pytest.raises(TopologyError):
            mgr.reconfigure_delta({OcsId(0): ((), {(1, 1)}), OcsId(9): ((), ())})
        assert mgr.state_digest() == digest

    def test_rollback_by_inverse_plan_without_snapshots(self, mgr, monkeypatch):
        def no_copy(self):
            raise AssertionError("rollback must not snapshot switch state")

        monkeypatch.setattr(CrossConnectMap, "copy", no_copy)
        digest = mgr.state_digest()
        mgr.switch(OcsId(2)).fail_next = True
        with pytest.raises(PartialTransactionError) as exc:
            mgr.reconfigure_delta(
                {OcsId(i): ({(0, 4)}, {(0, 5), (7, 7)}) for i in range(3)}
            )
        err = exc.value
        assert err.applied == (OcsId(0), OcsId(1))
        assert err.unapplied == (OcsId(2),)
        assert err.rolled_back
        assert mgr.state_digest() == digest
        assert mgr.verify_links() == ()

    def test_undo_reports_a_switch_that_drifted(self, mgr):
        plans = mgr.plan({OcsId(0): CrossConnectMap.from_circuits(8, {0: 5})})
        mgr.apply_switch_plan(OcsId(0), plans[OcsId(0)])
        assert mgr.undo_switch_plan(OcsId(0), plans[OcsId(0)])
        mgr.apply_switch_plan(OcsId(0), plans[OcsId(0)])
        mgr.switch(OcsId(0)).state.connect(6, 6)  # out-of-band drift
        assert not mgr.undo_switch_plan(OcsId(0), plans[OcsId(0)])
