"""Tests for repro.control.journal (durable controller + crash recovery)."""

import pytest

from repro.control import CrashSchedule, DurableController, Reconciler, recover
from repro.control.journal import KIND_CHECKPOINT, KIND_OP, KIND_TXN_COMMIT
from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import (
    ConfigurationError,
    ControllerCrash,
    CrossConnectError,
    PartialTransactionError,
    PortInUseError,
    RecoveryError,
)
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import LinkId, OcsId

RADIX = 16
NUM_OCSES = 3
LINKS_PER_OCS = 4


def build_manager() -> FabricManager:
    mgr = FabricManager()
    for i in range(NUM_OCSES):
        mgr.add_switch(OcsId(i), SimpleSwitch(RADIX))
    return mgr


def seed_links(ctl: DurableController) -> None:
    for i in range(NUM_OCSES):
        for n in range(LINKS_PER_OCS):
            ctl.establish(LinkId(f"lk-{i}-{n}"), OcsId(i), n, n + 8)


def shifted_targets(mgr: FabricManager) -> dict:
    """Move every switch's first two circuits to new south ports."""
    out = {}
    for i in range(NUM_OCSES):
        sw = mgr.switch(OcsId(i))
        circuits = dict(sw.state.circuits)
        for n in sorted(circuits)[:2]:
            circuits[n] = circuits[n] + 4
        out[OcsId(i)] = CrossConnectMap.from_circuits(RADIX, circuits)
    return out


@pytest.fixture
def ctl():
    return DurableController(manager=build_manager())


class TestJournaledOps:
    def test_genesis_checkpoint_written(self, ctl):
        (record,) = ctl.wal.records()
        assert record.kind == KIND_CHECKPOINT

    def test_establish_journals_then_applies(self, ctl):
        ctl.establish(LinkId("x"), OcsId(0), 1, 9)
        kinds = [r.kind for r in ctl.wal.records()]
        assert kinds == [KIND_CHECKPOINT, KIND_OP]
        assert ctl.manager.switch(OcsId(0)).state.south_of(1) == 9

    def test_establish_validates_before_journaling(self, ctl):
        ctl.establish(LinkId("x"), OcsId(0), 1, 9)
        before = ctl.wal.byte_size
        with pytest.raises(ConfigurationError):
            ctl.establish(LinkId("x"), OcsId(1), 2, 9)  # duplicate id
        with pytest.raises(PortInUseError):
            ctl.establish(LinkId("y"), OcsId(0), 1, 10)  # busy north
        assert ctl.wal.byte_size == before  # nothing journaled

    def test_teardown_validates_before_journaling(self, ctl):
        before = ctl.wal.byte_size
        with pytest.raises(Exception):
            ctl.teardown(LinkId("ghost"))
        assert ctl.wal.byte_size == before

    def test_adopt_requires_existing_circuit(self, ctl):
        with pytest.raises(CrossConnectError):
            ctl.adopt_link(LinkId("x"), OcsId(0), 1, 9)

    def test_reconfigure_commit_marker_last(self, ctl):
        seed_links(ctl)
        ctl.reconfigure(shifted_targets(ctl.manager))
        assert ctl.wal.records()[-1].kind == KIND_TXN_COMMIT

    def test_checkpoint_compacts(self, ctl):
        seed_links(ctl)
        grown = ctl.wal.byte_size
        record = ctl.checkpoint()
        assert ctl.wal.byte_size < grown
        assert [r.seq for r in ctl.wal.records()] == [record.seq]


class TestCrashBetweenMarkerAndApply:
    def test_op_rolls_forward(self):
        """Crash exactly between the commit marker (the op record) and
        the hardware apply: recovery must roll the op forward."""
        mgr = build_manager()
        # Step 1 is the WAL append itself (frame not yet durable); step 2
        # fires after the record landed, before the hardware apply.
        crash = CrashSchedule(at_step=2)
        ctl = DurableController(manager=mgr, crash=crash)
        with pytest.raises(ControllerCrash) as exc:
            ctl.establish(LinkId("x"), OcsId(0), 1, 9)
        assert exc.value.label == "op-durable"
        assert mgr.switch(OcsId(0)).state.south_of(1) is None  # never applied
        ctl2, report = recover(mgr, ctl.wal.storage)
        assert report.open_txn == "none"
        assert mgr.switch(OcsId(0)).state.south_of(1) == 9
        assert str(ctl2.manager.link(LinkId("x")).link_id) == "x"
        assert mgr.verify_links() == ()

    def test_teardown_rolls_forward(self):
        mgr = build_manager()
        ctl = DurableController(manager=mgr)
        ctl.establish(LinkId("x"), OcsId(0), 1, 9)
        crash = CrashSchedule(at_step=2)  # after the record, before the apply
        ctl.crash = crash
        ctl.wal.crash = crash
        with pytest.raises(ControllerCrash):
            ctl.teardown(LinkId("x"))
        assert mgr.switch(OcsId(0)).state.south_of(1) == 9  # not yet applied
        _, report = recover(mgr, ctl.wal.storage)
        assert mgr.switch(OcsId(0)).state.south_of(1) is None  # rolled forward
        assert mgr.links == ()


class TestCrashSweep:
    def sweep(self):
        """Crash at every instrumented step of a 3-OCS reconfiguration."""
        mgr0 = build_manager()
        ctl0 = DurableController(manager=mgr0)
        seed_links(ctl0)
        wal_bytes = bytes(ctl0.wal.storage)
        ctl0.reconfigure(shifted_targets(mgr0))
        committed = ctl0.state_digest()

        outcomes = []
        step = 1
        while True:
            mgr = build_manager()
            storage = bytearray(wal_bytes)
            ctl, _ = recover(mgr, storage)
            crash = CrashSchedule(at_step=step)
            ctl.crash = crash
            ctl.wal.crash = crash
            try:
                ctl.reconfigure(shifted_targets(mgr))
            except ControllerCrash:
                _, report = recover(mgr, storage)
                outcomes.append((crash.fired_label, report, mgr))
                step += 1
                continue
            return committed, outcomes

    def test_every_crash_point_recovers(self):
        committed, outcomes = self.sweep()
        # txn-begin append + begin-durable + 3x(apply, append, durable)
        # + commit append + commit-durable = 13 instrumented steps.
        assert len(outcomes) == 13
        for label, report, mgr in outcomes:
            assert mgr.verify_links() == (), label
            assert Reconciler(manager=mgr, drop_orphans=False).run().converged

    def test_outcomes_deterministic(self):
        committed, outcomes = self.sweep()
        forward = {r.state_digest for _, r, _ in outcomes if r.open_txn == "rolled-forward"}
        backward = {r.state_digest for _, r, _ in outcomes if r.open_txn != "rolled-forward"}
        assert forward == {committed}
        assert len(backward) == 1
        # Only the post-commit-marker crash rolls forward.
        assert sum(1 for _, r, _ in outcomes if r.open_txn == "rolled-forward") == 1

    def test_replay_idempotent(self):
        # Two recoveries over the same media yield identical digests and
        # the second one drives no hardware at all.
        mgr0 = build_manager()
        ctl0 = DurableController(manager=mgr0)
        seed_links(ctl0)
        storage = bytearray(ctl0.wal.storage)
        mgr = build_manager()
        _, r1 = recover(mgr, storage)
        _, r2 = recover(mgr, storage)
        assert r1.state_digest == r2.state_digest
        assert r2.switches_repaired == 0
        assert r2.circuits_driven == 0


class TestTornWriteRecovery:
    def test_torn_final_frame_discarded_and_seq_reused(self):
        mgr = build_manager()
        crash = CrashSchedule(at_step=1, torn_bytes=9)
        ctl = DurableController(manager=mgr, crash=crash)
        with pytest.raises(ControllerCrash):
            ctl.establish(LinkId("x"), OcsId(0), 1, 9)
        ctl2, report = recover(mgr, ctl.wal.storage)
        assert report.tail_bytes_dropped == 9
        assert mgr.links == ()  # the torn op never committed
        # The reopened log reuses the seq the torn frame never claimed.
        link = ctl2.establish(LinkId("x"), OcsId(0), 1, 9)
        assert link.south == 9
        assert len(ctl2.wal.records(strict=True)) == 2


class TestRecoveryErrors:
    def test_unregistered_switch_rejected(self):
        mgr = build_manager()
        ctl = DurableController(manager=mgr)
        ctl.establish(LinkId("x"), OcsId(2), 1, 9)
        sparse = FabricManager()
        sparse.add_switch(OcsId(0), SimpleSwitch(RADIX))
        with pytest.raises(RecoveryError):
            recover(sparse, ctl.wal.storage)

    def test_recovery_digest_is_function_of_journal(self):
        mgr_a, mgr_b = build_manager(), build_manager()
        ctl = DurableController(manager=mgr_a)
        seed_links(ctl)
        storage = bytearray(ctl.wal.storage)
        _, ra = recover(build_manager(), bytearray(storage))
        _, rb = recover(build_manager(), bytearray(storage))
        assert ra.state_digest == rb.state_digest


class FlakySwitch(SimpleSwitch):
    """A map-only switch whose next ``apply_plan`` can be made to raise."""

    fail_next = False

    def apply_plan(self, plan):
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("injected switch fault")
        return super().apply_plan(plan)


class TestSwitchFaultMidTransaction:
    def build(self):
        mgr = FabricManager()
        for i in range(NUM_OCSES):
            mgr.add_switch(OcsId(i), FlakySwitch(RADIX))
        ctl = DurableController(manager=mgr)
        seed_links(ctl)
        return mgr, ctl

    def test_failed_switch_rolls_back_applied_switches(self):
        mgr, ctl = self.build()
        before = mgr.state_digest()
        mgr.switch(OcsId(1)).fail_next = True
        with pytest.raises(PartialTransactionError) as exc:
            ctl.reconfigure(shifted_targets(mgr))
        assert exc.value.rolled_back
        assert exc.value.applied == (OcsId(0),)
        assert exc.value.unapplied == (OcsId(1), OcsId(2))
        assert mgr.verify_links() == ()
        assert mgr.state_digest() == before
        # A recovery from the same journal agrees with the live fabric.
        _, report = recover(build_manager(), bytearray(ctl.wal.storage))
        assert report.open_txn == "rolled-back"
        assert report.state_digest == before

    def test_token_stays_spendable_after_rollback(self):
        mgr, ctl = self.build()
        mgr.switch(OcsId(2)).fail_next = True
        with pytest.raises(PartialTransactionError):
            ctl.reconfigure(shifted_targets(mgr), token="t-rc")
        ctl.reconfigure(shifted_targets(mgr), token="t-rc")
        moved = mgr.state_digest()
        _, report = recover(build_manager(), bytearray(ctl.wal.storage))
        assert report.open_txn == "rolled-forward"
        assert report.state_digest == moved

    def test_controller_crash_is_not_rolled_back(self):
        mgr, ctl = self.build()
        crash = CrashSchedule(at_step=3)  # after OCS 0 is programmed
        ctl.crash = crash
        ctl.wal.crash = crash
        with pytest.raises(ControllerCrash):
            ctl.reconfigure(shifted_targets(mgr))
        assert crash.fired_label == "txn-switch-applied"
        assert len(mgr.verify_links()) == 2  # OCS 0 stays moved until recovery
