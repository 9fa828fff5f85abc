"""Property: the WAL speaks the one op vocabulary of the control plane.

Random establish / adopt / teardown / reconfigure sequences run through
a :class:`DurableController` that crashes at a random instrumented step.
Whatever the crash left behind, :func:`recover` must land on exactly the
state a fresh manager reaches by restoring the genesis checkpoint and
applying :func:`apply_entry` to the committed op records in order: each
``op`` record, and each ``txn-begin`` op whose ``txn-commit`` landed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import CrashSchedule, DurableController, apply_entry, recover
from repro.control.journal import (
    KIND_CHECKPOINT,
    KIND_OP,
    KIND_TXN_BEGIN,
    KIND_TXN_COMMIT,
)
from repro.control.wal import WriteAheadLog
from repro.core.errors import ControllerCrash
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import LinkId, OcsId

RADIX = 8
NUM_OCSES = 3

ops = st.lists(
    st.tuples(
        st.sampled_from(["establish", "adopt", "teardown", "reconfigure"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ),
    min_size=1,
    max_size=14,
)


def build_manager() -> FabricManager:
    mgr = FabricManager()
    for i in range(NUM_OCSES):
        mgr.add_switch(OcsId(i), SimpleSwitch(RADIX))
    return mgr


def run_op(ctl: DurableController, k: int, op, a: int, b: int, tokened: bool) -> None:
    """Interpret one drawn op against the live state (skip if it has no
    valid reading, so every journaled op is one the controller accepts)."""
    mgr = ctl.manager
    token = f"tok-{k}" if tokened else None
    ocs = OcsId(a % NUM_OCSES)
    state = mgr.switch(ocs).state
    linked = {(link.ocs, link.north) for link in mgr.links}
    if op == "establish":
        norths, souths = sorted(state.free_north), sorted(state.free_south)
        if norths and souths:
            ctl.establish(
                LinkId(f"lk-{k}"), ocs, norths[a % len(norths)],
                souths[b % len(souths)], token=token,
            )
    elif op == "adopt":
        bare = sorted(c for c in state.circuits if (ocs, c[0]) not in linked)
        if bare:
            north, south = bare[b % len(bare)]
            ctl.adopt_link(LinkId(f"ad-{k}"), ocs, north, south, token=token)
    elif op == "teardown":
        links = mgr.links
        if links:
            ctl.teardown(links[b % len(links)].link_id, token=token)
    else:
        # Move one circuit per switch to a free south port, drop one on
        # another, add one on a third: breaks and makes on every switch.
        targets = {}
        for i in range(NUM_OCSES):
            target = mgr.switch(OcsId(i)).state.copy()
            circuits = sorted(target.circuits)
            mode = (a + b + i) % 3
            if mode == 0 and circuits and target.free_south:
                north, _ = circuits[b % len(circuits)]
                target.retarget(north, sorted(target.free_south)[a % len(target.free_south)])
            elif mode == 1 and circuits:
                target.disconnect(circuits[a % len(circuits)][0])
            elif target.free_north and target.free_south:
                target.connect(min(target.free_north), max(target.free_south))
            targets[OcsId(i)] = target
        ctl.reconfigure(targets, token=token)


def committed_replay_digest(storage: bytearray) -> str:
    wal = WriteAheadLog(bytearray(storage))
    wal.repair_tail()
    genesis, *records = wal.records(strict=True)
    assert genesis.kind == KIND_CHECKPOINT
    manager = build_manager()
    manager.restore(genesis.payload)
    pending = None
    for record in records:
        if record.kind == KIND_OP:
            apply_entry(manager, record.payload)
        elif record.kind == KIND_TXN_BEGIN:
            pending = record.payload
        elif record.kind == KIND_TXN_COMMIT:
            apply_entry(manager, pending)
            pending = None
    return manager.state_digest()


@settings(max_examples=60, deadline=None)
@given(
    sequence=ops,
    crash_step=st.integers(min_value=1, max_value=60),
    torn_bytes=st.sampled_from([0, 0, 7]),
)
def test_recovery_equals_apply_entry_over_committed_ops(sequence, crash_step, torn_bytes):
    mgr = build_manager()
    crash = CrashSchedule(at_step=crash_step, torn_bytes=torn_bytes)
    ctl = DurableController(manager=mgr, crash=crash)
    try:
        for k, (op, a, b, tokened) in enumerate(sequence):
            run_op(ctl, k, op, a, b, tokened)
    except ControllerCrash:
        pass
    storage = ctl.wal.storage
    _, report = recover(mgr, storage)
    assert report.state_digest == committed_replay_digest(storage)
    assert mgr.verify_links() == ()
