"""Golden pin of the multi-switch transaction paths.

The resilient loop (retries under injected RPC timeouts, rollback on
exhaustion) and the journaled loop (write-ahead log, crash sweep,
recovery) are driven through the chaos scenarios and the observed fabric
drill.  The values were recorded before the resilient and journaled
front ends were folded onto the fabric manager's transaction loop; every
one must reproduce exactly.
"""

import hashlib

import pytest

from repro.control import DurableController
from repro.core.crossconnect import CrossConnectMap
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import LinkId, OcsId
from repro.faults.chaos import controller_crash_recovery, correlated_hv_batch
from repro.obs.drill import run_fabric_drill

HV_BATCH_DIGESTS = {
    0: "924e1cb5e6d4e67df58de47394aeea060408d8986a559aee493e7670cbfaa306",
    1: "9112fef0eb30344360751504be01db1df7d64218fba7a39f1dd7e55118502d66",
    2: "403f0e944ce31066efe04a15fa3d0cb603438846e149a1b34f5d6f783f093143",
}
CRASH_RECOVERY_DIGESTS = {
    0: "f3b647ef2288079ea17502037fe2401894da1b3001de225d06c413583e7a6626",
    1: "c393f586f7946ef984f9c644be765895287223b3342c9d7cbdcdb9142b880e4d",
    2: "d3e5ac3fb50aa0151bc4d1982774ae375bde84871a0d4ac5deb8192b4985c6b0",
}
DRILL_DIGEST = "b8617c190811e15ca150d1000b536c0b095a7d53cd432d83b4392a79e6ad2483"
WAL_SHA256 = "b31087fb8db416f9f365dbebcdd09dbbcc2d9dee1f3aabf425b94c786c6f4a4d"


@pytest.mark.parametrize("seed", sorted(HV_BATCH_DIGESTS))
def test_correlated_hv_batch_is_pinned(seed):
    assert correlated_hv_batch(seed=seed).digest() == HV_BATCH_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(CRASH_RECOVERY_DIGESTS))
def test_controller_crash_recovery_is_pinned(seed):
    assert controller_crash_recovery(seed=seed).digest() == CRASH_RECOVERY_DIGESTS[seed]


def test_fabric_drill_is_pinned():
    # The drill's outcomes -- its crash-sweep report, phase notes,
    # reconcile report and scheduler metrics -- rather than its span and
    # metric streams, whose names and labels are observability detail.
    report = run_fabric_drill(seed=0, smoke=True)
    h = hashlib.sha256()
    h.update(report.chaos.digest().encode("utf-8"))
    for key in sorted(report.notes):
        h.update(f"{key}={report.notes[key]!r}\n".encode("utf-8"))
    h.update(repr(report.reconcile).encode("utf-8"))
    h.update(repr(report.scheduler).encode("utf-8"))
    assert h.hexdigest() == DRILL_DIGEST


def test_journaled_reconfigure_wal_bytes_are_pinned():
    radix = 16
    mgr = FabricManager()
    for i in range(3):
        mgr.add_switch(OcsId(i), SimpleSwitch(radix))
    ctl = DurableController(manager=mgr)
    for i in range(3):
        for n in range(4):
            ctl.establish(LinkId(f"lk-{i}-{n}"), OcsId(i), n, n + 8)
    targets = {}
    for i in range(3):
        circuits = dict(mgr.switch(OcsId(i)).state.circuits)
        for n in sorted(circuits)[:2]:
            circuits[n] += 4
        targets[OcsId(i)] = CrossConnectMap.from_circuits(radix, circuits)
    ctl.reconfigure(targets, token="t-pin")
    assert hashlib.sha256(bytes(ctl.wal.storage)).hexdigest() == WAL_SHA256
