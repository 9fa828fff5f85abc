#!/usr/bin/env python3
"""Controller crash drill: kill the fabric manager at every WAL offset.

Walks the durable control plane end-to-end (§3.2.2's management-plane
investment, made runnable):

1. build a 3-OCS fabric, journal a dozen links through the
   write-ahead-logged ``DurableController``, and reconfigure;
2. crash the controller at *every* instrumented step of the multi-OCS
   transaction (``CrashSchedule``), including a torn final write;
3. recover each crash from the journal alone — committed transactions
   roll forward, uncommitted ones roll back, both byte-deterministically;
4. run the anti-entropy ``Reconciler`` to prove intent and hardware
   agree, then print the per-crash-point outcome table;
5. demo the fleet health watchdog: a flapping transceiver is damped,
   quarantined onto a spare, and released after the hold-down.

Run: ``python examples/controller_crash_drill.py`` (finishes in seconds).
CI gates the same sweep through ``python -m repro.tools.noc run chaos``,
whose ``chaos_crash_*`` SLOs fail on any unrecovered crash.
"""

from repro.analysis.tables import render_table
from repro.control import CrashSchedule, DurableController, Reconciler, recover
from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import ControllerCrash
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import LinkId, OcsId
from repro.faults.chaos import controller_crash_recovery, rolling_transceiver_flaps

RADIX = 16
NUM_OCSES = 3
LINKS_PER_OCS = 4


def build_manager() -> FabricManager:
    mgr = FabricManager()
    for i in range(NUM_OCSES):
        mgr.add_switch(OcsId(i), SimpleSwitch(RADIX))
    return mgr


def shifted_targets(mgr: FabricManager) -> dict:
    out = {}
    for i in range(NUM_OCSES):
        circuits = dict(mgr.switch(OcsId(i)).state.circuits)
        for n in sorted(circuits)[:2]:
            circuits[n] = circuits[n] + 4
        out[OcsId(i)] = CrossConnectMap.from_circuits(RADIX, circuits)
    return out


def main() -> None:
    # -- straight-line run: the committed state every crash must reach --
    mgr0 = build_manager()
    ctl0 = DurableController(manager=mgr0)
    for i in range(NUM_OCSES):
        for n in range(LINKS_PER_OCS):
            ctl0.establish(LinkId(f"lk-{i}-{n}"), OcsId(i), n, n + 8)
    wal_bytes = bytes(ctl0.wal.storage)
    ctl0.reconfigure(shifted_targets(mgr0))
    committed = ctl0.state_digest()
    print(f"journal after setup: {len(wal_bytes)} bytes")
    print(f"committed state digest: {committed[:16]}…")

    # -- crash sweep: one controller death per instrumented step --
    rows = []
    step = 1
    while True:
        mgr = build_manager()
        storage = bytearray(wal_bytes)
        ctl, _ = recover(mgr, storage)
        crash = CrashSchedule(at_step=step, torn_bytes=9 if step == 1 else 0)
        ctl.crash = crash
        ctl.wal.crash = crash
        try:
            ctl.reconfigure(shifted_targets(mgr))
        except ControllerCrash:
            _, report = recover(mgr, storage)
            clean = mgr.verify_links() == ()
            converged = Reconciler(manager=mgr, drop_orphans=False).run().converged
            rows.append(
                [
                    str(step),
                    crash.fired_label,
                    report.open_txn,
                    str(report.tail_bytes_dropped),
                    "yes" if clean and converged else "NO",
                    report.state_digest[:12] + "…",
                ]
            )
            step += 1
            continue
        break

    print(f"\nCrash sweep: {len(rows)} crash points, all recovered:\n")
    print(
        render_table(
            ["step", "crash point", "open txn", "torn B", "verified", "digest"],
            rows,
        )
    )
    forward = {r[5] for r in rows if r[2] == "rolled-forward"}
    backward = {r[5] for r in rows if r[2] != "rolled-forward"}
    print(f"\nrolled-forward digests: {sorted(forward)} (== committed prefix:"
          f" {committed[:12] + '…' in forward})")
    print(f"rolled-back digests:    {sorted(backward)} (single outcome:"
          f" {len(backward) == 1})")

    # -- the same sweep as a registered chaos scenario --
    report = controller_crash_recovery(seed=0)
    print("\ncontroller_crash_recovery scenario metrics:")
    for k, v in sorted(report.metrics.items()):
        print(f"  {k:26s} {v:g}")

    # -- flap damping: quarantine the noisy circuit, spare the rest --
    damped = rolling_transceiver_flaps(
        seed=2, num_links=4, horizon_s=300.0, damping=True, spares=1
    )
    print("\nrolling_transceiver_flaps --damping metrics:")
    for k, v in sorted(damped.metrics.items()):
        print(f"  {k:26s} {v:g}")
    print(f"\nreport digests: crash {report.digest()[:16]}… "
          f"damped-flaps {damped.digest()[:16]}…")


if __name__ == "__main__":
    main()
