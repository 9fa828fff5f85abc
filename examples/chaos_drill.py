#!/usr/bin/env python3
"""Chaos drill: inject the paper's failure modes and watch the fabric cope.

Runs the six ``repro.faults.chaos`` scenarios end-to-end:

1. ``single_ocs_loss`` -- one OCS down in a 4096-chip superpod; the
   degraded-routing step-time hit is cross-checked against the analytic
   model (§4.2.2) and the long-run Monte-Carlo availability against the
   Fig 15 renewal analytic;
2. ``correlated_hv_batch`` -- an HV driver board FRU dies on several
   OCSes at once (§3.2.1); resilient transactions retry through injected
   control-plane RPC timeouts to restore every circuit;
3. ``rolling_transceiver_flaps`` -- a rolling wave of transceiver flaps
   and the time-weighted link availability it costs;
4. ``repair_race`` -- fiber pinches racing the telemetry repair loop
   until the spare pool runs dry and ``CapacityError`` surfaces;
5. ``controller_crash_recovery`` -- the durable controller killed at
   every WAL offset of a reconfiguration, recovered and reconciled;
6. ``partition_failover`` -- the replicated control plane under a
   rolling crash / partition / clock-skew storm.

Every run is a pure function of the seed: the report digests printed at
the end are byte-stable and guard the determinism tests.

Run: ``python examples/chaos_drill.py`` (full single-OCS horizon), or
``python examples/chaos_drill.py --smoke`` for the <30s CI drill.  The
gated form of the same run is ``python -m repro.tools.noc run chaos``.
"""

import argparse

from repro.analysis.tables import render_table
from repro.faults.chaos import run_chaos_drill


def describe(report) -> None:
    print(f"\n=== {report.scenario} (seed {report.seed}) ===")
    rows = [[k, f"{v:.6g}"] for k, v in sorted(report.metrics.items())]
    rows.append(["mean goodput", f"{report.mean_goodput():.4f}"])
    print(render_table(["metric", "value"], rows))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="short horizons (CI-sized, <30s)"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    reports = run_chaos_drill(seed=args.seed, smoke=args.smoke)["reports"]
    for name in sorted(reports):
        describe(reports[name])

    single = reports["single_ocs_loss"].metrics
    print("\nCross-checks (single_ocs_loss):")
    print(
        f"  step-time hit: chaos {single['step_hit_chaos']:.4%} vs "
        f"analytic {single['step_hit_analytic']:.4%} "
        f"(rel err {single['step_hit_rel_error']:.2%})"
    )
    print(
        f"  availability:  MC {single['availability_mc']:.4%} vs "
        f"Fig 15 analytic {single['availability_analytic']:.4%} "
        f"(abs err {single['availability_abs_error']:.4f})"
    )

    print("\nReport digests (seed-stable):")
    for name in sorted(reports):
        print(f"  {name:26s} {reports[name].digest()[:16]}…")


if __name__ == "__main__":
    main()
