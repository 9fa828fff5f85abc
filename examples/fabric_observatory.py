#!/usr/bin/env python3
"""Fabric observatory: trace and meter the whole control stack.

Runs the observed fabric drill (``repro.obs.drill``) -- provisioning,
reconfiguration, injected RPC timeouts, a rolled-back transaction, a
controller crash sweep, drift repair, flap quarantine, a loss-drift
anomaly, a fleet BER sweep, and a scheduling run -- all onto **one**
shared tracer and metrics registry, then shows the query API a NOC
would sit on top of:

1. the span tree of one recovery, transaction to replay;
2. time-range and attribute filters over the trace;
3. fleet counters reconciled against the per-switch telemetry objects;
4. the headline SLOs checked against the committed thresholds.

Run: ``python examples/fabric_observatory.py`` (finishes in seconds).
The full report is ``python -m repro.tools.noc run fabric``.
"""

from repro.analysis.tables import render_table
from repro.obs.drill import run_fabric_drill
from repro.tools.noc import compute_slos

SEED = 0


def main() -> None:
    report = run_fabric_drill(seed=SEED, smoke=True)
    tracer, registry = report.obs.tracer, report.obs.metrics

    print(f"drill: {tracer.num_spans} spans, {registry.num_series} series")
    trace_digest, metrics_digest = report.digests()
    print(f"trace digest   {trace_digest}")
    print(f"metrics digest {metrics_digest}")

    # 1. One recovery, as a tree: the WAL replay and every circuit drive.
    print("\n-- one recovery span tree --")
    recovery = tracer.find("control.recover")[0]
    print(f"{recovery.name}  {recovery.duration_ms:.1f} ms  "
          f"replayed={recovery.attr('records_replayed')}")
    for child in tracer.children(recovery):
        print(f"  {child.name}  {child.duration_ms:.1f} ms  "
              f"ocs={child.attr('ocs')} disturbed={child.attr('disturbed')}")

    # 2. Query API: spans by name, label, and time range.
    rollbacks = tracer.find("resilience.txn", rolled_back=True)
    print(f"\nrolled-back transactions: {len(rollbacks)}")
    for span in rollbacks:
        for t_ms, message in span.events:
            print(f"  [{t_ms:.1f} ms] {message}")
    early = tracer.find(t0_ms=0.0, t1_ms=100.0)
    print(f"spans overlapping the first 100 ms: {len(early)}")

    # 3. Fleet counters vs the per-switch telemetry views (same registry).
    print("\n-- fleet counters --")
    rows = []
    for name in (
        "control.recover.runs",
        "resilience.retries",
        "resilience.rollbacks",
        "reconcile.repaired_circuits",
        "ocs.loss.observations",
        "ocs.anomaly.fired",
        "faults.events.delivered",
        "scheduler.jobs.completed",
    ):
        rows.append([name, f"{registry.sum_counters(name):g}"])
    print(render_table(["counter (all labels)", "total"], rows))

    # 4. SLOs, as the NOC gate sees them.
    print("\n-- SLOs --")
    for name, value in sorted(compute_slos(report).items()):
        print(f"  {name}: {value:.4f}")

    print("\nslowest span:", tracer.slowest(1)[0].name)


if __name__ == "__main__":
    main()
