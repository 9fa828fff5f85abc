#!/usr/bin/env python3
"""Failover day: the replicated control plane riding out a partition storm.

A single SDN controller is the availability ceiling of an OCS fabric
(the paper's Orion apps; Mission Apollo's production postmortems).
This drill serves the same open-loop tenant stream as the overload
drill, but the controller is now a 3-replica group
(``repro.control.replication``) and the fault timeline is the HA
triple: every ~1.2 s one replica crashes, another is marooned behind a
network partition, and a third's clock is skewed -- while tenants keep
allocating slices and pushing traffic updates.

What to watch:

1. the breaker's open edge now triggers a **leader election** and
   request redirection instead of pure refusal;
2. epochs fence deposed leaders -- their in-flight writes die as
   counted fencing rejections, never double-applies;
3. client-acked commits survive every handoff
   (``committed_ops_lost == 0``, the hard bar);
4. the surviving leader's state digest equals a from-scratch serial
   replay of the replicated log, byte for byte.

Run: ``python examples/failover_drill.py [--seed N] [--full]
[--replicas N] [--tenants N]``
"""

import argparse

from repro.analysis.tables import render_table
from repro.serve.drill import run_failover_drill
from repro.tools.noc import scenario_slos


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="the 100k-request profile instead of the smoke one")
    parser.add_argument("--replicas", type=int, default=3,
                        help="controller group size (odd)")
    parser.add_argument("--tenants", type=int, default=None,
                        help="tenant population override")
    args = parser.parse_args()

    result = run_failover_drill(
        seed=args.seed,
        smoke=not args.full,
        num_replicas=args.replicas,
        num_tenants=args.tenants,
    )
    summary = result["summary"]

    print(f"Failover drill  seed={args.seed}  replicas={args.replicas}  "
          f"offered={summary['offered']} requests "
          f"at {summary['offered_rate_per_s']:.0f}/s "
          f"over {summary['horizon_s']:.1f}s")

    # ------------------------------------------------------------------ #
    # The HA ledger: elections, fencing, and what the client saw.
    # ------------------------------------------------------------------ #
    print("\nControl-plane failovers:")
    print(render_table(
        ["measure", "value"],
        [
            ["failovers (outage windows closed)", f"{summary['failovers']}"],
            ["elections", f"{summary['elections']}"],
            ["fencing rejections", f"{summary['fencing_rejections']}"],
            ["failover p99", f"{summary['failover_p99_s']:.3f} s"],
            ["availability", f"{summary['availability']:.3f}"],
        ],
    ))

    # ------------------------------------------------------------------ #
    # The safety invariants (the drill raises if any fails).
    # ------------------------------------------------------------------ #
    print("\nSafety invariants:")
    print(f"  committed ops lost      : {summary['committed_ops_lost']} "
          "(bar: 0, always)")
    print(f"  replay digest           : {summary['replay_digest'][:16]}... "
          "== live state")
    print(f"  ok / error / shed       : {summary['ok']} / {summary['error']} "
          f"/ {summary['shed']}")

    print("\nSLOs (as the CI gate sees them):")
    for name, value in sorted(scenario_slos("failover", summary).items()):
        print(f"  {name}: {value:.4f}")

    print("\nSame seed, same bytes: rerun with the same --seed and every "
          "number above is identical.")


if __name__ == "__main__":
    main()
