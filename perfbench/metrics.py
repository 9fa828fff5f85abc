"""The benchmark's metric tables and the per-layer metrics of a traced call.

``END_TO_END`` come from untraced runs only; ``PER_LAYER`` from the traced
run only.  Every workload emits every metric of its table (a layer a
workload never enters reads 0).  Each per-layer metric names the
end-to-end metric and workload(s) it should move -- the prediction a perf
change is held to.
"""

from __future__ import annotations

from typing import Dict, Tuple

from perfbench.tracer import Tracer, percentile_ms

#: name -> (unit, better, what it is).
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "setup_s": (
        "s", "lower",
        "process start to the first timed call: imports, input generation, construction",
    ),
    "items_per_s": (
        "1/s", "higher",
        "jobs placed by both policies (sched_util) or offered requests "
        "(serve_stream) simulated per host second",
    ),
    "peak_rss_mb": ("MB", "lower", "high-water resident set size of the run's own process"),
}

#: Aliases printed beside ``items_per_s`` so that each workload's number
#: reads under its own name.
ITEMS_ALIAS = {"sched_util": "jobs_per_s", "serve_stream": "requests_per_s"}

S, SV = "sched_util", "serve_stream"
ITEMS, SETUP, RSS = "items_per_s", "setup_s", "peak_rss_mb"

#: name -> (unit, better, end-to-end metric it should move, workloads).
PER_LAYER: Dict[str, Tuple[str, str, str, Tuple[str, ...]]] = {
    "scheduler.simulation.self_s": ("s", "lower", ITEMS, (S,)),
    "scheduler.allocator.try_allocate.calls": ("count", "lower", ITEMS, (S,)),
    "scheduler.allocator.placed_ratio": ("ratio", "higher", ITEMS, (S,)),
    "tpu.superpod.configure_slice.calls": ("count", "lower", ITEMS, (S,)),
    "tpu.superpod.configure_slice.busy_s": ("s", "lower", ITEMS, (S,)),
    "tpu.superpod.configure_slice.self_s": ("s", "lower", ITEMS, (S,)),
    "tpu.superpod.configure_slice.p50_ms": ("ms", "lower", ITEMS, (S,)),
    "tpu.superpod.configure_slice.p99_ms": ("ms", "lower", ITEMS, (S,)),
    "tpu.superpod.release_slice.calls": ("count", "lower", ITEMS, (S,)),
    "tpu.superpod.release_slice.busy_s": ("s", "lower", ITEMS, (S,)),
    "tpu.superpod.release_slice.p99_ms": ("ms", "lower", ITEMS, (S,)),
    "core.fabric_manager.reconfigure.calls": ("count", "lower", ITEMS, (S,)),
    "core.fabric_manager.reconfigure.busy_s": ("s", "lower", ITEMS, (S,)),
    "core.fabric_manager.reconfigure.self_s": ("s", "lower", ITEMS, (S,)),
    "core.fabric_manager.plan.busy_s": ("s", "lower", ITEMS, (S,)),
    "core.fabric_manager.plan.switches_per_call": ("count", "lower", ITEMS, (S,)),
    "core.fabric_manager.changed_switch_ratio": ("ratio", "higher", ITEMS, (S,)),
    "core.reconfig.disturbed_circuit_ratio": ("ratio", "higher", ITEMS, (S,)),
    "core.crossconnect.from_circuits.calls": ("count", "lower", ITEMS, (S,)),
    "core.crossconnect.from_circuits.busy_s": ("s", "lower", ITEMS, (S,)),
    "core.crossconnect.copy.calls": ("count", "lower", ITEMS, (S,)),
    "core.crossconnect.copy.busy_s": ("s", "lower", ITEMS, (S,)),
    "core.crossconnect.connect.calls": ("count", "lower", ITEMS, (S,)),
    "core.fabric_manager.establish.calls": ("count", "lower", ITEMS, (SV,)),
    "core.fabric_manager.establish.busy_s": ("s", "lower", ITEMS, (SV,)),
    "core.fabric_manager.teardown.calls": ("count", "lower", ITEMS, (SV,)),
    "core.fabric_manager.teardown.busy_s": ("s", "lower", ITEMS, (SV,)),
    "core.fabric_manager.state_digest.calls": ("count", "lower", ITEMS, (SV,)),
    "core.fabric_manager.state_digest.busy_s": ("s", "lower", ITEMS, (SV,)),
    "serve.workload.columns_s": ("s", "lower", SETUP, (SV,)),
    "serve.workload.rebuild.rows": ("count", "lower", ITEMS, (SV,)),
    "serve.workload.rebuild.busy_s": ("s", "lower", ITEMS, (SV,)),
    "serve.service.run.self_s": ("s", "lower", ITEMS, (SV,)),
    "serve.sink.record.calls": ("count", "lower", ITEMS, (SV,)),
    "serve.sink.record.busy_s": ("s", "lower", ITEMS, (SV,)),
    "serve.sink.peak_pending": ("count", "lower", RSS, (SV,)),
    "serve.admission.admit.calls": ("count", "lower", ITEMS, (SV,)),
    "serve.admission.admit.busy_s": ("s", "lower", ITEMS, (SV,)),
    "serve.admission.admit.admit_ratio": ("ratio", "higher", ITEMS, (SV,)),
    "serve.queueing.push.calls": ("count", "lower", ITEMS, (SV,)),
    "serve.queueing.push.busy_s": ("s", "lower", ITEMS, (SV,)),
    "serve.queueing.pop.calls": ("count", "lower", ITEMS, (SV,)),
    "serve.queueing.pop.busy_s": ("s", "lower", ITEMS, (SV,)),
    "serve.queueing.shed_count": ("count", "lower", ITEMS, (SV,)),
    "serve.replay.busy_s": ("s", "lower", ITEMS, (SV,)),
    "setup.import_s": ("s", "lower", SETUP, (S, SV)),
    "trace.overhead_s": ("s", "lower", ITEMS, (S, SV)),
    # Simulated outcomes: a change that only speeds up the simulator must
    # leave these bit-identical for a given seed.
    "scheduler.sim_utilization": ("ratio", "higher", ITEMS, (S,)),
    "scheduler.sim_utilization_gain": ("ratio", "higher", ITEMS, (S,)),
    "scheduler.sim_mean_wait_h": ("h", "lower", ITEMS, (S,)),
    "serve.service.sim_p99_ms": ("ms", "lower", ITEMS, (SV,)),
    "serve.service.sim_goodput": ("ratio", "higher", ITEMS, (SV,)),
    "serve.queueing.sim_shed_rate": ("ratio", "lower", ITEMS, (SV,)),
    "serve.service.sim_retry_amplification": ("ratio", "lower", ITEMS, (SV,)),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outputs: Dict[str, float], import_s: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` value except ``trace.overhead_s``, which needs
    the untraced run too."""
    values: Dict[str, float] = {"setup.import_s": import_s}
    for name, entry in tracer.by_name().items():
        durations = entry["durations_s"]
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.busy_s"] = entry["busy_s"]
        values[f"{name}.self_s"] = entry["self_s"]
        values[f"{name}.p50_ms"] = percentile_ms(durations, 0.50)
        values[f"{name}.p99_ms"] = percentile_ms(durations, 0.99)
    counts = tracer.counts
    values.update(counts)
    plans = values.get("core.fabric_manager.plan.calls", 0)
    values.update(
        {
            "scheduler.allocator.placed_ratio": _ratio(
                counts["scheduler.allocator.placed"],
                values.get("scheduler.allocator.try_allocate.calls", 0),
            ),
            "core.fabric_manager.plan.switches_per_call": _ratio(
                counts["core.fabric_manager.plan.switches"], plans
            ),
            "core.fabric_manager.changed_switch_ratio": _ratio(
                counts["core.fabric_manager.plan.changed"],
                counts["core.fabric_manager.plan.switches"],
            ),
            "core.reconfig.disturbed_circuit_ratio": _ratio(
                counts["core.reconfig.disturbed"], counts["core.reconfig.planned"]
            ),
            "serve.workload.columns_s": values.get("serve.workload.columns.busy_s", 0.0),
            "serve.admission.admit.admit_ratio": _ratio(
                counts["serve.admission.admitted"],
                values.get("serve.admission.admit.calls", 0),
            ),
        }
    )
    values.update(outputs)
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER if name != "trace.overhead_s"}
