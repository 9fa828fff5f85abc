"""The benchmark's workloads, timed through the program's public entry points.

Each workload splits into ``load`` (imports), ``setup`` (input generation and
construction, outside the timed region), ``call`` (one serial batch call,
the timed region) and ``check``.  ``check`` returns the failed checks,
the work done (``items``), the output digests, the simulated
``outputs`` the traced run reports, and optional ``notes`` to print.  All inputs derive from the ``seed``
argument; the program only sees the generated inputs.

:func:`install_layers` puts the per-layer wrappers of
:mod:`perfbench.tracer` on the program's public functions; only traced
runs call it.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
from typing import Dict, List, Tuple

from perfbench.tracer import Tracer

#: The §4.2.4 trace of ``benchmarks/test_bench_scheduler_utilization.py``:
#: offered load ~1.4x pod capacity, 500 jobs, both placement policies.
SCHED_JOBS = 500
SCHED_ARRIVAL_RATE_PER_S = 1 / 270.0
SCHED_MEAN_DURATION_S = 7200.0
SCHED_SIZE_MIX = {1: 0.4, 2: 0.25, 4: 0.2, 8: 0.1, 16: 0.04, 32: 0.01}
SCHED_WARMUP_S = 20_000.0
#: The paper's claim (§4.2.4): the fleet runs above 98%.  One 500-job
#: trace falls short on about one seed in six (0.956 on seed 0) because the
#: pod idles whenever the queue is empty or holds only jobs larger than the
#: free cubes; the run reports it, and checks the schedule itself against
#: :func:`reference_schedule` instead.
PAPER_UTILIZATION = 0.98

#: ``run_serve_drill(smoke=False, num_tenants=2048, streaming=True,
#: num_primaries=300_000)``: primaries at 1,200/s (3x admission capacity)
#: under the controller-crash / RPC-timeout storm.  Three times the drill's
#: default length, so that one call outweighs the process's set-up.
SERVE_PRIMARIES = 300_000
SERVE_TENANTS = 2_048
SERVE_RATE_PER_S = 1_200.0

#: Input sizes for the benchmark's own test.
TINY = {"sched_util": 120, "serve_stream": 5_000}


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every measured layer."""
    from repro.core import fabric_manager
    from repro.core.crossconnect import CrossConnectMap
    from repro.scheduler.allocator import ContiguousAllocator, ReconfigurableAllocator
    from repro.scheduler.simulator import SchedulerSimulation
    from repro.serve import service
    from repro.serve.admission import FairAdmission
    from repro.serve.queueing import BoundedPriorityQueue
    from repro.serve.sink import StreamingRecordSink
    from repro.serve.workload import ServeWorkload
    from repro.tpu.superpod import Superpod

    counts = tracer.counts

    def count_placed(result, _args):
        counts["scheduler.allocator.placed"] += result is not None

    def count_plans(plans, _args):
        counts["core.fabric_manager.plan.switches"] += len(plans)
        for plan in plans.values():
            disturbed = plan.num_disturbed
            counts["core.fabric_manager.plan.changed"] += disturbed > 0
            counts["core.reconfig.disturbed"] += disturbed
            counts["core.reconfig.planned"] += disturbed + len(plan.unchanged)

    def count_rows(rows, _args):
        counts["serve.workload.rebuild.rows"] += len(rows)

    def count_admitted(verdict, _args):
        counts["serve.admission.admitted"] += verdict[0]

    def count_shed(shed, _args):
        counts["serve.queueing.shed_count"] += shed is not None

    tracer.wrap(SchedulerSimulation, "run", "scheduler.simulation")
    for policy in (ReconfigurableAllocator, ContiguousAllocator):
        tracer.wrap(policy, "try_allocate", "scheduler.allocator.try_allocate", count_placed)
    tracer.wrap(Superpod, "configure_slice", "tpu.superpod.configure_slice")
    tracer.wrap(Superpod, "release_slice", "tpu.superpod.release_slice")
    FabricManager = fabric_manager.FabricManager
    tracer.wrap(FabricManager, "reconfigure", "core.fabric_manager.reconfigure")
    tracer.wrap(FabricManager, "plan", "core.fabric_manager.plan", count_plans)
    for method in ("establish", "teardown", "state_digest"):
        tracer.wrap(FabricManager, method, f"core.fabric_manager.{method}")
    tracer.wrap(CrossConnectMap, "from_circuits", "core.crossconnect.from_circuits")
    tracer.wrap(CrossConnectMap, "copy", "core.crossconnect.copy")
    tracer.count_calls(CrossConnectMap, "connect", "core.crossconnect.connect")
    tracer.wrap(ServeWorkload, "columns", "serve.workload.columns")
    tracer.wrap(ServeWorkload, "requests_from_columns", "serve.workload.rebuild", count_rows)
    tracer.wrap(service.FabricService, "run", "serve.service.run")
    tracer.wrap(StreamingRecordSink, "record", "serve.sink.record")
    tracer.wrap(FairAdmission, "admit", "serve.admission.admit", count_admitted)
    tracer.wrap(BoundedPriorityQueue, "push", "serve.queueing.push", count_shed)
    tracer.wrap(BoundedPriorityQueue, "pop", "serve.queueing.pop")
    tracer.wrap(service, "replay_committed", "serve.replay")


def reference_schedule(trace, pod_cubes: int, contiguous: bool) -> Tuple[float, List[float]]:
    """Re-simulate one policy on an idle, fault-free pod, independently of
    the program: FIFO with backfill, no preemption.  Any-cube placement
    takes the lowest free cube indices; contiguous placement takes the
    first run of enough adjacent free indices.  Returns the utilization
    inside the arrival window (after warm-up) and the waits in start order.
    """
    last = max(job.arrival_s for job in trace)
    events = [(job.arrival_s, 0, i, job) for i, job in enumerate(trace)]
    heapq.heapify(events)
    order = itertools.count(len(trace))
    used = [False] * pod_cubes
    held: Dict[object, List[int]] = {}
    queue: list = []
    waits: List[float] = []
    busy, busy_integral, t_prev = 0, 0.0, 0.0

    def start(job, t: float) -> bool:
        nonlocal busy
        if contiguous:
            run, cubes = 0, None
            for i, taken in enumerate(used):
                run = 0 if taken else run + 1
                if run == job.cubes:
                    cubes = list(range(i - run + 1, i + 1))
                    break
        else:
            free = [i for i, taken in enumerate(used) if not taken]
            cubes = free[: job.cubes] if len(free) >= job.cubes else None
        if cubes is None:
            return False
        for i in cubes:
            used[i] = True
        held[job.job_id] = cubes
        busy += job.cubes
        waits.append(t - job.arrival_s)
        heapq.heappush(events, (t + job.duration_s, 1, next(order), job))
        return True

    while events:
        t, departure, _, job = heapq.heappop(events)
        lo = max(min(t_prev, last), SCHED_WARMUP_S)
        hi = max(min(t, last), SCHED_WARMUP_S)
        busy_integral += busy * (hi - lo)
        t_prev = t
        if not departure:
            if not start(job, t):
                queue.append(job)
            continue
        for i in held.pop(job.job_id):
            used[i] = False
        busy -= job.cubes
        while queue and start(queue[0], t):
            queue.pop(0)
        i = 1
        while i < len(queue):
            if start(queue[i], t):
                queue.pop(i)
            else:
                i += 1
    return busy_integral / (pod_cubes * (last - SCHED_WARMUP_S)), waits


class SchedUtil:
    """§4.2.4: one 500-job trace on the reconfigurable and contiguous pods."""

    name = "sched_util"

    def load(self) -> None:
        import repro.scheduler.allocator  # noqa: F401
        import repro.scheduler.simulator  # noqa: F401

    def setup(self, seed: int, tiny: bool) -> Dict[str, object]:
        from repro.scheduler.allocator import ContiguousAllocator, ReconfigurableAllocator
        from repro.scheduler.requests import WorkloadGenerator
        from repro.scheduler.simulator import SchedulerSimulation
        from repro.tpu.superpod import Superpod

        jobs = TINY[self.name] if tiny else SCHED_JOBS
        trace = WorkloadGenerator(
            arrival_rate_per_s=SCHED_ARRIVAL_RATE_PER_S,
            mean_duration_s=SCHED_MEAN_DURATION_S,
            size_mix=SCHED_SIZE_MIX,
            seed=seed,
        ).generate(jobs)
        sims = {
            label: SchedulerSimulation(allocator, backfill=True, warmup_s=SCHED_WARMUP_S)
            for label, allocator in (
                ("reconfigurable", ReconfigurableAllocator(Superpod())),
                ("contiguous", ContiguousAllocator(Superpod())),
            )
        }
        return {"trace": trace, "sims": sims}

    def call(self, state: Dict[str, object]) -> Dict[str, object]:
        return {label: sim.run(state["trace"]) for label, sim in state["sims"].items()}

    def check(self, state: Dict[str, object], out: Dict[str, object]) -> Dict[str, object]:
        trace = state["trace"]
        rec, con = out["reconfigurable"], out["contiguous"]
        failures: List[str] = []
        for label, metrics in out.items():
            if metrics.completed != len(trace):
                failures.append(f"{label} completed {metrics.completed} of {len(trace)} jobs")
            util, waits = reference_schedule(
                trace, metrics.pod_cubes, contiguous=label == "contiguous"
            )
            if not math.isclose(metrics.utilization, util, rel_tol=1e-9) or not (
                len(waits) == len(metrics.waits_s)
                and all(
                    math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
                    for a, b in zip(waits, metrics.waits_s)
                )
            ):
                failures.append(
                    f"{label} schedule differs from the reference: utilization "
                    f"{metrics.utilization!r} vs {util!r}"
                )
        if not rec.utilization > con.utilization:
            failures.append(
                f"reconfigurable utilization {rec.utilization:.4f} <= "
                f"contiguous {con.utilization:.4f}"
            )
        holds = "holds" if rec.utilization > PAPER_UTILIZATION else "does not hold"
        return {
            "failures": failures,
            "items": sum(len(m.waits_s) for m in out.values()),
            "digests": {
                label: _digest(
                    [m.utilization, m.completed, m.busy_integral_s, m.waits_s]
                )
                for label, m in out.items()
            },
            "outputs": {
                "scheduler.sim_utilization": rec.utilization,
                "scheduler.sim_utilization_gain": rec.utilization - con.utilization,
                "scheduler.sim_mean_wait_h": rec.mean_wait_s / 3600,
            },
            "notes": [
                f"paper claim (§4.2.4) reconfigurable utilization > {PAPER_UTILIZATION} "
                f"{holds} on this trace: {rec.utilization:.4f}"
            ],
        }


class ServeStream:
    """The streaming overload drill: open loop in simulated time."""

    name = "serve_stream"

    def load(self) -> None:
        import repro.serve  # noqa: F401

    def setup(self, seed: int, tiny: bool) -> Dict[str, object]:
        from repro.faults.injector import FaultInjector
        from repro.serve.drill import build_fault_timeline, drill_config
        from repro.serve.service import FabricService
        from repro.serve.sink import StreamingRecordSink
        from repro.serve.workload import ServeWorkload

        config = drill_config(seed=seed, num_tenants=SERVE_TENANTS)
        workload = ServeWorkload(
            seed=seed, rate_per_s=SERVE_RATE_PER_S, num_tenants=config.num_tenants
        )
        cols = workload.columns(TINY[self.name] if tiny else SERVE_PRIMARIES)
        injector = FaultInjector(seed=seed)
        build_fault_timeline(injector, float(cols["t"][-1]))
        sink = StreamingRecordSink(seed=seed)
        return {
            "config": config,
            "workload": workload,
            "cols": cols,
            "injector": injector,
            "sink": sink,
            "service": FabricService(config, sink=sink),
        }

    def call(self, state: Dict[str, object]) -> Dict[str, object]:
        from repro.serve import service

        report = state["service"].run(
            state["workload"].iter_from_columns(state["cols"]), faults=state["injector"]
        )
        # Looked up on the module so that a traced run sees the wrapper.
        replay = service.replay_committed(state["config"], report.commit_log)
        return {"report": report, "replay_digest": replay}

    def check(self, state: Dict[str, object], out: Dict[str, object]) -> Dict[str, object]:
        from repro.serve.requests import Outcome

        report = out["report"]
        failures: List[str] = []
        terminal = sum(report.count(o) for o in Outcome)
        if terminal != report.offered:
            failures.append(f"{terminal} terminal outcomes for {report.offered} offered")
        if out["replay_digest"] != report.state_digest:
            failures.append(
                f"replay {out['replay_digest'][:12]} != live {report.state_digest[:12]}"
            )
        return {
            "failures": failures,
            "items": report.offered,
            "digests": {
                "outcomes": report.outcomes_digest(),
                "state": report.state_digest,
                "faults": report.faults_digest,
            },
            "outputs": {
                "serve.service.sim_p99_ms": report.latency_percentile_ms(0.99),
                "serve.service.sim_goodput": report.count(Outcome.OK) / report.offered,
                "serve.queueing.sim_shed_rate": report.shed_rate,
                "serve.service.sim_retry_amplification": report.retry_amplification,
                "serve.sink.peak_pending": state["sink"].peak_pending,
            },
        }


WORKLOADS = {w.name: w for w in (SchedUtil(), ServeStream())}
