"""The fast serving path is a bit-exact twin of ``run_reference``.

``FabricService.run`` (indexed event calendar, delta commit plane,
streaming sink) is a rebuild of the serving loop, with the old loop kept
as ``run_reference``.  These tests pin the equivalence the rebuild
claims:

- for *any* injected fault timeline, the fast path and the reference
  produce identical outcome digests, state digests, commit logs, and
  summaries (Hypothesis property);
- the same equality holds at 10k-request / 2,048-tenant drill scale;
- the streaming sink's reorder window stays bounded by in-flight work
  (the flat-memory contract), and its digest equals the full-record
  one;
- the report's ``state_digest`` -- served by the core manager's
  incremental digest after slice allocs/releases and retargets have
  churned switch state and the link table -- equals a from-scratch hash
  of ``checkpoint()``;
- the sharded drill merges to byte-identical summaries for any worker
  count.
"""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.events import FaultKind, controller_target
from repro.faults.injector import FaultInjector
from repro.parallel import SweepEngine
from repro.serve.drill import (
    build_fault_timeline,
    drill_config,
    run_serve_drill,
    run_serve_drill_sharded,
)
from repro.serve.requests import Outcome
from repro.serve.service import FabricService, ServeConfig
from repro.serve.sink import StreamingRecordSink
from repro.serve.workload import ServeWorkload

fault_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.5),
        st.sampled_from([FaultKind.CONTROLLER_CRASH, FaultKind.RPC_TIMEOUT]),
        st.floats(min_value=1.0, max_value=12.0),   # severity
        st.floats(min_value=0.05, max_value=0.5),   # clear_after_s
    ),
    min_size=0,
    max_size=8,
)


def _injector(events, seed: int) -> FaultInjector:
    injector = FaultInjector(seed=seed)
    for time_s, kind, severity, clear_after_s in sorted(
        events, key=lambda e: (e[0], e[1].value)
    ):
        injector.schedule(
            time_s, kind, controller_target(),
            severity=severity, clear_after_s=clear_after_s,
        )
    return injector


def _small_run(events, seed: int, reference: bool, sink=None):
    config = ServeConfig(
        num_traffic_ocses=2, num_tenants=16, allocator_cubes=8, seed=seed
    )
    requests = ServeWorkload(
        seed=seed, rate_per_s=800.0, num_tenants=16
    ).generate(150)
    service = FabricService(config, sink=sink)
    runner = service.run_reference if reference else service.run
    report = runner(requests, faults=_injector(events, seed))
    return service, report


@settings(max_examples=15, deadline=None)
@given(events=fault_events, seed=st.integers(min_value=0, max_value=50))
def test_fast_path_equals_reference_for_any_fault_timeline(events, seed):
    _, fast = _small_run(events, seed, reference=False)
    _, ref = _small_run(events, seed, reference=True)
    assert fast.outcomes_digest() == ref.outcomes_digest()
    assert fast.state_digest == ref.state_digest
    assert [e.canonical() for e in fast.commit_log] == [
        e.canonical() for e in ref.commit_log
    ]
    assert fast.summary() == ref.summary()


@settings(max_examples=10, deadline=None)
@given(events=fault_events, seed=st.integers(min_value=0, max_value=50))
def test_streaming_sink_matches_full_records_and_stays_flat(events, seed):
    sink = StreamingRecordSink(seed=seed)
    service, fast = _small_run(events, seed, reference=False, sink=sink)
    _, ref = _small_run(events, seed, reference=True)
    aggregates = fast.aggregates
    assert aggregates is not None and not fast.records
    assert aggregates.outcomes_digest == ref.outcomes_digest()
    assert aggregates.total == ref.offered
    for outcome in Outcome:
        assert aggregates.outcome_counts[outcome] == ref.count(outcome)
    # Flat memory: the reorder window is bounded by in-flight work
    # (bounded queue, coalescing batch, retry/timeout windows), never
    # by the offered total.
    bound = 3 * (
        service.config.queue_capacity + service.config.batch_max_updates
    )
    assert 0 < aggregates.peak_pending <= bound


@settings(max_examples=10, deadline=None)
@given(events=fault_events, seed=st.integers(min_value=0, max_value=50))
def test_digest_cache_equals_manager_digest(events, seed):
    service, report = _small_run(events, seed, reference=False)
    payload = json.dumps(
        service.manager.checkpoint(), sort_keys=True, separators=(",", ":")
    )
    from_scratch = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    assert report.state_digest == from_scratch
    assert service.manager.state_digest() == from_scratch


def test_peak_pending_saturates_independent_of_request_count():
    """The reorder window plateaus once the in-flight pipeline is full:
    quadrupling the offered load leaves peak_pending unchanged."""
    peaks = {}
    for n in (600, 1_200, 2_400):
        config = ServeConfig(
            num_traffic_ocses=2, num_tenants=16, allocator_cubes=8, seed=0
        )
        requests = ServeWorkload(
            seed=0, rate_per_s=800.0, num_tenants=16
        ).generate(n)
        sink = StreamingRecordSink(seed=0)
        report = FabricService(config, sink=sink).run(requests)
        peaks[n] = report.aggregates.peak_pending
    assert peaks[600] == peaks[1_200] == peaks[2_400]
    assert peaks[2_400] <= 3 * (config.queue_capacity + config.batch_max_updates)


def test_fast_path_equals_reference_at_drill_scale():
    """The 10k-request / 2,048-tenant bar from the issue: digests,
    commit logs, and summaries all byte-identical."""
    num_primaries = 10_000
    config = drill_config(seed=7, num_tenants=2_048)
    workload = ServeWorkload(seed=7, rate_per_s=1_200.0, num_tenants=2_048)
    requests = workload.generate(num_primaries)
    horizon_s = workload.horizon_s(num_primaries)

    def _run(reference: bool):
        injector = FaultInjector(seed=7)
        build_fault_timeline(injector, horizon_s)
        service = FabricService(config)
        runner = service.run_reference if reference else service.run
        return runner(requests, faults=injector)

    fast, ref = _run(False), _run(True)
    assert fast.outcomes_digest() == ref.outcomes_digest()
    assert fast.state_digest == ref.state_digest
    assert [e.canonical() for e in fast.commit_log] == [
        e.canonical() for e in ref.commit_log
    ]
    assert fast.summary() == ref.summary()


def test_streaming_drill_matches_full_record_drill():
    full = run_serve_drill(seed=11, smoke=True)["summary"]
    stream = run_serve_drill(seed=11, smoke=True, streaming=True)["summary"]
    assert stream["outcomes_digest"] == full["outcomes_digest"]
    assert stream["state_digest"] == full["state_digest"]
    for key in ("offered", "ok", "rejected", "shed", "timeout", "error",
                "admitted", "commits", "replay_digest"):
        assert stream[key] == full[key], key
    assert stream["peak_pending"] > 0


def test_sharded_drill_is_worker_count_invariant():
    kwargs = dict(seed=3, smoke=True, num_primaries=3_000, num_tenants=512)
    serial = run_serve_drill_sharded(
        engine=SweepEngine(workers=1), **kwargs
    )["summary"]
    pooled = run_serve_drill_sharded(
        engine=SweepEngine(workers=4, ship="shm", chunk_size=1), **kwargs
    )["summary"]
    pickled = run_serve_drill_sharded(
        engine=SweepEngine(workers=2, ship="pickle"), **kwargs
    )["summary"]
    assert serial == pooled == pickled
    assert serial["sharded_digest"]
    assert serial["num_cells"] == 8


def test_sharded_drill_partitions_offered_load():
    out = run_serve_drill_sharded(
        seed=5, smoke=True, num_primaries=3_000, num_tenants=512,
        engine=SweepEngine(workers=1),
    )
    summary, cells = out["summary"], out["cells"]
    assert summary["offered"] == sum(c["offered"] for c in cells)
    assert summary["offered"] >= 3_000
    counted = sum(summary["outcomes"].values())
    assert counted == summary["offered"]
    # Every cell proved its own replay equivalence before returning.
    for cell in cells:
        assert cell["replay_digest"] == cell["state_digest"]
