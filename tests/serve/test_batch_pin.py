"""Golden pin of the coalesced-batch retry path.

A traffic-update-only stream under a pinned level-1 brownout makes every
mutation a coalesced batch member.  Short deadlines and RPC-timeout
bursts drive batches through every way a batch can end -- committed,
members expiring between attempts, retries exhausted, breaker open --
and the queue is large enough that nothing sheds.  The values were
recorded from the batch path's own retry loop; both serving planes must
reproduce them exactly.
"""

import collections

import pytest

from repro.faults.events import FaultKind, controller_target
from repro.faults.injector import FaultInjector
from repro.serve.requests import Outcome, RequestKind
from repro.serve.service import FabricService, ServeConfig, replay_committed
from repro.serve.workload import ServeWorkload

OUTCOMES_DIGEST = "44f96cd4851cae9b43c97f0120f09240b8d316f1a31ea09d986c3497fe1df875"
STATE_DIGEST = "9aaafa6f7db89e5d5de34c158bd3ff8baa7f6fc24522aa8e19e1dfb782032419"
DETAIL_COUNTS = {
    ("error", "breaker-open"): 192,
    ("error", "retries-exhausted"): 27,
    ("ok", "batched"): 185,
    ("rejected", "tenant-rate"): 176,
    ("timeout", "batch-deadline"): 20,
}
COMMITS = 185
BATCHES_FLUSHED = 7


def _run(runner: str):
    config = ServeConfig(
        num_traffic_ocses=2, num_tenants=16, queue_capacity=4096,
        pinned_brownout=1, seed=3,
    )
    requests = ServeWorkload(
        seed=3, rate_per_s=400.0, num_tenants=16,
        mix={RequestKind.TRAFFIC_UPDATE: 1.0},
        deadlines_s={
            RequestKind.TRAFFIC_UPDATE: 0.22,
            RequestKind.SLICE_RELEASE: 1.0,
        },
    ).generate(600)
    injector = FaultInjector(seed=3)
    for time_s, severity in ((0.2, 6.0), (0.6, 40.0), (1.0, 3.0)):
        injector.schedule(
            time_s, FaultKind.RPC_TIMEOUT, controller_target(),
            severity=severity, clear_after_s=0.3,
        )
    service = FabricService(config)
    return config, getattr(service, runner)(requests, faults=injector)


@pytest.mark.parametrize("runner", ["run", "run_reference"])
def test_batch_retry_path_is_pinned(runner):
    config, report = _run(runner)
    counts = collections.Counter(
        (r.outcome.value, r.detail) for r in report.records
    )
    assert dict(counts) == DETAIL_COUNTS
    assert report.count(Outcome.SHED) == 0
    assert report.outcomes_digest() == OUTCOMES_DIGEST
    assert report.state_digest == STATE_DIGEST
    assert len(report.commit_log) == COMMITS
    assert report.batches_flushed == BATCHES_FLUSHED
    assert replay_committed(config, report.commit_log) == STATE_DIGEST
