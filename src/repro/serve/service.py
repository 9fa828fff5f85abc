"""The overload-robust fabric serving layer.

:class:`FabricService` is a deterministic, simulation-clocked front end
to the durable control plane: tenants stream slice allocations, topology
reconfigurations, traffic-matrix updates, and telemetry queries at it,
open-loop, and it must stay correct -- and explicit about what it drops
-- whatever the offered load and fault timeline look like.

The defenses compose in a fixed order, and every request leaves through
exactly one of them (the *partition invariant*):

1. **admission** (:class:`~repro.serve.admission.FairAdmission`):
   token buckets, per-tenant then global -> ``REJECTED``;
2. **queueing** (:class:`~repro.serve.queueing.BoundedPriorityQueue`):
   bounded, priority-ordered, deterministic worst-victim eviction ->
   ``SHED`` (never silent: every eviction is a :class:`ShedRecord`);
3. **deadline propagation**: a request that cannot finish by its
   deadline is never started, and an attempt that cannot fit is never
   launched -> ``TIMEOUT`` (a timed-out request never commits);
4. **retry budget + circuit breaker** around the
   :class:`~repro.control.journal.DurableController` -> ``ERROR``
   (fast-failed or budget-capped, with the reason recorded);
5. everything else commits and completes -> ``OK``.

Under pressure the :class:`~repro.serve.brownout.BrownoutController`
degrades quality before work: maintenance defers, traffic-matrix
updates coalesce into one batched controller transaction per window
(last-writer-wins per circuit, in arrival order), and telemetry answers
come from a bounded-staleness cache.

**One commit path.**  Every mutation a request (or a coalesced batch)
makes is one :func:`~repro.control.replication.apply_entry` op --
``establish``, ``teardown`` or ``retarget`` -- built once at dispatch
and driven by one retry loop (:meth:`FabricService._run_attempts`).  Only
:meth:`FabricService._commit` tells the control planes apart: a quorum
commit on the :class:`~repro.control.replication.ReplicationGroup`, the
journaled :class:`~repro.control.journal.DurableController` call
(:meth:`FabricService.run_reference`), or ``apply_entry`` straight on
the manager once :meth:`FabricService.run` has detached the journal.
The commit log stores each committed request with its op.  Replicated,
it is a projection of the group's committed log, read wherever the
commit index can advance: an op that commits although its request
ended non-OK (an attempt that missed its quorum, carried by a later
commit) is a counted *late commit*, resolved one fixed way
(:meth:`FabricService._late_commit`).

**Determinism and replay.**  The service is a serial discrete-event
loop over (arrival, batch-flush, maintenance, serve) events; all
randomness is seeded (retry jitter) or injected
(:class:`~repro.faults.injector.FaultInjector`).  Same seed => byte
identical per-request outcomes (``outcomes_digest``) and the same
commit log; replaying that log serially against a fresh manager
with ``apply_entry`` (:func:`replay_committed`) must reproduce
``state_digest()`` exactly.

**Tenant -> fabric mapping.**  Tenant *i* owns north port
``i // num_traffic_ocses`` on traffic OCS ``i % num_traffic_ocses``,
with two private south ports (bank 0/1) -- retargets are collision-free
by construction, so any interleaving of committed updates is
serializable.  Slices get circuits on a dedicated slice OCS and cubes
from a :class:`~repro.scheduler.allocator.ReconfigurableAllocator`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.control import journal
from repro.control.journal import DurableController
from repro.control.replication import ReplicationGroup, apply_entry
from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import ConfigurationError, ReplicationError, ServeError
from repro.core.fabric_manager import FabricManager, SimpleSwitch
from repro.core.ids import JobId, LinkId, OcsId
from repro.faults.events import FaultKind
from repro.faults.injector import FaultInjector
from repro.faults.resilience import RetryPolicy
from repro.obs import NULL_OBS, Observability
from repro.scheduler.allocator import ReconfigurableAllocator
from repro.scheduler.requests import JobRequest
from repro.serve.admission import FairAdmission
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.brownout import BrownoutController
from repro.serve.queueing import BoundedPriorityQueue, ShedRecord
from repro.serve.requests import (
    ADMITTED_OUTCOMES,
    KIND_VALUE,
    OUTCOME_VALUE,
    Outcome,
    RequestKind,
    RequestRecord,
    TenantRequest,
    outcomes_digest,
)
from repro.serve.retry import RetryBudget
from repro.serve.sink import FullRecordSink, StreamAggregates, StreamingRecordSink
from repro.tpu.superpod import Superpod


@dataclass(frozen=True)
class ServeConfig:
    """Everything that shapes the serving layer's behavior.

    Service times are deterministic per kind (milliseconds of simulated
    server occupancy); capacity is their admission-weighted mean.
    """

    # Fabric shape.
    num_traffic_ocses: int = 4
    num_tenants: int = 256
    slice_radix: int = 64
    allocator_cubes: int = 64

    # Admission (requests per simulated second).
    global_rate_per_s: float = 400.0
    global_burst: float = 120.0
    tenant_rate_per_s: float = 8.0
    tenant_burst: float = 16.0

    # Queueing.
    queue_capacity: int = 64

    # Retry budget / breaker.
    retry_ratio: float = 0.5
    max_attempts: int = 4
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 0.5

    # Brownout ladder.
    brownout_enter_1: float = 0.5
    brownout_exit_1: float = 0.3
    brownout_enter_2: float = 0.8
    brownout_exit_2: float = 0.6
    pinned_brownout: Optional[int] = None

    # Deterministic service times (ms).
    telemetry_fresh_ms: float = 2.0
    telemetry_cached_ms: float = 0.2
    traffic_update_ms: float = 2.5
    reconfigure_ms: float = 3.0
    slice_alloc_ms: float = 5.0
    slice_release_ms: float = 2.0
    noop_ms: float = 0.5
    batch_member_ms: float = 0.3
    batch_flush_ms: float = 4.0
    rpc_timeout_ms: float = 25.0
    maintenance_ms: float = 6.0

    # Coalescing / maintenance / telemetry cache.
    batch_window_s: float = 0.2
    batch_max_updates: int = 32
    maintenance_interval_s: float = 5.0
    telemetry_ttl_s: float = 0.5

    # Replicated control plane.  1 = the PR-6 single DurableController
    # (byte-identical behavior); >= 3 routes every mutation through a
    # lease-held, epoch-fenced ReplicationGroup and turns controller
    # loss into leader failover instead of refusal.
    num_controller_replicas: int = 1
    replica_lease_s: float = 2.0

    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_traffic_ocses < 1 or self.num_tenants < 1:
            raise ConfigurationError("need at least one OCS and one tenant")
        if self.traffic_radix > 512:
            raise ConfigurationError(
                f"traffic radix {self.traffic_radix} unreasonably large; "
                "add traffic OCSes instead"
            )
        if self.slice_radix < 1:
            raise ConfigurationError("slice OCS needs at least one port")
        if self.queue_capacity < 1:
            raise ConfigurationError("queue capacity must be positive")
        if self.batch_window_s <= 0 or self.batch_max_updates < 1:
            raise ConfigurationError("batch window and size must be positive")
        if self.maintenance_interval_s <= 0 or self.telemetry_ttl_s <= 0:
            raise ConfigurationError("maintenance interval and ttl must be positive")
        if (
            self.global_rate_per_s <= 0
            or self.global_burst < 1
            or self.tenant_rate_per_s <= 0
            or self.tenant_burst < 1
        ):
            raise ConfigurationError("admission rates and bursts must be positive")
        if self.num_controller_replicas < 1:
            raise ConfigurationError("need at least one controller replica")
        if self.num_controller_replicas > 1 and self.num_controller_replicas % 2 == 0:
            raise ConfigurationError(
                "replica count must be odd (an even group tolerates no more "
                "failures than the next odd size down, but splits worse)"
            )
        if self.replica_lease_s <= 0:
            raise ConfigurationError("replica lease must be positive")
        for name in (
            "telemetry_fresh_ms", "telemetry_cached_ms", "traffic_update_ms",
            "reconfigure_ms", "slice_alloc_ms", "slice_release_ms", "noop_ms",
            "batch_member_ms", "batch_flush_ms", "rpc_timeout_ms",
            "maintenance_ms",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    @property
    def tenants_per_ocs(self) -> int:
        return math.ceil(self.num_tenants / self.num_traffic_ocses)

    @property
    def traffic_radix(self) -> int:
        # Two south banks per tenant slot.
        return 2 * self.tenants_per_ocs

    @property
    def slice_ocs(self) -> OcsId:
        return OcsId(self.num_traffic_ocses)

    def tenant_circuit(self, tenant: str) -> Tuple[OcsId, int]:
        """(ocs, north port) owned by ``tenant`` (id ``t-<index>``)."""
        index = int(tenant.rsplit("-", 1)[1])
        if not 0 <= index < self.num_tenants:
            raise ConfigurationError(f"tenant {tenant} outside population")
        return OcsId(index % self.num_traffic_ocses), index // self.num_traffic_ocses

    def south_for_bank(self, north: int, bank: int) -> int:
        if bank not in (0, 1):
            raise ConfigurationError(f"bank must be 0 or 1, got {bank}")
        return north + bank * self.tenants_per_ocs


def build_serve_manager(
    config: ServeConfig, obs: Optional[Observability] = None
) -> FabricManager:
    """The serving fabric: traffic OCSes (provisioned one circuit per
    tenant, bank 0) plus one dedicated slice OCS.

    Shared by the live service and :func:`replay_committed`, so both
    start from the identical provisioned state.
    """
    manager = FabricManager(obs=obs)
    for i in range(config.num_traffic_ocses):
        manager.add_switch(OcsId(i), SimpleSwitch(config.traffic_radix))
    manager.add_switch(config.slice_ocs, SimpleSwitch(config.slice_radix))
    for t in range(config.num_tenants):
        ocs, north = config.tenant_circuit(f"t-{t:03d}")
        manager.switch(ocs).state.connect(north, config.south_for_bank(north, 0))
    return manager


def _free_slice_port(manager: FabricManager, config: ServeConfig) -> Optional[int]:
    """The port the next slice circuit takes: the lowest slice-OCS port
    free on both sides (slice circuits are always port <-> port).

    Shared by both serving planes and :func:`replay_committed`, so a
    replayed alloc re-derives exactly the port the live run chose.
    """
    state = manager.switch(config.slice_ocs).state
    return min(state.free_north & state.free_south, default=None)


@dataclass(frozen=True, slots=True)
class CommitEntry:
    """One committed request, in commit order, with the
    :func:`~repro.control.replication.apply_entry` op it committed
    (``establish``, ``teardown`` or ``retarget``).

    The members of one coalesced batch share the batch's op object.
    """

    request_id: str
    payload: Mapping[str, object]

    def canonical(self) -> str:
        body = json.dumps(self.payload, sort_keys=True, separators=(",", ":"))
        return f"{self.request_id}|{body}"


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending sequence (0.0 when
    empty); ``q = 0`` is the minimum and ``q = 1`` the maximum."""
    if not ordered:
        return 0.0
    rank = int(math.ceil(q * len(ordered))) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


@dataclass
class ServeReport:
    """Everything one service run produced, deterministically."""

    config: ServeConfig
    records: List[RequestRecord]
    shed_records: List[ShedRecord]
    commit_log: List[CommitEntry]
    offered: int
    downstream_attempts: int
    deposits: int
    retries_granted: int
    retries_denied: int
    breaker_trips: int
    breaker_fast_fails: int
    brownout_transitions: Tuple[Tuple[float, int], ...]
    maintenance_runs: int
    maintenance_deferred: int
    batches_flushed: int
    telemetry_cache_hits: int
    telemetry_cache_misses: int
    recoveries: int
    state_digest: str
    faults_digest: str

    # Replicated-control-plane accounting (all zero in single mode).
    failovers: int = 0
    elections: int = 0
    fencing_rejections: int = 0
    committed_ops_lost: int = 0
    failover_durations_s: Tuple[float, ...] = ()
    failover_unavailable_s: float = 0.0
    #: Tokens of ops that committed after their request ended non-OK.
    late_commits: Tuple[str, ...] = ()

    #: Streaming-mode roll-up: populated (and ``records`` left empty)
    #: when the service ran with a :class:`StreamingRecordSink`.
    aggregates: Optional[StreamAggregates] = None

    # Lazy caches -- a report is immutable once constructed, so counts
    # and per-outcome sorted latencies are computed at most once.
    _counts: Optional[Dict[Outcome, int]] = field(
        init=False, default=None, repr=False, compare=False
    )
    _sorted_latencies: Dict[Outcome, List[float]] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def count(self, outcome: Outcome) -> int:
        counts = self._counts
        if counts is None:
            if self.aggregates is not None and not self.records:
                counts = dict(self.aggregates.outcome_counts)
            else:
                counts = {o: 0 for o in Outcome}
                for r in self.records:
                    counts[r.outcome] += 1
            self._counts = counts
        return counts.get(outcome, 0)

    @property
    def admitted(self) -> int:
        return sum(self.count(o) for o in ADMITTED_OUTCOMES)

    @property
    def retry_amplification(self) -> float:
        """Observed downstream attempts per service start; provably
        bounded by ``1 + retry_ratio`` (see :mod:`repro.serve.retry`)."""
        return self.downstream_attempts / max(1, self.deposits)

    @property
    def shed_rate(self) -> float:
        return self.count(Outcome.SHED) / max(1, self.offered)

    def latency_percentile_ms(self, q: float, outcome: Outcome = Outcome.OK) -> float:
        lat = self._sorted_latencies.get(outcome)
        if lat is None:
            if self.aggregates is not None and not self.records:
                # Streaming mode: a histogram estimate (<= one 4% bucket
                # above the true order statistic), not an exact sort.
                return self.aggregates.latency_percentile_ms(q, outcome)
            # Sort once per outcome, not once per percentile query.
            lat = sorted(
                r.latency_ms for r in self.records if r.outcome is outcome
            )
            self._sorted_latencies[outcome] = lat
        return _nearest_rank(lat, q)

    def outcomes_digest(self) -> str:
        if self.aggregates is not None and not self.records:
            return self.aggregates.outcomes_digest
        return outcomes_digest(self.records)

    def failover_percentile_s(self, q: float) -> float:
        return _nearest_rank(sorted(self.failover_durations_s), q)

    def summary(self) -> Dict[str, object]:
        """Flat, JSON-ready roll-up (what the NOC / CI gate consumes)."""
        out = self._base_summary()
        if self.config.num_controller_replicas > 1:
            out.update(
                {
                    "failovers": self.failovers,
                    "elections": self.elections,
                    "fencing_rejections": self.fencing_rejections,
                    "committed_ops_lost": self.committed_ops_lost,
                    "failover_p99_s": round(self.failover_percentile_s(0.99), 6),
                    "failover_unavailable_s": round(self.failover_unavailable_s, 6),
                    "late_commits": len(self.late_commits),
                }
            )
        return out

    def _base_summary(self) -> Dict[str, object]:
        return {
            "offered": self.offered,
            "ok": self.count(Outcome.OK),
            "rejected": self.count(Outcome.REJECTED),
            "shed": self.count(Outcome.SHED),
            "timeout": self.count(Outcome.TIMEOUT),
            "error": self.count(Outcome.ERROR),
            "admitted": self.admitted,
            "serve_p50_ms": round(self.latency_percentile_ms(0.50), 6),
            "serve_p99_ms": round(self.latency_percentile_ms(0.99), 6),
            "serve_shed_rate": round(self.shed_rate, 6),
            "serve_retry_amplification": round(self.retry_amplification, 6),
            "downstream_attempts": self.downstream_attempts,
            "deposits": self.deposits,
            "retries_granted": self.retries_granted,
            "retries_denied": self.retries_denied,
            "breaker_trips": self.breaker_trips,
            "breaker_fast_fails": self.breaker_fast_fails,
            "brownout_transitions": len(self.brownout_transitions),
            "maintenance_runs": self.maintenance_runs,
            "maintenance_deferred": self.maintenance_deferred,
            "batches_flushed": self.batches_flushed,
            "telemetry_cache_hits": self.telemetry_cache_hits,
            "telemetry_cache_misses": self.telemetry_cache_misses,
            "recoveries": self.recoveries,
            "commits": len(self.commit_log),
            "outcomes_digest": self.outcomes_digest(),
            "state_digest": self.state_digest,
            "faults_digest": self.faults_digest,
        }


class _CubeLedger:
    """Count-twin of :class:`ReconfigurableAllocator` for the fast path.

    The serve drill never fails cubes, and the allocator's verdict is
    purely ``healthy free cubes >= job.cubes`` -- so a free-count ledger
    gives bit-identical admit/refuse decisions without per-cube
    bookkeeping or slice programming (the Superpod sits outside
    ``state_digest()``, so nothing downstream can observe the
    difference; the equality is pinned by the fast-vs-reference
    property tests).
    """

    __slots__ = ("free",)

    def __init__(self, num_cubes: int) -> None:
        self.free = num_cubes

    def try_allocate(self, job: JobRequest) -> Optional[JobRequest]:
        if job.cubes > self.free:
            return None
        self.free -= job.cubes
        return job

    def release(self, job: JobRequest) -> None:
        self.free += job.cubes


class FabricService:
    """Serial, deterministic serving loop over tenant requests."""

    def __init__(
        self,
        config: ServeConfig,
        obs: Optional[Observability] = None,
        sink: Optional[Union[FullRecordSink, StreamingRecordSink]] = None,
    ) -> None:
        self.config = config
        self.obs = obs if obs is not None else NULL_OBS
        #: Terminal-outcome sink; the default keeps every record (PR-6
        #: behavior), a StreamingRecordSink keeps memory flat at 10^6.
        self._sink = sink if sink is not None else FullRecordSink()
        self.replication: Optional[ReplicationGroup] = None
        self.controller: Optional[DurableController] = None
        if config.num_controller_replicas > 1:
            # Each replica owns a full provisioned fabric image; the
            # leader's is the one reads and port scans see.
            self.replication = ReplicationGroup(
                num_replicas=config.num_controller_replicas,
                manager_factory=lambda: build_serve_manager(config),
                lease_s=config.replica_lease_s,
                obs=self.obs,
            )
            self.replication.elect(0, 0.0)
            self._solo_manager: Optional[FabricManager] = None
        else:
            self._solo_manager = build_serve_manager(config, obs=self.obs)
            self.controller = DurableController(
                manager=self._solo_manager, obs=self.obs
            )
        self.admission = FairAdmission(
            global_rate_per_s=config.global_rate_per_s,
            global_burst=config.global_burst,
            tenant_rate_per_s=config.tenant_rate_per_s,
            tenant_burst=config.tenant_burst,
            obs=self.obs,
        )
        self.queue = BoundedPriorityQueue(config.queue_capacity)
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            cooldown_s=config.breaker_cooldown_s,
            obs=self.obs,
        )
        self.brownout = BrownoutController(
            enter_1=config.brownout_enter_1,
            exit_1=config.brownout_exit_1,
            enter_2=config.brownout_enter_2,
            exit_2=config.brownout_exit_2,
            pinned_level=config.pinned_brownout,
            obs=self.obs,
        )
        self.budget = RetryBudget(
            retry_ratio=config.retry_ratio,
            max_attempts=config.max_attempts,
            obs=self.obs,
        )
        self.allocator = ReconfigurableAllocator(
            Superpod(num_cubes=config.allocator_cubes)
        )
        self._retry_policy = RetryPolicy()
        self._rng = np.random.default_rng(config.seed)

        # Bound metric handles: name+label resolution happens once here,
        # not per event (same series objects, same snapshots).
        metrics = self.obs.metrics
        self._outcome_family = metrics.family(
            "counter", "serve.outcomes", "outcome", "kind"
        )
        self._latency_family = metrics.family(
            "histogram", "serve.latency_ms", "outcome"
        )
        self._attempts_counter = metrics.handle("counter", "serve.attempts")
        self._fast_fail_counter = metrics.handle(
            "counter", "serve.breaker.fast_fails"
        )
        self._telemetry_hit_counter = metrics.handle(
            "counter", "serve.telemetry", source="cache"
        )
        self._telemetry_miss_counter = metrics.handle(
            "counter", "serve.telemetry", source="fresh"
        )
        self._batches_counter = metrics.handle(
            "counter", "serve.batches.flushed"
        )
        self._batch_size_hist = metrics.handle("histogram", "serve.batch.size")
        self._maint_runs_counter = metrics.handle(
            "counter", "serve.maintenance.runs"
        )
        self._maint_deferred_counter = metrics.handle(
            "counter", "serve.maintenance.deferred"
        )

        # Mutable run state.  The commit log gets one row per committed op
        # under its token (a flushed batch's becomes one per member);
        # replicated, it projects the group's log from ``_synced`` on.
        self._commit_log: List[CommitEntry] = []
        self._synced = 0
        self._failed: set = set()
        self._late: List[str] = []
        self._undo: Dict[str, Mapping[str, object]] = {}
        self._allocs: Dict[str, JobRequest] = {}
        self._batch: List[TenantRequest] = []
        self._batch_due_s = 0.0
        self._batch_seq = 0
        self._controller_down = False
        self._pending_rpc_timeouts = 0
        self._recoveries = 0
        self._downstream_attempts = 0
        self._breaker_fast_fails = 0
        self._maintenance_runs = 0
        self._maintenance_deferred = 0
        self._batches_flushed = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._telemetry_cache: Optional[Tuple[str, float]] = None
        self._offered = 0
        self._failovers = 0
        if self.replication is not None:
            # Open edge of the breaker = leader is gone: elect a standby
            # and re-close, instead of cooling down against a dead primary.
            self.breaker.on_trip = self._on_breaker_trip

    @property
    def manager(self) -> FabricManager:
        """The authoritative fabric view: the replication leader's state
        machine when replicated, the solo manager otherwise."""
        if self.replication is not None:
            return self.replication.live_manager()
        assert self._solo_manager is not None
        return self._solo_manager

    # ------------------------------------------------------------------ #
    # Fault wiring
    # ------------------------------------------------------------------ #

    def attach_faults(self, injector: FaultInjector) -> None:
        if self.replication is not None:
            # Crash / partition / skew semantics live with the group.
            self.replication.attach_faults(injector)
        else:
            injector.subscribe(FaultKind.CONTROLLER_CRASH, self._on_controller_event)
        injector.subscribe(FaultKind.RPC_TIMEOUT, self._on_rpc_timeout_event)

    def _on_controller_event(self, event) -> None:
        if event.recovery:
            if self.controller is not None:
                storage = self.controller.wal.storage
                self.controller, _report = journal.recover(
                    self.manager, storage, obs=self.obs
                )
            # Without a journal, recovery is a proven manager-state no-op
            # (no half-programmed hardware in the serve sim -- the WAL
            # replay drives no-op plans, rebuilds identical links, and
            # idempotency tokens are never reused because every request
            # commits at most once), so a full WAL scan -- quadratic
            # across a long drill -- buys nothing.  Clear the flag.
            self._controller_down = False
            self._recoveries += 1
            self.obs.metrics.counter("serve.controller.recoveries").inc()
        else:
            self._controller_down = True
            self.obs.metrics.counter("serve.controller.crashes").inc()

    def _on_rpc_timeout_event(self, event) -> None:
        if event.recovery:
            self._pending_rpc_timeouts = 0
        else:
            self._pending_rpc_timeouts += max(1, int(event.severity))

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #

    def _record(
        self,
        request: TenantRequest,
        outcome: Outcome,
        finish_s: float,
        *,
        attempts: int = 0,
        detail: str = "",
    ) -> None:
        self._sink.record(
            RequestRecord(
                request=request,
                outcome=outcome,
                finish_s=finish_s,
                attempts=attempts,
                detail=detail,
            )
        )
        self._outcome_family.series(
            OUTCOME_VALUE[outcome], KIND_VALUE[request.kind]
        ).inc()
        self._latency_family.series(OUTCOME_VALUE[outcome]).observe(
            max(0.0, (finish_s - request.arrival_s) * 1e3)
        )

    def _observe_pressure(self, now_s: float) -> None:
        # BoundedPriorityQueue.occupancy is already a fill fraction in
        # [0, 1]; feed it to the brownout ladder undiluted.
        occupancy = self.queue.occupancy
        breaker_open = self.breaker.state(now_s) is BreakerState.OPEN
        self.brownout.observe(occupancy, breaker_open, now_s)

    # ------------------------------------------------------------------ #
    # Downstream attempts (retry budget + breaker + deadline, shared by
    # every controller-touching path)
    # ------------------------------------------------------------------ #

    def _attempt_failure(self, t: float) -> Optional[str]:
        """Injected-fault view of one RPC attempt; consumes one pending
        timeout when the burst is active.

        In replicated mode a dead or unreachable leader is not a hard
        failure: the attempt first tries to fail over to a standby, and
        only reports ``controller-down`` when no electable replica is
        reachable (no quorum anywhere the client can see)."""
        if self.replication is not None:
            if not self._try_failover(t):
                return "controller-down"
        elif self._controller_down:
            return "controller-down"
        if self._pending_rpc_timeouts > 0:
            self._pending_rpc_timeouts -= 1
            return "rpc-timeout"
        return None

    def _try_failover(self, t: float) -> bool:
        """Elect the first client-reachable replica; True on success."""
        assert self.replication is not None
        if self.replication.leader_serviceable():
            return True
        self.replication.note_outage(t)
        if not self.replication.elect_reachable(t):
            return False
        self._sync_commits(t)  # the barrier may carry earlier attempts
        self._failovers += 1
        self.obs.metrics.counter("serve.failovers").inc()
        return True

    def _gate_attempt(self, t: float) -> bool:
        """Breaker gate with failover redirection on the open edge.

        A closed (or probing half-open) breaker admits the attempt.  An
        open breaker normally fast-fails -- but in replicated mode, if
        the reason it opened is a dead/unreachable leader, electing a
        standby repairs the cause, so the gate retries the election and
        re-closes on success instead of refusing work for a cooldown.
        """
        if self.breaker.allow(t):
            return True
        if (
            self.replication is not None
            and not self.replication.leader_serviceable()
            and self._try_failover(t)
        ):
            self.breaker.reset()
            return True
        return False

    def _on_breaker_trip(self, now_s: float) -> None:
        if self.replication is None or self.replication.leader_serviceable():
            # Genuine downstream flakiness (e.g. an RPC-timeout burst
            # against a healthy leader): let the breaker cool down.
            return
        if self._try_failover(now_s):
            # The failure cause (a dead leader) was repaired by the
            # election: keep admitting instead of fast-failing through
            # the cooldown.
            self.breaker.reset()

    def _run_attempts(
        self, t: float, work_ms: float, token: str, op_for
    ) -> Tuple[Outcome, float, int, str]:
        """Drive one downstream commit to a terminal outcome.

        Returns ``(outcome, time_after, attempts, detail)``.  Before
        every attempt ``op_for(t, done_s, attempts)`` is asked for the op
        to commit: ``None`` means nothing can still finish by ``done_s``
        within its deadline (-> ``TIMEOUT``).  The op commits through
        :meth:`_commit` only on a successful attempt (real exceptions
        propagate -- they are bugs, not overload).

        Replicated, a later commit can still carry an attempt that missed
        its quorum: see :meth:`_late_commit`.
        """
        result = self._attempt_loop(t, work_ms, token, op_for)
        if self.replication is not None and result[0] is not Outcome.OK and result[2]:
            entry = self.replication.committed_entry(token)
            if entry is None:
                self._failed.add(token)
            else:
                self._late_commit(token, entry.payload)
                self._sync_commits(result[1])
        return result

    def _attempt_loop(
        self, t: float, work_ms: float, token: str, op_for
    ) -> Tuple[Outcome, float, int, str]:
        attempts = 0
        detail = ""
        work_s = work_ms / 1e3
        rpc_timeout_s = self.config.rpc_timeout_ms / 1e3
        while True:
            payload = op_for(t, t + work_s, attempts)
            if payload is None:
                return Outcome.TIMEOUT, t, attempts, detail or "deadline"
            if not self._gate_attempt(t):
                self._breaker_fast_fails += 1
                self._fast_fail_counter.inc()
                return Outcome.ERROR, t, attempts, "breaker-open"
            attempts += 1
            self._downstream_attempts += 1
            self._attempts_counter.inc()
            failure = self._attempt_failure(t)
            if failure is None:
                try:
                    self._commit(payload, token, t)
                except ReplicationError:
                    # The commit could not reach quorum (partition mid-
                    # attempt): a retryable failure, not a bug.
                    failure = "no-quorum"
                else:
                    self.breaker.record_success(t)
                    return Outcome.OK, t + work_s, attempts, detail
            detail = failure
            self.breaker.record_failure(t)
            t += rpc_timeout_s
            if attempts >= self.budget.max_attempts:
                return Outcome.ERROR, t, attempts, "retries-exhausted"
            if not self.budget.try_spend():
                return Outcome.ERROR, t, attempts, "retry-budget"
            t += self._retry_policy.backoff_ms(attempts, self._rng) / 1e3

    def _commit(self, payload: Mapping[str, object], token: str, t: float) -> None:
        """Commit one op at ``t``: the only place the control planes differ.

        Replicated: a quorum commit through the group's leader, whose
        committed log the commit log then projects.  No journal
        (:meth:`run`): :func:`apply_entry` straight on the manager.
        Journaled (:meth:`run_reference`): the equivalent
        :class:`DurableController` call -- the independently derived
        oracle the other two are pinned against.
        """
        if self.replication is not None:
            try:
                self.replication.submit(payload, t, token=token)
            finally:
                self._sync_commits(t)
            return
        op = payload["op"]
        if self.controller is None:
            apply_entry(self.manager, payload)
        elif op == "establish":
            self.controller.establish(
                LinkId(str(payload["link"])),
                OcsId(int(payload["ocs"])),
                int(payload["north"]),
                int(payload["south"]),
                token=token,
            )
        elif op == "teardown":
            self.controller.teardown(LinkId(str(payload["link"])), token=token)
        else:
            targets: Dict[OcsId, CrossConnectMap] = {}
            for ocs_index, north, south in payload["changes"]:
                ocs = OcsId(ocs_index)
                if ocs not in targets:
                    targets[ocs] = self.manager.switch(ocs).state.copy()
                targets[ocs].retarget(north, south)
            self.controller.reconfigure(targets, token=token)
        self._commit_log.append(CommitEntry(token, payload))

    def _sync_commits(self, t: float) -> None:
        """Append the group's newly committed ops to the commit log.

        Called wherever the commit index can advance (a submit, an
        election, a heartbeat) and at end of run.  Late commits found
        here are resolved at once; pending compensations are submitted
        until one cannot commit.
        """
        group = self.replication
        assert group is not None
        while True:
            for entry in group.committed_entries(self._synced):
                self._synced += 1
                token = entry.payload.get("token")
                if token is not None:  # not an election barrier
                    self._commit_log.append(CommitEntry(str(token), entry.payload))
                    if token in self._failed:
                        self._failed.discard(token)
                        self._late_commit(str(token), entry.payload)
            if not self._undo or not group.leader_serviceable():
                return
            token, payload = next(iter(self._undo.items()))
            try:
                group.submit(payload, t, token=token)
            except ReplicationError:
                return  # still pending at the next sync
            del self._undo[token]

    def _late_commit(self, token: str, payload: Mapping[str, object]) -> None:
        """Count and resolve an op that committed although its request
        ended non-OK, one fixed way per op: a late ``establish`` holds a
        port the request gave up, so a compensating ``teardown`` (token
        ``undo-<request id>``) removes its link; a late ``teardown``
        stands and releases its slice; a late ``retarget`` stands, since
        it holds no resource and the tenant's next update supersedes it.
        """
        self._late.append(token)
        if payload["op"] == "establish":
            self._undo[f"undo-{token}"] = {"op": "teardown", "link": payload["link"]}
        elif payload["op"] == "teardown":
            job = self._allocs.pop(str(payload["link"])[len("sl-"):], None)
            if job is not None:
                self.allocator.release(job)

    def _serve_op(
        self,
        request: TenantRequest,
        t: float,
        work_ms: float,
        payload: Mapping[str, object],
    ) -> Tuple[Outcome, float]:
        """Commit one request's op through the retry loop and record
        its outcome; returns ``(outcome, time_after)``."""
        self.budget.deposit()
        deadline_s = request.deadline_s
        outcome, t_end, attempts, detail = self._run_attempts(
            t,
            work_ms,
            request.request_id,
            lambda _t, done_s, _attempts: payload if done_s <= deadline_s else None,
        )
        self._record(request, outcome, t_end, attempts=attempts, detail=detail)
        return outcome, t_end

    # ------------------------------------------------------------------ #
    # Per-kind dispatch
    # ------------------------------------------------------------------ #

    def _retarget_op(self, members: Sequence[TenantRequest]) -> Dict[str, object]:
        """One ``retarget`` op moving each member's tenant circuit onto
        its requested bank, last writer wins per circuit (in arrival
        order)."""
        changes: Dict[Tuple[int, int], int] = {}
        for m in members:
            ocs, north = self.config.tenant_circuit(m.tenant)
            bank = int(m.param("bank", 0))
            changes[(ocs.index, north)] = self.config.south_for_bank(north, bank)
        return {
            "op": "retarget",
            "changes": sorted([o, n, s] for (o, n), s in changes.items()),
        }

    def _dispatch_retarget(self, request: TenantRequest, t: float) -> float:
        work_ms = (
            self.config.reconfigure_ms
            if request.kind is RequestKind.RECONFIGURE
            else self.config.traffic_update_ms
        )
        return self._serve_op(request, t, work_ms, self._retarget_op([request]))[1]

    def _dispatch_slice_alloc(self, request: TenantRequest, t: float) -> float:
        cubes = int(request.param("cubes", 1))
        job = JobRequest(
            job_id=JobId(request.request_id),
            cubes=cubes,
            duration_s=3600.0,
            arrival_s=request.arrival_s,
        )
        port = _free_slice_port(self.manager, self.config)
        if port is None or self.allocator.try_allocate(job) is None:
            t_end = t + self.config.noop_ms / 1e3
            self._record(request, Outcome.ERROR, t_end, detail="capacity")
            return t_end
        payload = {
            "op": "establish",
            "link": f"sl-{request.request_id}",
            "ocs": self.config.slice_ocs.index,
            "north": port,
            "south": port,
        }
        outcome, t_end = self._serve_op(
            request, t, self.config.slice_alloc_ms, payload
        )
        if outcome is Outcome.OK:
            self._allocs[request.request_id] = job
        else:
            # The cube reservation never committed downstream; give it back.
            self.allocator.release(job)
        return t_end

    def _dispatch_slice_release(self, request: TenantRequest, t: float) -> float:
        alloc_id = str(request.param("slice", ""))
        job = self._allocs.get(alloc_id)
        if job is None:
            # Alloc was rejected/shed/timed out (or already released):
            # releasing nothing is success, explicitly.
            t_end = t + self.config.noop_ms / 1e3
            self._record(request, Outcome.OK, t_end, detail="noop")
            return t_end
        outcome, t_end = self._serve_op(
            request,
            t,
            self.config.slice_release_ms,
            {"op": "teardown", "link": f"sl-{alloc_id}"},
        )
        if outcome is Outcome.OK:
            self.allocator.release(job)
            del self._allocs[alloc_id]
        return t_end

    def _dispatch_telemetry(self, request: TenantRequest, t: float) -> float:
        cached = self._telemetry_cache
        if (
            self.brownout.serve_cached_telemetry
            and cached is not None
            and t - cached[1] <= self.config.telemetry_ttl_s
        ):
            self._cache_hits += 1
            self._telemetry_hit_counter.inc()
            t_end = t + self.config.telemetry_cached_ms / 1e3
            self._record(request, Outcome.OK, t_end, detail="cached")
            return t_end
        digest = self.manager.state_digest()
        self._telemetry_cache = (digest, t)
        self._cache_misses += 1
        self._telemetry_miss_counter.inc()
        t_end = t + self.config.telemetry_fresh_ms / 1e3
        self._record(request, Outcome.OK, t_end, detail="fresh")
        return t_end

    # ------------------------------------------------------------------ #
    # Batched (coalesced) traffic updates
    # ------------------------------------------------------------------ #

    def _enqueue_batch_member(self, request: TenantRequest, t: float) -> float:
        if not self._batch:
            self._batch_due_s = t + self.config.batch_window_s
        self._batch.append(request)
        t_end = t + self.config.batch_member_ms / 1e3
        if len(self._batch) >= self.config.batch_max_updates:
            t_end = self._flush_batch(t_end)
        return t_end

    def _flush_batch(self, t: float) -> float:
        """One controller transaction for the whole window, last-writer
        wins per circuit; members that cannot make their deadline are
        timed out (explicitly) before each attempt."""
        members = self._batch
        self._batch = []
        self._batch_seq += 1
        for _ in members:  # every member enters service here
            self.budget.deposit()
        payload: Optional[Dict[str, object]] = None

        def live_op(t: float, done_s: float, attempts: int):
            nonlocal members, payload
            for m in members:
                if done_s > m.deadline_s:
                    self._record(
                        m, Outcome.TIMEOUT, t, attempts=attempts,
                        detail="batch-deadline",
                    )
            members = [m for m in members if done_s <= m.deadline_s]
            payload = self._retarget_op(members) if members else None
            return payload

        token = f"batch-{self._batch_seq:05d}"
        outcome, t_end, attempts, detail = self._run_attempts(
            t, self.config.batch_flush_ms, token, live_op
        )
        if outcome is Outcome.OK:
            detail = "batched"
            log = self._commit_log
            i = len(log) - 1
            while log[i].request_id != token:
                i -= 1
            log[i : i + 1] = [CommitEntry(m.request_id, log[i].payload) for m in members]
            self._batches_flushed += 1
            self._batches_counter.inc()
            self._batch_size_hist.observe(float(len(members)))
        for m in members:  # a timed-out batch has no members left
            self._record(m, outcome, t_end, attempts=attempts, detail=detail)
        return t_end

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #

    def _dispatch(self, request: TenantRequest, t: float) -> float:
        kind = request.kind
        if kind is RequestKind.TELEMETRY_QUERY:
            return self._dispatch_telemetry(request, t)
        if kind is RequestKind.TRAFFIC_UPDATE and self.brownout.coalesce_updates:
            return self._enqueue_batch_member(request, t)
        if kind in (RequestKind.TRAFFIC_UPDATE, RequestKind.RECONFIGURE):
            return self._dispatch_retarget(request, t)
        if kind is RequestKind.SLICE_ALLOC:
            return self._dispatch_slice_alloc(request, t)
        return self._dispatch_slice_release(request, t)

    def run(
        self,
        requests: Union[Sequence[TenantRequest], Iterable[TenantRequest]],
        faults: Optional[FaultInjector] = None,
    ) -> ServeReport:
        """Serve the whole stream; returns the deterministic report.

        This is the fast path.  In solo-controller mode it detaches the
        journal (``controller`` becomes ``None``), so every op commits
        by :func:`~repro.control.replication.apply_entry` straight on
        the manager; recovery is O(1), maintenance writes no checkpoint
        and slices draw on a count-twin allocator.  It is bit-identical
        to :meth:`run_reference`, which the property tests in
        ``tests/serve/test_fastpath.py`` pin over arbitrary fault
        timelines.  Replicated configs commit through the group either
        way.  ``requests`` may be any iterable in arrival order (e.g.
        :meth:`~repro.serve.workload.ServeWorkload.stream`); nothing is
        pre-materialized.
        """
        if self.replication is None:
            self.controller = None
            self.allocator = _CubeLedger(self.config.allocator_cubes)
        return self._execute(requests, faults)

    def run_reference(
        self,
        requests: Union[Sequence[TenantRequest], Iterable[TenantRequest]],
        faults: Optional[FaultInjector] = None,
    ) -> ServeReport:
        """The journaled oracle plane (the pre-fast-path ``run``).

        The same ops take the same commit path as in :meth:`run`, but
        :meth:`_commit` translates each into its DurableController call,
        so every mutation goes through the WAL, recovery replays the
        journal and maintenance checkpoints it -- slow, but
        independently derived.  The fast path is pinned against this,
        digest for digest.
        """
        return self._execute(requests, faults)

    def _execute(
        self,
        requests: Union[Sequence[TenantRequest], Iterable[TenantRequest]],
        faults: Optional[FaultInjector] = None,
    ) -> ServeReport:
        if faults is not None:
            self.attach_faults(faults)

        def advance(t: float) -> None:
            if faults is not None:
                faults.advance_to(t)

        INF = math.inf
        queue = self.queue
        maintenance_interval_s = self.config.maintenance_interval_s
        length = len(requests) if hasattr(requests, "__len__") else -1
        stream = iter(requests)
        next_request = next(stream, None)
        with self.obs.tracer.span("serve.run", requests=length):
            now = 0.0
            server_free = 0.0
            next_maintenance = maintenance_interval_s
            # The event calendar, as scalars.  Four candidate events --
            # arrival (0), batch flush (1), maintenance (2), serve (3)
            # -- ordered by (time, index); absent events sit at +inf and
            # each branch invalidates only the candidates it moved.
            while next_request is not None or len(queue) or self._batch:
                arrival_t = next_request.arrival_s if next_request is not None else INF
                when = arrival_t
                what = 0
                if self._batch and self._batch_due_s < when:
                    when = self._batch_due_s
                    what = 1
                if len(queue):
                    serve_t = server_free if server_free > now else now
                    if serve_t < when:
                        when = serve_t
                        what = 3
                # Maintenance joins the calendar only once due (<= the
                # earliest other event) and loses (time, index) ties to
                # arrivals and flushes but beats serves.
                if next_maintenance <= when and (
                    next_maintenance < when or what == 3
                ):
                    when = next_maintenance
                    what = 2
                if when > now:
                    now = when
                advance(when)
                if what == 0:
                    request = next_request
                    next_request = next(stream, None)
                    self._offered += 1
                    self._sink.offered(request)
                    ok, reason = self.admission.admit(request.tenant, when)
                    if not ok:
                        self._record(request, Outcome.REJECTED, when, detail=reason)
                    else:
                        shed = queue.push(request, when)
                        if shed is not None:
                            self._sink.shed(shed)
                            by = shed.displaced_by
                            self._record(
                                shed.victim, Outcome.SHED, when,
                                detail=(
                                    "queue-full" if by is None
                                    else f"displaced-by:{by.request_id}"
                                ),
                            )
                    self._observe_pressure(when)
                elif what == 1:
                    start = max(when, server_free)
                    advance(start)
                    server_free = self._flush_batch(start)
                elif what == 2:
                    next_maintenance += maintenance_interval_s
                    if self.replication is not None:
                        # Maintenance in replicated mode is the lease
                        # heartbeat: renew + catch stragglers up.
                        if self.brownout.defer_maintenance or not self.replication.heartbeat(when):
                            self._maintenance_deferred += 1
                            self._maint_deferred_counter.inc()
                        else:
                            self._sync_commits(when)
                            self._maintenance_runs += 1
                            self._maint_runs_counter.inc()
                            server_free = (
                                max(when, server_free)
                                + self.config.maintenance_ms / 1e3
                            )
                    elif self.brownout.defer_maintenance or self._controller_down:
                        self._maintenance_deferred += 1
                        self._maint_deferred_counter.inc()
                    else:
                        if self.controller is not None:
                            # The checkpoint compacts the WAL, which
                            # only the journaled plane has.
                            self.controller.checkpoint()
                        self._maintenance_runs += 1
                        self._maint_runs_counter.inc()
                        server_free = (
                            max(when, server_free) + self.config.maintenance_ms / 1e3
                        )
                else:
                    start = max(when, server_free)
                    advance(start)
                    request = queue.pop()
                    if start > request.deadline_s:
                        self._record(
                            request, Outcome.TIMEOUT, start,
                            detail="expired-in-queue",
                        )
                        server_free = start
                    else:
                        server_free = self._dispatch(request, start)
                    self._observe_pressure(server_free)

            # The service was occupied until server_free: deliver every
            # fault (and recovery) that fired while it was still busy,
            # so a clear scheduled during the final drain is not lost.
            advance(max(now, server_free))
            group = self.replication
            if group is not None:
                self._sync_commits(max(now, server_free))
                group.finalize_outage(max(now, server_free))

            if self._sink.total_recorded != self._offered:
                raise ServeError(
                    f"partition violated: {self._offered} offered, "
                    f"{self._sink.total_recorded} terminal outcomes"
                )
            final = self._sink.finalize()
            if isinstance(final, StreamAggregates):
                records: List[RequestRecord] = []
                shed_records: List[ShedRecord] = []
                aggregates: Optional[StreamAggregates] = final
            else:
                records = final
                shed_records = list(self._sink.shed_records)
                aggregates = None
            report = ServeReport(
                config=self.config,
                records=records,
                shed_records=shed_records,
                aggregates=aggregates,
                commit_log=list(self._commit_log),
                offered=self._offered,
                downstream_attempts=self._downstream_attempts,
                deposits=self.budget.deposits,
                retries_granted=self.budget.retries_granted,
                retries_denied=self.budget.retries_denied,
                breaker_trips=self.breaker.trips,
                breaker_fast_fails=self._breaker_fast_fails,
                brownout_transitions=self.brownout.transitions,
                maintenance_runs=self._maintenance_runs,
                maintenance_deferred=self._maintenance_deferred,
                batches_flushed=self._batches_flushed,
                telemetry_cache_hits=self._cache_hits,
                telemetry_cache_misses=self._cache_misses,
                recoveries=self._recoveries,
                state_digest=self.manager.state_digest(),
                faults_digest=(
                    faults.delivered_digest() if faults is not None else ""
                ),
                failovers=self._failovers,
                late_commits=tuple(self._late),
                **({} if group is None else dict(
                    elections=group.elections,
                    fencing_rejections=group.fencing_rejections,
                    committed_ops_lost=group.committed_ops_lost(),
                    failover_durations_s=tuple(group.failover_durations_s),
                    failover_unavailable_s=group.unavailable_s,
                )),
            )
            self.obs.metrics.gauge("serve.offered").set(float(report.offered))
            self.obs.metrics.gauge("serve.admitted").set(float(report.admitted))
        return report


def replay_committed(config: ServeConfig, commit_log: Sequence[CommitEntry]) -> str:
    """Serially replay the commit log against a fresh manager.

    Returns the resulting state digest, which must equal the live run's
    ``state_digest`` -- the acceptance bar for "no silent drops, no
    divergence".  Each op is applied with
    :func:`~repro.control.replication.apply_entry`.  Slice ports are
    re-derived from replayed state and checked against the committed
    port, so a drifted port chooser is an explicit
    :class:`~repro.core.errors.ServeError`, not a silently
    different-but-valid fabric.
    """
    manager = build_serve_manager(config)
    slice_ocs = config.slice_ocs.index
    previous = None
    for entry in commit_log:
        payload = entry.payload
        if payload is previous:
            continue  # the members of one coalesced batch share its op
        previous = payload
        if payload["op"] == "establish" and payload["ocs"] == slice_ocs:
            expected = _free_slice_port(manager, config)
            if expected != payload["north"]:
                raise ServeError(
                    f"replay diverged: {entry.request_id} committed port "
                    f"{payload['north']} but replay would choose {expected}"
                )
        try:
            apply_entry(manager, payload)
        except ReplicationError as exc:
            raise ServeError(f"{entry.request_id}: {exc}") from exc
    return manager.state_digest()
