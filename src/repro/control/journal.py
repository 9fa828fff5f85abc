"""The durable fabric-manager front end and its crash-recovery protocol.

Mission-Apollo-style management plane (§3.2.2): the controller's
volatile state (the logical-link table, in-flight transactions) must be
reconstructible after a crash, because the hardware keeps running -- the
switches hold their mirrors wherever the dead controller left them.

:class:`DurableController` wraps a :class:`~repro.core.fabric_manager.
FabricManager` so that **every intent mutation is journaled before any
switch is touched**.  Every record payload is an
:func:`~repro.control.replication.apply_entry` op (plus its ``token``,
if any) -- the vocabulary of the replicated and serving commit logs too.

- single ops (``establish``/``adopt``/``teardown``) are one ``op``
  record each -- the record *is* the commit marker, so a crash between
  the append and the hardware apply rolls the op forward on recovery;
- multi-OCS ``reconfigure`` is a transaction: its ``txn-begin`` record
  is one ``reconfigure`` op holding each switch's breaks and makes from
  the hitless plans (so its size follows the circuits that move, not
  the radix), per-switch ``txn-apply`` records land as each switch is
  programmed, and a ``txn-commit`` marker seals the batch.  The
  manager's one transaction loop (:meth:`~repro.core.fabric_manager.
  FabricManager.transact`) programs the switches, so a switch that
  raises mid-way gets its inverse-plan rollback, while a controller
  crash propagates untouched for recovery to settle;
- ``checkpoint()`` snapshots the whole control plane into the log and
  compacts everything older.

:func:`recover` is the restart path: repair the WAL tail, restore the
last checkpoint into an *intent* manager of plain switches, and apply
every committed op with ``apply_entry`` -- the live planes' own apply,
so recovery cannot drift from live semantics.  A transaction commits
with its ``txn-commit`` marker: it rolls **forward** past the marker and
**back** before it (its op is never applied), whatever subset of
switches the crash left programmed.  Recovery then drives every switch
to the intent with hitless plans and installs its links.  Running it
twice is a no-op the second time (replay idempotence), and the resulting
:meth:`~repro.core.fabric_manager.FabricManager.state_digest` is a pure
function of the journal bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import (
    ConfigurationError,
    CrossConnectError,
    IdempotencyError,
    PortInUseError,
    RecoveryError,
    ReproError,
    TopologyError,
)
from repro.core.fabric_manager import FabricManager, LogicalLink, SimpleSwitch
from repro.core.ids import LinkId, OcsId
from repro.core.reconfig import ReconfigPlan, plan_reconfiguration
from repro.control.replication import apply_entry
from repro.control.wal import CrashSchedule, WalRecord, WriteAheadLog
from repro.obs import NULL_OBS, Observability

#: WAL record kinds written by the controller.
KIND_CHECKPOINT = "checkpoint"
KIND_OP = "op"
KIND_TXN_BEGIN = "txn-begin"
KIND_TXN_APPLY = "txn-apply"
KIND_TXN_COMMIT = "txn-commit"


def _token_spec(payload: Mapping[str, object], duration: float = 0.0) -> Tuple[object, ...]:
    """The committed result a token replays for the op ``payload``: the
    link, the transaction's ``duration`` (zero when replayed from the
    journal: the hardware work happened in the committed run), or none."""
    op = payload["op"]
    if op == "establish" or op == "adopt":
        return ("link", payload["link"], payload["ocs"], payload["north"], payload["south"])
    if op == "reconfigure":
        return ("duration", duration)
    return ("none",)


#: Sentinel distinguishing "token unknown" from a committed None result.
_TOKEN_MISS = object()


@dataclass
class DurableController:
    """WAL-backed front end to a fabric manager.

    All intent mutations flow through here; the wrapped manager's own
    mutating methods must not be called directly once a controller owns
    it, or the journal and reality diverge (the reconciler will find the
    drift, but recovery correctness is only guaranteed through this
    API).

    Args:
        manager: the fabric manager (its switches are "the hardware").
        wal: the write-ahead log; pass one whose ``storage`` survived a
            crash to :func:`recover` instead of building directly.
        crash: optional deterministic crash schedule shared with the
            WAL (drills); every append and hardware apply is a step.
        token_table_cap: retained idempotency tokens.  This cap is a
            **correctness bound**, not a tuning knob: once the table
            overflows, the oldest token is evicted (observable via the
            ``control.journal.token_evictions`` counter and
            :attr:`tokens_evicted`), and a retry that presents an
            evicted token raises :class:`~repro.core.errors.
            IdempotencyError` instead of silently double-applying.
            Size it above the maximum in-flight retry window.

    **Idempotency tokens.**  Every intent mutation accepts an optional
    ``token``.  The token rides in the journaled payload, so "this
    request committed" and "this token is burned" are the same durable
    fact: retrying a committed request with its original token replays
    the committed result without appending a second journal entry or
    touching hardware again.  Recovery rebuilds the token table from the
    WAL (and checkpoints persist it across compaction), so a client that
    crashed mid-retry can safely retry against the recovered controller.
    """

    manager: FabricManager
    wal: WriteAheadLog = field(default_factory=WriteAheadLog)
    crash: Optional[CrashSchedule] = None
    obs: Optional[Observability] = field(default=None, repr=False)
    token_table_cap: int = 4096
    _tokens: Dict[str, Tuple[object, ...]] = field(
        init=False, default_factory=dict, repr=False
    )
    _evicted_tokens: set = field(init=False, default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.obs is None:
            self.obs = NULL_OBS  # type: ignore[assignment]
        self.wal.crash = self.crash
        if self.wal.byte_size == 0:
            # Adoption bootstrap: the genesis checkpoint records the state
            # the controller inherited.  Not crash-instrumented -- the
            # operator watches this one step.
            self.wal.crash = None
            self.wal.append(KIND_CHECKPOINT, self.manager.checkpoint())
            self.wal.crash = self.crash

    # ------------------------------------------------------------------ #
    # Instrumentation
    # ------------------------------------------------------------------ #

    def _step(self, label: str) -> None:
        if self.crash is not None:
            self.crash.step(label)

    # ------------------------------------------------------------------ #
    # Idempotency tokens
    # ------------------------------------------------------------------ #

    def _token_replay(self, token: Optional[str], op: str):
        """Committed result for ``token``, or ``_TOKEN_MISS`` if unseen.

        A token whose table entry was evicted raises loudly: replaying
        it would re-execute a committed mutation, which is exactly the
        double-apply the tokens exist to prevent.
        """
        if token is None:
            return _TOKEN_MISS
        spec = self._tokens.get(token)
        if spec is None:
            if token in self._evicted_tokens:
                self.obs.metrics.counter(
                    "control.journal.token_replay_after_eviction", op=op
                ).inc()
                raise IdempotencyError(
                    f"token {token!r} ({op}) was evicted from the idempotency "
                    f"table (cap {self.token_table_cap}); its committed result "
                    "can no longer be replayed safely -- raise token_table_cap "
                    "above the in-flight retry window"
                )
            return _TOKEN_MISS
        self.obs.metrics.counter("control.journal.token_replays", op=op).inc()
        if spec[0] == "link":
            return LogicalLink(
                LinkId(str(spec[1])), OcsId(int(spec[2])), int(spec[3]), int(spec[4])
            )
        if spec[0] == "duration":
            return float(spec[1])
        return None  # committed teardown

    def _remember(self, token: Optional[str], spec: Tuple[object, ...]) -> None:
        if token is None:
            return
        self._tokens[token] = spec
        self._evicted_tokens.discard(token)
        while len(self._tokens) > self.token_table_cap:
            evicted = next(iter(self._tokens))
            self._tokens.pop(evicted)
            self._evicted_tokens.add(evicted)
            self.obs.metrics.counter("control.journal.token_evictions").inc()

    @property
    def known_tokens(self) -> int:
        return len(self._tokens)

    @property
    def tokens_evicted(self) -> int:
        """Tokens dropped past :attr:`token_table_cap` -- each one is a
        request id that can no longer be retried safely."""
        return len(self._evicted_tokens)

    # ------------------------------------------------------------------ #
    # Single-record ops (the record is the commit marker)
    # ------------------------------------------------------------------ #

    def _journal_op(
        self, payload: Dict[str, object], link_id: LinkId, token: Optional[str]
    ) -> None:
        """Journal one single-record op, then apply it to the manager."""
        op = str(payload["op"])
        with self.obs.tracer.span("control.op", op=op, link=link_id):
            if token is not None:
                payload["token"] = token
            self.wal.append(KIND_OP, payload)
            self._remember(token, _token_spec(payload))
            self._step("op-durable")
            apply_entry(self.manager, payload)
            self._step("op-applied")
        self.obs.metrics.counter("control.journal.ops", op=op).inc()

    def _link_op(
        self, op: str, link_id: LinkId, ocs_id: OcsId, north: int, south: int,
        token: Optional[str],
    ) -> LogicalLink:
        replay = self._token_replay(token, op)
        if replay is not _TOKEN_MISS:
            return replay  # type: ignore[return-value]
        try:
            self.manager.link(link_id)
        except TopologyError:
            pass
        else:
            raise ConfigurationError(f"link {link_id} already exists")
        state = self.manager.switch(ocs_id).state
        if op == "adopt" and state.south_of(north) != south:
            raise CrossConnectError(
                f"{ocs_id}: no circuit N{north} -> S{south} to adopt for {link_id}"
            )
        if op == "establish" and (
            state.south_of(north) is not None or state.north_of(south) is not None
        ):
            raise PortInUseError(
                f"{ocs_id}: N{north} or S{south} already carries a circuit"
            )
        self._journal_op(
            {"op": op, "link": str(link_id), "ocs": ocs_id.index,
             "north": north, "south": south},
            link_id, token,
        )
        return self.manager.link(link_id)

    def establish(
        self, link_id: LinkId, ocs_id: OcsId, north: int, south: int, *,
        token: Optional[str] = None,
    ) -> LogicalLink:
        """Journal then create one circuit + logical link."""
        return self._link_op("establish", link_id, ocs_id, north, south, token)

    def adopt_link(
        self, link_id: LinkId, ocs_id: OcsId, north: int, south: int, *,
        token: Optional[str] = None,
    ) -> LogicalLink:
        """Journal then record intent for an already-existing circuit."""
        return self._link_op("adopt", link_id, ocs_id, north, south, token)

    def teardown(self, link_id: LinkId, *, token: Optional[str] = None) -> None:
        """Journal then destroy a logical link and its circuit."""
        replay = self._token_replay(token, "teardown")
        if replay is not _TOKEN_MISS:
            return None
        self.manager.link(link_id)  # an unknown link is refused unjournaled
        self._journal_op({"op": "teardown", "link": str(link_id)}, link_id, token)

    # ------------------------------------------------------------------ #
    # Multi-OCS transactions
    # ------------------------------------------------------------------ #

    def reconfigure(
        self,
        targets: Mapping[OcsId, CrossConnectMap],
        *,
        token: Optional[str] = None,
    ) -> float:
        """Journaled multi-OCS reconfiguration.

        ``txn-begin`` (one ``reconfigure`` op: each switch's breaks and
        makes) -> per-switch apply + ``txn-apply`` -> ``txn-commit``,
        programmed by the manager's transaction loop
        (:meth:`~repro.core.fabric_manager.FabricManager.transact`).  A
        crash at any point recovers deterministically: forward past the
        commit marker, back before it.  A switch that raises anything but
        a :class:`~repro.core.errors.ControllerCrash` gets the loop's
        rollback and :class:`~repro.core.errors.PartialTransactionError`;
        the transaction never commits, so the live fabric and a recovery
        from the journal agree.  The token (if any) rides on
        ``txn-begin`` but is only burned by the commit marker -- a
        rolled-back transaction leaves its token spendable, so the retry
        re-executes.
        """
        replay = self._token_replay(token, "reconfigure")
        if replay is not _TOKEN_MISS:
            return float(replay)  # type: ignore[arg-type]
        plans = self.manager.plan(targets)
        payload: Dict[str, object] = {
            "op": "reconfigure",
            "switches": [
                [ocs_id.index, sorted(map(list, plans[ocs_id].breaks)),
                 sorted(map(list, plans[ocs_id].makes))]
                for ocs_id in sorted(plans)
            ],
        }
        if token is not None:
            payload["token"] = token
        self.wal.append(KIND_TXN_BEGIN, payload)
        self._step("txn-begin-durable")

        def program(ocs_id: OcsId, plan: ReconfigPlan) -> float:
            duration = self.manager.apply_switch_plan(ocs_id, plan)
            self._step("txn-switch-applied")
            self.wal.append(KIND_TXN_APPLY, {"ocs": ocs_id.index})
            self._step("txn-apply-durable")
            return duration

        def commit() -> None:
            self.wal.append(KIND_TXN_COMMIT, {})
            self._step("txn-commit-durable")

        with self.obs.tracer.span("control.txn", switches=len(plans)):
            max_duration = self.manager.transact(plans, program, commit)
            self._remember(token, _token_spec(payload, max_duration))
            self.obs.metrics.counter("control.txn.commits").inc()
        return max_duration

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> WalRecord:
        """Snapshot the control plane into the log and compact behind it.

        The idempotency-token table rides in the checkpoint payload
        (insertion order preserved, for eviction), so compaction cannot
        forget which requests already committed.
        """
        with self.obs.tracer.span("control.checkpoint"):
            payload = dict(self.manager.checkpoint())
            payload["tokens"] = [
                [tok, *spec] for tok, spec in self._tokens.items()
            ]
            # Evicted tokens are durable too: compaction must not turn
            # "evicted, unsafe to retry" back into "never seen".
            payload["evicted_tokens"] = sorted(self._evicted_tokens)
            record = self.wal.append(KIND_CHECKPOINT, payload)
            self._step("checkpoint-durable")
            self.wal.compact(record.seq)
        self.obs.metrics.counter("control.checkpoint.writes").inc()
        return record

    def state_digest(self) -> str:
        """Digest of the live control-plane state (delegates)."""
        return self.manager.state_digest()


# ---------------------------------------------------------------------- #
# Recovery
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class RecoveryReport:
    """What one crash recovery did, deterministically.

    Attributes:
        records_replayed: committed records applied after the checkpoint.
        checkpoint_seq: seq of the checkpoint the replay started from
            (``-1`` when the log held none).
        tail_bytes_dropped: torn/corrupt tail bytes discarded.
        open_txn: fate of the at-most-one unfinished transaction --
            ``"none"``, ``"rolled-forward"`` (commit marker durable), or
            ``"rolled-back"``.
        switches_repaired: switches whose hardware needed driving.
        circuits_driven: total breaks+makes recovery applied to hardware.
        state_digest: the recovered manager's state digest.
    """

    records_replayed: int
    checkpoint_seq: int
    tail_bytes_dropped: int
    open_txn: str
    switches_repaired: int
    circuits_driven: int
    state_digest: str


def _intent_manager(checkpoint: Mapping[str, object]) -> FabricManager:
    """A fabric manager of plain switches restored to ``checkpoint``."""
    intent = FabricManager()
    for key, entry in checkpoint["switches"].items():  # type: ignore[union-attr]
        intent.add_switch(OcsId(int(key)), SimpleSwitch(int(entry["radix"])))
    intent.restore(checkpoint)
    return intent


def recover(
    manager: FabricManager,
    storage: bytearray,
    *,
    crash: Optional[CrashSchedule] = None,
    obs: Optional[Observability] = None,
) -> Tuple[DurableController, RecoveryReport]:
    """Restart the controller from surviving WAL media.

    ``manager`` must have the surviving switch devices registered --
    their hardware state is whatever the crash left -- but its volatile
    link table is ignored and rebuilt.  Returns the new controller and a
    deterministic report; raises :class:`~repro.core.errors.
    RecoveryError` if the recovered intent cannot be realized.
    """
    if obs is None:
        obs = NULL_OBS  # type: ignore[assignment]
    with obs.tracer.span("control.recover") as span:
        start_ms = obs.clock.now()
        wal = WriteAheadLog(storage)
        tail_dropped = wal.repair_tail()
        records = wal.records(strict=True)

        intent = FabricManager()
        tokens: Dict[str, Tuple[object, ...]] = {}
        evicted: set = set()
        checkpoint_seq = -1
        open_txn = "none"
        pending: Optional[Mapping[str, object]] = None
        replayed = 0

        def commit(payload: Mapping[str, object]) -> None:
            try:
                apply_entry(intent, payload)
            except ReproError as err:
                raise RecoveryError(f"journal op {payload['op']!r} cannot replay: {err}") from err
            if "token" in payload:
                tokens[str(payload["token"])] = _token_spec(payload)

        for record in records:
            if record.kind == KIND_CHECKPOINT:
                intent = _intent_manager(record.payload)
                tokens = {
                    str(tok): tuple(spec)
                    for tok, *spec in record.payload.get("tokens", [])  # type: ignore[union-attr]
                }
                evicted = {
                    str(tok)
                    for tok in record.payload.get("evicted_tokens", [])  # type: ignore[union-attr]
                }
                checkpoint_seq = record.seq
                open_txn = "none"
                pending = None
                replayed = 0
                continue
            replayed += 1
            if record.kind == KIND_OP:
                commit(record.payload)
            elif record.kind == KIND_TXN_BEGIN:
                pending = record.payload
            elif record.kind == KIND_TXN_COMMIT:
                if pending is not None:
                    commit(pending)
                    pending = None
                    open_txn = "rolled-forward"
            elif record.kind != KIND_TXN_APPLY:  # txn-apply is informational
                raise RecoveryError(f"unknown WAL record kind {record.kind!r}")
        if pending is not None:
            # No commit marker: the transaction never happened, intent-wise.
            # Hardware the crash left half-programmed is driven back to
            # the intent below.
            open_txn = "rolled-back"
        # A record after the checkpoint resurrects its token's committed
        # result, which makes the token replayable again.
        evicted.difference_update(tokens)

        switches_repaired = 0
        circuits_driven = 0
        for ocs_id in intent.switch_ids:
            try:
                sw = manager.switch(ocs_id)
            except TopologyError:
                raise RecoveryError(
                    f"journal names {ocs_id} but it is not registered with the manager"
                ) from None
            plan = plan_reconfiguration(sw.state, intent.switch(ocs_id).state)
            if not plan.is_noop:
                with obs.tracer.span(
                    "control.recover.drive", ocs=ocs_id,
                    disturbed=plan.num_disturbed,
                ):
                    obs.clock.advance(sw.apply_plan(plan))
                switches_repaired += 1
                circuits_driven += plan.num_disturbed
        manager.replace_links(intent.links)
        bad = manager.verify_links()
        if bad:
            raise RecoveryError(
                f"recovery left {len(bad)} link(s) unrealized: "
                f"{', '.join(str(b) for b in bad)}"
            )
        controller = DurableController(
            manager=manager, wal=wal, crash=crash, obs=obs
        )
        # The token table is durable state: rebuilt from the journal so
        # a client retrying across the crash replays, never re-applies.
        # The evicted set rides along so "unsafe to retry" survives too.
        controller._tokens = tokens
        controller._evicted_tokens = evicted
        report = RecoveryReport(
            records_replayed=replayed,
            checkpoint_seq=checkpoint_seq,
            tail_bytes_dropped=tail_dropped,
            open_txn=open_txn,
            switches_repaired=switches_repaired,
            circuits_driven=circuits_driven,
            state_digest=manager.state_digest(),
        )
        span.set_attr("records_replayed", replayed)
        span.set_attr("open_txn", open_txn)
        span.set_attr("switches_repaired", switches_repaired)
        obs.metrics.counter("control.recover.runs").inc()
        obs.metrics.counter("control.recover.records_replayed").inc(replayed)
        obs.metrics.counter("control.recover.circuits_driven").inc(circuits_driven)
        obs.metrics.counter("control.recover.txn_outcome", outcome=open_txn).inc()
        obs.metrics.histogram("control.recover.duration_ms").observe(
            obs.clock.now() - start_ms
        )
    return controller, report
