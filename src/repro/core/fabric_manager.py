"""The fabric-manager control plane: programming circuits across many OCSes.

The paper integrates OCSes into the same control/monitoring infrastructure
as electrical switches (§3.2.2).  :class:`FabricManager` is the
reproduction's stand-in for that control plane: it owns a set of switch
devices (anything satisfying :class:`SwitchLike`), a table of *logical
links* (named end-to-end connections), and executes multi-OCS
reconfiguration transactions built from hitless per-OCS plans.

The manager is deliberately independent of the Palomar physics model so it
can drive both the detailed :class:`repro.ocs.palomar.PalomarOcs` and
lightweight map-only switches in tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Protocol, Tuple

from repro.core.crossconnect import Circuit, CrossConnectMap
from repro.core.errors import (
    ConfigurationError,
    ControllerCrash,
    CrossConnectError,
    PartialTransactionError,
    TopologyError,
    TransactionError,
)
from repro.core.ids import LinkId, OcsId
from repro.core.reconfig import (
    ReconfigPlan,
    ReconfigStats,
    plan_delta,
    plan_reconfiguration,
)
from repro.obs import NULL_OBS, Observability


class SwitchLike(Protocol):
    """Minimal interface the fabric manager needs from a switch device."""

    @property
    def radix(self) -> int:
        """Number of duplex ports per side."""

    @property
    def state(self) -> CrossConnectMap:
        """Current cross-connect state (live view)."""

    def apply_plan(self, plan: ReconfigPlan) -> float:
        """Execute a reconfiguration plan; return its duration in ms."""


@dataclass
class SimpleSwitch:
    """A map-only switch used by tests and by the pure control-plane paths."""

    _radix: int
    _state: CrossConnectMap = field(init=False)

    def __post_init__(self) -> None:
        self._state = CrossConnectMap(self._radix)

    @property
    def radix(self) -> int:
        return self._radix

    @property
    def state(self) -> CrossConnectMap:
        return self._state

    def apply_plan(self, plan: ReconfigPlan) -> float:
        duration = plan.duration_ms()
        plan.apply(self._state)
        return duration


@dataclass(frozen=True)
class LogicalLink:
    """A named end-to-end connection realized by one OCS circuit."""

    link_id: LinkId
    ocs: OcsId
    north: int
    south: int

    def __str__(self) -> str:
        return f"{self.link_id}@{self.ocs}[N{self.north}<->S{self.south}]"


class FabricManager:
    """Central controller for a fleet of optical circuit switches.

    Typical use::

        mgr = FabricManager()
        mgr.add_switch(OcsId(0), PalomarOcs.build(seed=1))
        mgr.establish(LinkId("cubeA-cubeB"), OcsId(0), north=3, south=41)
        ...
        mgr.reconfigure({OcsId(0): target_map})
    """

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self._switches: Dict[OcsId, SwitchLike] = {}
        self._links: Dict[LinkId, LogicalLink] = {}
        self.stats = ReconfigStats()
        # state_digest() caches: per switch index (state, version, JSON),
        # the link-table JSON (dropped by every link mutator) and the last
        # digest.
        self._switch_json: Dict[int, Tuple[CrossConnectMap, int, str]] = {}
        self._links_json: Optional[str] = None
        self._digest: Optional[str] = None
        #: Observability bundle; NULL_OBS (shared no-op) when not supplied,
        #: so the instrumented paths cost one no-op call each.
        self.obs = obs if obs is not None else NULL_OBS

    # ------------------------------------------------------------------ #
    # Inventory
    # ------------------------------------------------------------------ #

    def add_switch(self, ocs_id: OcsId, switch: SwitchLike) -> None:
        """Register a switch under ``ocs_id``."""
        if ocs_id in self._switches:
            raise ConfigurationError(f"{ocs_id} already registered")
        self._switches[ocs_id] = switch

    def switch(self, ocs_id: OcsId) -> SwitchLike:
        """Return the registered switch for ``ocs_id``."""
        try:
            return self._switches[ocs_id]
        except KeyError:
            raise TopologyError(f"unknown switch {ocs_id}") from None

    @property
    def switch_ids(self) -> Tuple[OcsId, ...]:
        return tuple(sorted(self._switches))

    @property
    def num_circuits(self) -> int:
        """Total circuits established across all switches."""
        return sum(sw.state.num_circuits for sw in self._switches.values())

    # ------------------------------------------------------------------ #
    # Logical links
    # ------------------------------------------------------------------ #

    def establish(self, link_id: LinkId, ocs_id: OcsId, north: int, south: int) -> LogicalLink:
        """Create one circuit and record it as a logical link."""
        if link_id in self._links:
            raise ConfigurationError(f"link {link_id} already exists")
        sw = self.switch(ocs_id)
        sw.state.connect(north, south)
        link = LogicalLink(link_id, ocs_id, north, south)
        self._links[link_id] = link
        self._links_json = None
        self.obs.metrics.counter("fabric.link.establish").inc()
        return link

    def adopt_link(self, link_id: LinkId, ocs_id: OcsId, north: int, south: int) -> LogicalLink:
        """Record a logical link for a circuit that already exists.

        Used after a transaction established the circuit through a
        reconfiguration plan rather than :meth:`establish`.
        """
        if link_id in self._links:
            raise ConfigurationError(f"link {link_id} already exists")
        sw = self.switch(ocs_id)
        if sw.state.south_of(north) != south:
            raise CrossConnectError(
                f"{ocs_id}: no circuit N{north} -> S{south} to adopt for {link_id}"
            )
        link = LogicalLink(link_id, ocs_id, north, south)
        self._links[link_id] = link
        self._links_json = None
        return link

    def teardown(self, link_id: LinkId) -> None:
        """Destroy a logical link and its circuit.

        Validates first, then mutates: the circuit is disconnected before
        the logical-link record is dropped, so a failure (unknown switch,
        circuit already gone) leaves the record in place where
        :meth:`verify_links` and the reconciler can still see the drift.
        """
        link = self._links.get(link_id)
        if link is None:
            raise TopologyError(f"unknown link {link_id}")
        sw = self.switch(link.ocs)  # may raise; record intentionally kept
        if sw.state.south_of(link.north) != link.south:
            raise CrossConnectError(
                f"{link_id}: circuit N{link.north} -> S{link.south} not present "
                f"on {link.ocs} (drift); record kept for reconciliation"
            )
        sw.state.disconnect(link.north)
        del self._links[link_id]
        self._links_json = None
        self.obs.metrics.counter("fabric.link.teardown").inc()

    def link(self, link_id: LinkId) -> LogicalLink:
        """Look up a logical link by id."""
        try:
            return self._links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link {link_id}") from None

    @property
    def links(self) -> Tuple[LogicalLink, ...]:
        return tuple(self._links[k] for k in sorted(self._links))

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #

    def plan(self, targets: Mapping[OcsId, CrossConnectMap]) -> Dict[OcsId, ReconfigPlan]:
        """Compute per-switch hitless plans toward the given target maps."""
        plans: Dict[OcsId, ReconfigPlan] = {}
        for ocs_id, target in targets.items():
            sw = self.switch(ocs_id)
            if target.radix != sw.radix:
                raise CrossConnectError(
                    f"{ocs_id}: target radix {target.radix} != switch radix {sw.radix}"
                )
            plans[ocs_id] = plan_reconfiguration(sw.state, target)
        return plans

    def reconfigure(self, targets: Mapping[OcsId, CrossConnectMap]) -> float:
        """Atomically drive a set of switches to target maps.

        All plans are computed first (so a bad target aborts the whole
        transaction with no partial state), then committed by
        :meth:`transact`.  Switches reconfigure in parallel in the real
        system; the returned duration is therefore the *maximum*
        per-switch duration, not the sum.
        """
        return self._commit(self.plan(targets))

    def reconfigure_delta(
        self, deltas: Mapping[OcsId, Tuple[Iterable[Circuit], Iterable[Circuit]]]
    ) -> float:
        """Atomically apply ``{ocs: (removes, adds)}`` circuit deltas.

        The same transaction as :meth:`reconfigure` toward the targets
        ``(state - removes) | adds``, but each switch is planned with
        :func:`~repro.core.reconfig.plan_delta` against its own live
        state, so the cost follows the circuits that change rather than
        the switch radix.  Every plan is computed (and validated) before
        any switch is touched.
        """
        plans = {
            ocs_id: plan_delta(self.switch(ocs_id).state, removes, adds)
            for ocs_id, (removes, adds) in deltas.items()
        }
        return self._commit(plans)

    def _commit(self, plans: Mapping[OcsId, ReconfigPlan]) -> float:
        """:meth:`transact` under the ``fabric.reconfigure`` span, with
        the commit count and latency recorded."""
        with self.obs.tracer.span("fabric.reconfigure", switches=len(plans)) as span:
            try:
                max_duration = self.transact(plans)
            except PartialTransactionError as err:
                span.set_attr("rolled_back", err.rolled_back)
                raise
            self.obs.metrics.counter("fabric.reconfig.commits").inc()
            # The returned latency models parallel switch programming
            # (max, not the span's serialized sum).
            self.obs.metrics.histogram("fabric.reconfig.duration_ms").observe(
                max_duration
            )
        return max_duration

    def transact(
        self,
        plans: Mapping[OcsId, ReconfigPlan],
        step: Optional[Callable[[OcsId, ReconfigPlan], float]] = None,
        commit: Optional[Callable[[], None]] = None,
    ) -> float:
        """Apply per-switch plans in switch order as one transaction.

        The one per-switch transaction loop: :meth:`reconfigure`,
        :meth:`reconfigure_delta` and the journaled and resilient front
        ends all commit through it.  ``step(ocs_id, plan)`` programs one
        switch and returns its ms (default :meth:`apply_switch_plan`).
        Once every switch is programmed, ``commit()`` (if given) marks
        the commit point, then links whose circuit moved are dropped;
        returns the maximum per-switch duration.

        If a step raises, the switches already programmed are undone
        newest first (:meth:`undo_switch_plan`) and
        :class:`~repro.core.errors.PartialTransactionError` is raised from
        the cause, with the cause's ``attempts`` if it has them (else 1);
        a failed undo reads ``rolled_back=False``.  A
        :class:`~repro.core.errors.ControllerCrash` propagates untouched:
        the controller died, and recovery owns the hardware.
        """
        if step is None:
            step = self.apply_switch_plan
        order = sorted(plans)
        max_duration = 0.0
        for i, ocs_id in enumerate(order):
            try:
                duration = step(ocs_id, plans[ocs_id])
            except ControllerCrash:
                raise
            except Exception as err:
                rolled_back = True
                for done in reversed(order[:i]):
                    try:
                        rolled_back = self.undo_switch_plan(done, plans[done]) and rolled_back
                    except Exception:
                        rolled_back = False
                self.obs.metrics.counter("fabric.reconfig.rollbacks").inc()
                raise PartialTransactionError(
                    f"programming {ocs_id} raised mid-transaction ({err}); "
                    f"applied switches {'restored' if rolled_back else 'NOT restored'}",
                    ocs_id=ocs_id,
                    attempts=err.attempts if isinstance(err, TransactionError) else 1,
                    applied=order[:i],
                    unapplied=order[i:],
                    rolled_back=rolled_back,
                ) from err
            max_duration = max(max_duration, duration)
        if commit is not None:
            commit()
        self.drop_stale_links()
        return max_duration

    def undo_switch_plan(self, ocs_id: OcsId, plan: ReconfigPlan) -> bool:
        """Apply ``plan.inverse()`` to a switch that realized ``plan``.

        The rollback step of :meth:`transact`.  No snapshot is needed: a plan
        names its own pre-image (``unchanged | breaks``), and the return
        value says whether the switch is back at it.  Statistics are not
        recorded, since an undone plan never took effect.
        """
        sw = self.switch(ocs_id)
        inverse = plan.inverse()
        if not inverse.is_noop:
            sw.apply_plan(inverse)
        return sw.state.circuits == plan.pre_image

    def apply_switch_plan(self, ocs_id: OcsId, plan: ReconfigPlan) -> float:
        """Apply one switch's plan and record statistics; returns ms.

        The default step of :meth:`transact`, and the one the journaled
        and resilient front ends wrap.
        """
        with self.obs.tracer.span(
            "fabric.apply_plan", ocs=ocs_id, disturbed=plan.num_disturbed
        ):
            duration = self.switch(ocs_id).apply_plan(plan)
            self.obs.clock.advance(duration)
        self.stats.record(plan, duration)
        self.obs.metrics.counter("fabric.plan.applies").inc()
        self.obs.metrics.histogram("fabric.plan.duration_ms").observe(duration)
        return duration

    def drop_stale_links(self) -> None:
        """Remove logical-link records whose circuit no longer exists."""
        stale: List[LinkId] = []
        for link_id, link in self._links.items():
            sw = self._switches.get(link.ocs)
            if sw is None or sw.state.south_of(link.north) != link.south:
                stale.append(link_id)
        for link_id in stale:
            del self._links[link_id]
        if stale:
            self._links_json = None
            self.obs.metrics.counter("fabric.link.dropped_stale").inc(len(stale))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[OcsId, CrossConnectMap]:
        """Deep-copy of every switch's current cross-connect state."""
        return {ocs_id: sw.state.copy() for ocs_id, sw in self._switches.items()}

    def verify_links(self) -> Tuple[LinkId, ...]:
        """Return ids of logical links whose circuit is missing or wrong."""
        bad = []
        for link_id, link in sorted(self._links.items()):
            sw = self._switches.get(link.ocs)
            if sw is None or sw.state.south_of(link.north) != link.south:
                bad.append(link_id)
        return tuple(bad)

    # ------------------------------------------------------------------ #
    # Durability (checkpoint / restore / digests)
    # ------------------------------------------------------------------ #

    def replace_links(self, links: Iterable[LogicalLink]) -> None:
        """Overwrite the logical-link table (recovery / reconciliation).

        Unlike :meth:`establish` this records intent without touching any
        switch: recovery rebuilds the table from the journal and then
        drives hardware toward it.
        """
        self._links = {link.link_id: link for link in links}
        self._links_json = None

    def checkpoint(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the full control-plane state.

        Captures every switch's circuits and the logical-link table in a
        canonical (sorted) form; feed it back to :meth:`restore`, or hash
        it with :meth:`state_digest`.
        """
        return {
            "switches": {
                str(ocs_id.index): {
                    "radix": sw.radix,
                    "circuits": [[n, s] for n, s in sorted(sw.state.circuits)],
                }
                for ocs_id, sw in sorted(self._switches.items())
            },
            "links": self._link_rows(),
        }

    def _link_rows(self) -> List[List[object]]:
        """The checkpoint's link table: ``[name, ocs, north, south]`` rows
        in link-id order."""
        return [
            [str(link.link_id), link.ocs.index, link.north, link.south]
            for link in sorted(self._links.values(), key=lambda link: link.link_id.name)
        ]

    def restore(self, snapshot: Mapping[str, object]) -> None:
        """Drive registered switches and the link table to a checkpoint.

        Every switch named in the snapshot must already be registered
        with a matching radix (devices survive a controller crash; only
        the controller's volatile state is being restored).  Hardware is
        moved with hitless plans, so circuits already in the checkpointed
        position are not disturbed.
        """
        switches: Mapping[str, Mapping[str, object]] = snapshot["switches"]  # type: ignore[assignment]
        for key, entry in sorted(switches.items()):
            ocs_id = OcsId(int(key))
            sw = self.switch(ocs_id)
            if sw.radix != entry["radix"]:
                raise ConfigurationError(
                    f"{ocs_id}: checkpoint radix {entry['radix']} != switch "
                    f"radix {sw.radix}"
                )
            target = CrossConnectMap.from_circuits(
                sw.radix, {int(n): int(s) for n, s in entry["circuits"]}
            )
            undo = plan_reconfiguration(sw.state, target)
            if not undo.is_noop:
                sw.apply_plan(undo)
        self.replace_links(
            LogicalLink(LinkId(str(name)), OcsId(int(ocs)), int(n), int(s))
            for name, ocs, n, s in snapshot["links"]  # type: ignore[union-attr]
        )

    def state_digest(self) -> str:
        """SHA-256 over the canonical checkpoint: equal digests mean the
        switch states and link tables are byte-identical.

        The bytes hashed are exactly ``json.dumps(checkpoint(),
        sort_keys=True, separators=(",", ":"))``, but built incrementally:
        each switch's JSON fragment is cached against its state object and
        that map's mutation counter (:attr:`CrossConnectMap.version`), so
        only switches whose circuits changed are re-serialized, and the
        link-table JSON is re-rendered only after a link mutator ran.  No
        caller has to invalidate anything; an unchanged fabric returns the
        previous digest without hashing.
        """
        fresh = self._digest is None
        cache = self._switch_json
        for ocs_id, sw in self._switches.items():
            index, state = ocs_id.index, sw.state
            entry = cache.get(index)
            if entry is None or entry[0] is not state or entry[1] != state.version:
                circuits = [[n, s] for n, s in sorted(state.circuits)]
                body = _canonical_json({"radix": sw.radix, "circuits": circuits})
                cache[index] = (state, state.version, f'"{index}":{body}')
                fresh = True
        if self._links_json is None:
            self._links_json = _canonical_json(self._link_rows())
            fresh = True
        if not fresh:
            return self._digest  # type: ignore[return-value]
        # json.dumps(sort_keys=True) orders the stringified indices
        # lexicographically ("10" < "2"), not numerically.
        switches = ",".join(cache[index][2] for index in sorted(cache, key=str))
        payload = f'{{"links":{self._links_json},"switches":{{{switches}}}}}'
        self._digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self._digest


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call: the serialization state_digest() hashes.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
