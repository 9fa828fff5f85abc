"""The LightwaveFabric: devices + wiring + control plane in one object.

This is the user-facing assembly for datacenter-style fabrics: register
endpoints and Palomar OCSes, wire them (or use a canned wiring plan), then
create and reconfigure endpoint-to-endpoint links by name.  The TPU
superpod (:mod:`repro.tpu.superpod`) builds its own specialized wiring on
the same primitives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import CapacityError, ConfigurationError, TopologyError
from repro.core.fabric_manager import FabricManager, SwitchLike
from repro.core.ids import LinkId, OcsId
from repro.core.topology import Endpoint
from repro.fabric.path import OpticalPath
from repro.fabric.wiring import Attachment, WiringPlan
from repro.faults.resilience import (
    ControlPlaneFaults,
    ResilientReconfigurer,
    RetryPolicy,
    TransactionResult,
)
from repro.ocs.palomar import PalomarOcs
from repro.optics.transceiver import TransceiverSpec, transceiver


@dataclass
class LightwaveFabric:
    """A fabric of OCSes interconnecting named endpoints.

    Args:
        default_spec: transceiver used for path/BER estimates when an
            endpoint does not override it.
    """

    manager: FabricManager = field(default_factory=FabricManager)
    wiring: WiringPlan = field(default_factory=WiringPlan)
    default_spec: TransceiverSpec = field(
        default_factory=lambda: transceiver("bidi_2x400g_cwdm4")
    )
    _endpoints: Dict[str, Endpoint] = field(default_factory=dict, repr=False)
    _palomars: Dict[OcsId, PalomarOcs] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    # Inventory
    # ------------------------------------------------------------------ #

    def add_ocs(self, ocs_id: OcsId, device: Optional[PalomarOcs] = None) -> PalomarOcs:
        """Register an OCS (building a seeded Palomar when none is given)."""
        device = device or PalomarOcs.build(name=str(ocs_id), seed=ocs_id.index)
        self.manager.add_switch(ocs_id, device)
        self._palomars[ocs_id] = device
        return device

    def add_endpoint(self, name: str, num_ports: int) -> Endpoint:
        """Register an endpoint with ``num_ports`` fiber ports."""
        if name in self._endpoints:
            raise ConfigurationError(f"endpoint {name!r} already registered")
        ep = Endpoint(name, num_ports)
        self._endpoints[name] = ep
        return ep

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise TopologyError(f"unknown endpoint {name!r}") from None

    def ocs(self, ocs_id: OcsId) -> PalomarOcs:
        try:
            return self._palomars[ocs_id]
        except KeyError:
            raise TopologyError(f"unknown OCS {ocs_id}") from None

    @property
    def endpoint_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._endpoints))

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def wire(
        self, endpoint: str, endpoint_port: int, ocs_id: OcsId, side: str, ocs_port: int
    ) -> Attachment:
        """Patch one endpoint fiber onto an OCS port."""
        device = self.ocs(ocs_id)
        if not 0 <= ocs_port < device.radix:
            raise ConfigurationError(
                f"{ocs_id}: port {ocs_port} out of range [0, {device.radix})"
            )
        ep = self.endpoint(endpoint)
        att = Attachment(endpoint, endpoint_port, ocs_id, side, ocs_port)
        self.wiring.add(att)
        ep.attach(endpoint_port, f"{ocs_id}/{side}{ocs_port}")
        return att

    def wire_full_mesh(self, ocs_id: OcsId) -> None:
        """Wire every registered endpoint to one OCS for any-to-any links.

        Endpoint ``i``'s port 0 lands on north port ``i`` and port 1 on
        south port ``i``.
        """
        names = self.endpoint_names
        device = self.ocs(ocs_id)
        if len(names) > device.radix:
            raise CapacityError(
                f"{len(names)} endpoints exceed {ocs_id} radix {device.radix}"
            )
        for i, name in enumerate(names):
            self.wire(name, 0, ocs_id, "N", i)
            self.wire(name, 1, ocs_id, "S", i)

    # ------------------------------------------------------------------ #
    # Links
    # ------------------------------------------------------------------ #

    def link_name(self, a: str, b: str) -> LinkId:
        """Canonical link id for the pair (order-independent)."""
        return LinkId(f"{min(a, b)}--{max(a, b)}")

    def connect(self, a: str, b: str) -> LinkId:
        """Create a circuit between two endpoints wired to a common OCS.

        Uses endpoint ``a``'s north-side attachment and ``b``'s south-side
        attachment on the first OCS carrying both.
        """
        att_a, att_b = self._find_pair(a, b)
        link_id = self.link_name(a, b)
        self.manager.establish(link_id, att_a.ocs, att_a.ocs_port, att_b.ocs_port)
        return link_id

    def disconnect(self, a: str, b: str) -> None:
        """Tear down the circuit between two endpoints."""
        self.manager.teardown(self.link_name(a, b))

    # ------------------------------------------------------------------ #
    # Resilient transactions
    # ------------------------------------------------------------------ #

    def connect_all(
        self,
        pairs: Sequence[Tuple[str, str]],
        policy: Optional[RetryPolicy] = None,
        faults: Optional[ControlPlaneFaults] = None,
        seed: int = 0,
    ) -> Tuple[TransactionResult, Tuple[LinkId, ...]]:
        """Create several endpoint links in ONE resilient transaction.

        All circuits land atomically through a
        :class:`~repro.faults.resilience.ResilientReconfigurer`: under
        injected control-plane faults either every pair is connected
        (after per-OCS retries with seeded backoff) or none is -- and
        links unrelated to the batch never glitch, even mid-retry.
        Returns the transaction result and the created link ids.
        """
        targets: Dict[OcsId, CrossConnectMap] = {}
        planned: List[Tuple[LinkId, OcsId, int, int]] = []
        for a, b in pairs:
            link_id = self.link_name(a, b)
            att_a, att_b = self._find_pair(a, b)
            target = targets.get(att_a.ocs)
            if target is None:
                target = self.manager.switch(att_a.ocs).state.copy()
                targets[att_a.ocs] = target
            target.connect(att_a.ocs_port, att_b.ocs_port)
            planned.append((link_id, att_a.ocs, att_a.ocs_port, att_b.ocs_port))
        result = ResilientReconfigurer(
            manager=self.manager,
            policy=policy or RetryPolicy(),
            faults=faults,
            seed=seed,
        ).reconfigure(targets)
        link_ids = []
        for link_id, ocs_id, north, south in planned:
            self.manager.adopt_link(link_id, ocs_id, north, south)
            link_ids.append(link_id)
        return result, tuple(link_ids)

    def _find_pair(self, a: str, b: str) -> Tuple[Attachment, Attachment]:
        """Locate a north attachment of ``a`` and south attachment of ``b``
        on the same OCS."""
        a_atts = [x for x in self.wiring.attachments if x.endpoint == a and x.side == "N"]
        b_atts = [x for x in self.wiring.attachments if x.endpoint == b and x.side == "S"]
        for att_a in a_atts:
            for att_b in b_atts:
                if att_a.ocs == att_b.ocs:
                    return att_a, att_b
        raise TopologyError(
            f"no common OCS wiring found for {a} (north) and {b} (south)"
        )

    # ------------------------------------------------------------------ #
    # Optics
    # ------------------------------------------------------------------ #

    def path_for_link(self, a: str, b: str) -> OpticalPath:
        """Physics-grounded optical path of an established link."""
        link = self.manager.link(self.link_name(a, b))
        device = self.ocs(link.ocs)
        return OpticalPath.through_ocs(
            spec=self.default_spec,
            ocs_insertion_loss_db=device.insertion_loss_db(link.north, link.south),
            ocs_return_loss_db=device.optics.worst_path_reflection_db(
                link.north, link.south
            ),
        )

    def total_power_w(self) -> float:
        """Aggregate OCS power draw of the fabric."""
        return sum(d.power_w() for d in self._palomars.values())
