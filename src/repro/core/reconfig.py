"""Reconfiguration planning: hitless diffs between cross-connect maps.

The paper's key reconfiguration-flexibility requirement (§2.3) is *the
ability to keep certain connections undisturbed while making changes
elsewhere* -- job isolation.  Given a current and a target
:class:`~repro.core.crossconnect.CrossConnectMap`, the planner computes the
minimal set of circuits to break and make; circuits present in both maps
are left untouched, so jobs whose connectivity is unchanged never see a
glitch.

The plan also estimates the reconfiguration duration.  MEMS mirrors switch
in parallel, so the duration of a batch is one mirror settle time plus a
fixed control-plane overhead -- not proportional to the number of circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.crossconnect import Circuit, CrossConnectMap
from repro.core.errors import CrossConnectError, PortInUseError

#: Mirror settle time for a MEMS OCS, milliseconds (Table C.1: milliseconds).
DEFAULT_SWITCH_TIME_MS = 10.0

#: Fixed control-plane overhead per reconfiguration transaction, ms.
DEFAULT_CONTROL_OVERHEAD_MS = 5.0


@dataclass(frozen=True)
class ReconfigPlan:
    """The delta between two cross-connect maps.

    Attributes:
        breaks: circuits present now but absent from the target.
        makes: circuits absent now but present in the target.
        unchanged: circuits present in both (left physically untouched).
    """

    radix: int
    breaks: FrozenSet[Circuit]
    makes: FrozenSet[Circuit]
    unchanged: FrozenSet[Circuit]

    @property
    def is_noop(self) -> bool:
        """True when the target equals the current state."""
        return not self.breaks and not self.makes

    @property
    def pre_image(self) -> FrozenSet[Circuit]:
        """The circuits of the map this plan starts from."""
        return self.unchanged | self.breaks

    @property
    def num_disturbed(self) -> int:
        """Number of circuits that experience an interruption."""
        return len(self.breaks) + len(self.makes)

    def duration_ms(
        self,
        switch_time_ms: float = DEFAULT_SWITCH_TIME_MS,
        control_overhead_ms: float = DEFAULT_CONTROL_OVERHEAD_MS,
    ) -> float:
        """Wall-clock duration of applying this plan.

        Breaks and makes each take one parallel mirror-settle batch; a noop
        costs nothing.
        """
        if self.is_noop:
            return 0.0
        batches = (1 if self.breaks else 0) + (1 if self.makes else 0)
        return control_overhead_ms + batches * switch_time_ms

    def inverse(self) -> "ReconfigPlan":
        """The plan that exactly undoes this one.

        Applying a plan and then its inverse restores the starting
        :class:`~repro.core.crossconnect.CrossConnectMap` bit for bit --
        the rollback primitive of resilient transactions
        (:mod:`repro.faults.resilience`).  Unchanged circuits stay
        unchanged, so a rollback is as job-isolating as the forward plan.
        """
        return ReconfigPlan(
            radix=self.radix,
            breaks=self.makes,
            makes=self.breaks,
            unchanged=self.unchanged,
        )

    def apply(self, current: CrossConnectMap) -> None:
        """Mutate ``current`` in place to realize this plan.

        Breaks are executed before makes so freed ports become available.
        """
        if current.radix != self.radix:
            raise CrossConnectError(
                f"plan radix {self.radix} does not match map radix {current.radix}"
            )
        for north, south in sorted(self.breaks):
            freed = current.disconnect(north)
            if freed != south:
                raise CrossConnectError(
                    f"plan expected north {north} -> south {south}, found {freed}"
                )
        for north, south in sorted(self.makes):
            current.connect(north, south)


def plan_reconfiguration(
    current: CrossConnectMap, target: CrossConnectMap
) -> ReconfigPlan:
    """Compute the hitless delta taking ``current`` to ``target``.

    The returned plan touches exactly the symmetric difference of the two
    circuit sets; shared circuits are reported in ``unchanged``.
    """
    if current.radix != target.radix:
        raise CrossConnectError(
            f"cannot plan between radix {current.radix} and {target.radix}"
        )
    now = current.circuits
    want = target.circuits
    return ReconfigPlan(
        radix=current.radix,
        breaks=frozenset(now - want),
        makes=frozenset(want - now),
        unchanged=frozenset(now & want),
    )


def plan_delta(
    current: CrossConnectMap,
    removes: Iterable[Circuit],
    adds: Iterable[Circuit],
) -> ReconfigPlan:
    """Plan the move from ``current`` to ``(current - removes) | adds``.

    Returns exactly the plan :func:`plan_reconfiguration` returns for that
    target, built without constructing or diffing the target map: the
    cost is a few lookups per circuit in ``removes`` and ``adds``, and
    only the ports an added circuit lands on are validated.  A removed
    circuit absent from ``current`` is ignored; an added circuit already
    present stays unchanged.  ``current`` is never mutated.

    Raises the error building the target map in sorted circuit order
    would raise first: :class:`~repro.core.errors.CrossConnectError` for
    an out-of-range port, :class:`~repro.core.errors.PortInUseError` when
    an added circuit shares a port with a kept circuit or another add.
    """
    # Read the live dicts directly: this is the per-transaction hot path.
    n_to_s = current._n_to_s
    adds = frozenset(adds)
    breaks = frozenset(
        c for c in removes if n_to_s.get(c[0]) == c[1] and c not in adds
    )
    makes = [c for c in adds if n_to_s.get(c[0]) != c[1]]
    if makes:
        _check_makes(current, breaks, makes)
    return ReconfigPlan(
        radix=current.radix,
        breaks=breaks,
        makes=frozenset(makes),
        unchanged=current.circuits - breaks,
    )


def _check_makes(
    current: CrossConnectMap, breaks: FrozenSet[Circuit], makes: List[Circuit]
) -> None:
    """Raise the first error of connecting the delta's target in order.

    ``from_circuits`` connects the target's circuits in sorted order and
    fails on the first circuit that cannot be connected: an out-of-range
    make fails at its own position, a make clashing with an earlier make
    at the later one, and a make clashing with a kept circuit at whichever
    of the two sorts last.  The error with the smallest position wins.
    """
    radix, n_to_s, s_to_n = current.radix, current._n_to_s, current._s_to_n
    first: Optional[Tuple[Circuit, CrossConnectError]] = None
    made_n: Dict[int, int] = {}
    made_s: Dict[int, int] = {}
    for make in sorted(makes):
        if first is not None and make > first[0]:
            break
        n, s = make
        for side, port in (("north", n), ("south", s)):
            if not 0 <= port < radix:
                raise CrossConnectError(f"{side} port {port} out of range [0, {radix})")
        if n in made_n:
            raise PortInUseError(f"north port {n} already connected to south {made_n[n]}")
        if s in made_s:
            raise PortInUseError(f"south port {s} already connected to north {made_s[s]}")
        for kept in ((n, n_to_s.get(n)), (s_to_n.get(s), s)):
            if None in kept or kept in breaks:
                continue
            if kept < make:
                raise PortInUseError(
                    f"port of {make} already used by circuit {kept}"
                )
            if first is None or kept < first[0]:
                first = (kept, PortInUseError(f"port of {kept} already used by circuit {make}"))
        made_n[n] = s
        made_s[s] = n
    if first is not None:
        raise first[1]


@dataclass
class ReconfigStats:
    """Running statistics over a sequence of reconfigurations."""

    transactions: int = 0
    circuits_broken: int = 0
    circuits_made: int = 0
    circuits_preserved: int = 0
    total_duration_ms: float = 0.0
    _durations: list = field(default_factory=list, repr=False)

    def record(self, plan: ReconfigPlan, duration_ms: float) -> None:
        """Accumulate one executed plan."""
        self.transactions += 1
        self.circuits_broken += len(plan.breaks)
        self.circuits_made += len(plan.makes)
        self.circuits_preserved += len(plan.unchanged)
        self.total_duration_ms += duration_ms
        self._durations.append(duration_ms)

    @property
    def mean_duration_ms(self) -> float:
        return self.total_duration_ms / self.transactions if self.transactions else 0.0

    @property
    def hitless_fraction(self) -> float:
        """Fraction of all touched-or-preserved circuits left undisturbed."""
        total = self.circuits_broken + self.circuits_made + self.circuits_preserved
        return self.circuits_preserved / total if total else 1.0
