"""Cross-connect maps: the programmable state of one OCS.

The Palomar OCS establishes a *bijective* partial mapping between its north
(input) and south (output) duplex ports: every north port connects to at
most one south port and vice versa, and because the optical path is
reciprocal a circuit carries traffic in both directions.

:class:`CrossConnectMap` enforces the bijection invariant on every mutation
and supports the set operations the control plane needs: diffing two maps
(for hitless reconfiguration), composing permutations, and validating
full-permutation states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

from repro.core.errors import CrossConnectError, PortInUseError

Circuit = Tuple[int, int]


@dataclass
class CrossConnectMap:
    """A partial bijection between north ports and south ports of one OCS.

    Ports are integers in ``[0, radix)`` on each side.  The map is mutable;
    use :meth:`copy` to snapshot.  ``version`` counts the mutations that
    changed the map (every :meth:`connect`, :meth:`disconnect` and
    :meth:`clear`), so a cache keyed on ``(map, version)`` is never stale.
    """

    radix: int
    _n_to_s: Dict[int, int] = field(default_factory=dict, repr=False)
    _s_to_n: Dict[int, int] = field(default_factory=dict, repr=False)
    version: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.radix <= 0:
            raise CrossConnectError(f"radix must be positive, got {self.radix}")
        # Validate any pre-seeded state.
        for n, s in self._n_to_s.items():
            self._check_range(n, s)
        if dict((s, n) for n, s in self._n_to_s.items()) != self._s_to_n:
            raise CrossConnectError("inconsistent seed maps: _s_to_n is not the inverse")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_circuits(cls, radix: int, circuits: Dict[int, int]) -> "CrossConnectMap":
        """Build a map from a ``{north: south}`` dict, validating bijection."""
        m = cls(radix)
        for n, s in sorted(circuits.items()):
            m.connect(n, s)
        return m

    @classmethod
    def identity(cls, radix: int) -> "CrossConnectMap":
        """Full permutation mapping every north port i to south port i."""
        return cls.from_circuits(radix, {i: i for i in range(radix)})

    def copy(self) -> "CrossConnectMap":
        """Return an independent snapshot of this map, at version 0.

        The source already holds the bijection invariant, so the copy
        skips ``__post_init__``'s O(radix) re-validation; maps seeded from
        caller data are still validated.
        """
        out = object.__new__(CrossConnectMap)
        out.radix = self.radix
        out._n_to_s = dict(self._n_to_s)
        out._s_to_n = dict(self._s_to_n)
        out.version = 0
        return out

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _check_range(self, north: int, south: int) -> None:
        if not 0 <= north < self.radix:
            raise CrossConnectError(f"north port {north} out of range [0, {self.radix})")
        if not 0 <= south < self.radix:
            raise CrossConnectError(f"south port {south} out of range [0, {self.radix})")

    def connect(self, north: int, south: int) -> None:
        """Create the circuit ``north <-> south``.

        Raises :class:`PortInUseError` if either port already carries a
        circuit (disconnect first; the control plane never silently moves
        live circuits).
        """
        self._check_range(north, south)
        if north in self._n_to_s:
            raise PortInUseError(
                f"north port {north} already connected to south {self._n_to_s[north]}"
            )
        if south in self._s_to_n:
            raise PortInUseError(
                f"south port {south} already connected to north {self._s_to_n[south]}"
            )
        self._n_to_s[north] = south
        self._s_to_n[south] = north
        self.version += 1

    def disconnect(self, north: int) -> int:
        """Tear down the circuit on ``north``; returns the freed south port."""
        if north not in self._n_to_s:
            raise CrossConnectError(f"north port {north} has no circuit")
        south = self._n_to_s.pop(north)
        del self._s_to_n[south]
        self.version += 1
        return south

    def retarget(self, north: int, south: int) -> None:
        """Move ``north`` onto ``south``, freeing both ports first.

        A no-op when the circuit already exists.  Otherwise the circuit on
        ``north`` (if any) and then the one holding ``south`` (if any) are
        torn down before ``north <-> south`` is connected: the explicit,
        last-writer-wins move the serving and replication planes commit.
        Ports are range-checked first, so a bad port changes nothing.
        """
        if self._n_to_s.get(north) == south:
            return
        self._check_range(north, south)
        if north in self._n_to_s:
            self.disconnect(north)
        other = self._s_to_n.get(south)
        if other is not None:
            self.disconnect(other)
        self.connect(north, south)

    def clear(self) -> None:
        """Tear down every circuit."""
        self._n_to_s.clear()
        self._s_to_n.clear()
        self.version += 1

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def south_of(self, north: int) -> Optional[int]:
        """South port connected to ``north``, or None."""
        return self._n_to_s.get(north)

    def north_of(self, south: int) -> Optional[int]:
        """North port connected to ``south``, or None."""
        return self._s_to_n.get(south)

    @property
    def circuits(self) -> FrozenSet[Circuit]:
        """The set of (north, south) circuits currently established."""
        return frozenset(self._n_to_s.items())

    @property
    def num_circuits(self) -> int:
        return len(self._n_to_s)

    @property
    def free_north(self) -> Set[int]:
        """North ports with no circuit."""
        return set(range(self.radix)) - set(self._n_to_s)

    @property
    def free_south(self) -> Set[int]:
        """South ports with no circuit."""
        return set(range(self.radix)) - set(self._s_to_n)

    def is_full_permutation(self) -> bool:
        """True when every port on both sides carries a circuit."""
        return len(self._n_to_s) == self.radix

    def is_bijective(self) -> bool:
        """Invariant check: the map is always a partial bijection.

        Returns True; provided for property-based tests which re-verify the
        internal inverse consistency.
        """
        if len(self._n_to_s) != len(self._s_to_n):
            return False
        return all(self._s_to_n.get(s) == n for n, s in self._n_to_s.items())

    def as_permutation(self) -> Tuple[int, ...]:
        """Return the full map as a tuple ``p`` with ``p[north] = south``.

        Raises :class:`CrossConnectError` if the map is not a full
        permutation.
        """
        if not self.is_full_permutation():
            raise CrossConnectError(
                f"map has {self.num_circuits}/{self.radix} circuits; not a permutation"
            )
        return tuple(self._n_to_s[n] for n in range(self.radix))

    def compose(self, other: "CrossConnectMap") -> "CrossConnectMap":
        """Return the composition ``other ∘ self`` as a new map.

        North port ``n`` of the result maps to ``other.south_of(self.south_of(n))``
        whenever both hops exist.  Useful for reasoning about two-stage
        optical paths.
        """
        if other.radix != self.radix:
            raise CrossConnectError(
                f"cannot compose maps of radix {self.radix} and {other.radix}"
            )
        out = CrossConnectMap(self.radix)
        for n, s in self._n_to_s.items():
            s2 = other.south_of(s)
            if s2 is not None:
                out.connect(n, s2)
        return out

    def __iter__(self) -> Iterator[Circuit]:
        return iter(sorted(self._n_to_s.items()))

    def __len__(self) -> int:
        return self.num_circuits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CrossConnectMap):
            return NotImplemented
        return self.radix == other.radix and self._n_to_s == other._n_to_s

    def __str__(self) -> str:
        return f"CrossConnectMap(radix={self.radix}, circuits={self.num_circuits})"
