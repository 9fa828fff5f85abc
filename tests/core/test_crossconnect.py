"""Tests for repro.core.crossconnect, including bijection property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import CrossConnectError, PortInUseError


class TestBasicOperations:
    def test_connect_and_query(self):
        m = CrossConnectMap(8)
        m.connect(0, 5)
        assert m.south_of(0) == 5
        assert m.north_of(5) == 0
        assert m.num_circuits == 1

    def test_disconnect_returns_south(self):
        m = CrossConnectMap(8)
        m.connect(2, 7)
        assert m.disconnect(2) == 7
        assert m.num_circuits == 0
        assert m.south_of(2) is None

    def test_disconnect_missing_raises(self):
        m = CrossConnectMap(4)
        with pytest.raises(CrossConnectError):
            m.disconnect(0)

    def test_double_connect_north_raises(self):
        m = CrossConnectMap(4)
        m.connect(0, 1)
        with pytest.raises(PortInUseError):
            m.connect(0, 2)

    def test_double_connect_south_raises(self):
        m = CrossConnectMap(4)
        m.connect(0, 1)
        with pytest.raises(PortInUseError):
            m.connect(2, 1)

    def test_out_of_range_rejected(self):
        m = CrossConnectMap(4)
        with pytest.raises(CrossConnectError):
            m.connect(4, 0)
        with pytest.raises(CrossConnectError):
            m.connect(0, -1)

    def test_zero_radix_rejected(self):
        with pytest.raises(CrossConnectError):
            CrossConnectMap(0)

    def test_clear(self):
        m = CrossConnectMap.identity(4)
        m.clear()
        assert m.num_circuits == 0

    def test_free_ports(self):
        m = CrossConnectMap(4)
        m.connect(1, 2)
        assert m.free_north == {0, 2, 3}
        assert m.free_south == {0, 1, 3}


class TestConstruction:
    def test_identity(self):
        m = CrossConnectMap.identity(5)
        assert m.is_full_permutation()
        assert m.as_permutation() == (0, 1, 2, 3, 4)

    def test_from_circuits(self):
        m = CrossConnectMap.from_circuits(4, {0: 3, 1: 2})
        assert m.south_of(0) == 3
        assert m.num_circuits == 2

    def test_from_circuits_conflict_raises(self):
        with pytest.raises(PortInUseError):
            CrossConnectMap.from_circuits(4, {0: 3, 1: 3})

    def test_copy_is_independent(self):
        m = CrossConnectMap.from_circuits(4, {0: 1})
        c = m.copy()
        c.connect(2, 3)
        assert m.num_circuits == 1
        assert c.num_circuits == 2

    def test_copy_equals_original_and_is_independent_both_ways(self):
        m = CrossConnectMap.from_circuits(8, {0: 1, 2: 5, 7: 7})
        c = m.copy()
        assert c == m
        assert c.circuits == m.circuits
        assert c.is_bijective()
        m.disconnect(2)
        assert c.south_of(2) == 5
        assert c.north_of(5) == 2
        c.disconnect(0)
        assert m.south_of(0) == 1

    def test_copy_starts_at_version_zero(self):
        m = CrossConnectMap.from_circuits(8, {0: 1, 2: 5})
        m.disconnect(0)
        assert m.version == 3
        c = m.copy()
        assert c.version == 0
        c.connect(0, 0)
        assert (c.version, m.version) == (1, 3)

    def test_user_seeded_maps_are_still_validated(self):
        with pytest.raises(CrossConnectError):
            CrossConnectMap(4, {0: 9}, {9: 0})
        with pytest.raises(CrossConnectError):
            CrossConnectMap(4, {0: 1}, {2: 0})

    def test_equality(self):
        a = CrossConnectMap.from_circuits(4, {0: 1, 2: 3})
        b = CrossConnectMap.from_circuits(4, {2: 3, 0: 1})
        assert a == b
        b.disconnect(0)
        assert a != b


class TestPermutation:
    def test_as_permutation_partial_raises(self):
        m = CrossConnectMap(4)
        m.connect(0, 0)
        with pytest.raises(CrossConnectError):
            m.as_permutation()

    def test_compose(self):
        # first: 0->1, 1->0 ; second: 1->2 => composed: 0->2
        a = CrossConnectMap.from_circuits(4, {0: 1, 1: 0})
        b = CrossConnectMap.from_circuits(4, {1: 2})
        c = a.compose(b)
        assert c.south_of(0) == 2
        assert c.south_of(1) is None

    def test_compose_radix_mismatch(self):
        with pytest.raises(CrossConnectError):
            CrossConnectMap(4).compose(CrossConnectMap(5))

    def test_iteration_sorted(self):
        m = CrossConnectMap.from_circuits(4, {3: 0, 1: 2})
        assert list(m) == [(1, 2), (3, 0)]


@st.composite
def circuit_sequences(draw):
    """Random sequences of (connect|disconnect) operations on a radix-16 map."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["connect", "disconnect"]),
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=40,
        )
    )
    return ops


class TestBijectionProperty:
    @given(circuit_sequences())
    @settings(max_examples=200)
    def test_always_bijective(self, ops):
        """The map stays a partial bijection under any operation sequence."""
        m = CrossConnectMap(16)
        for op, north, south in ops:
            try:
                if op == "connect":
                    m.connect(north, south)
                else:
                    m.disconnect(north)
            except CrossConnectError:
                pass  # rejected operations must not corrupt state
            assert m.is_bijective()
            # Inverse consistency both ways:
            for n, s in m.circuits:
                assert m.north_of(s) == n
                assert m.south_of(n) == s

    @given(st.permutations(list(range(12))))
    def test_full_permutation_roundtrip(self, perm):
        m = CrossConnectMap.from_circuits(12, dict(enumerate(perm)))
        assert m.is_full_permutation()
        assert list(m.as_permutation()) == list(perm)


def old_disconnect_then_connect(m, north, south):
    """The move ``retarget`` replaced: free both ports, then connect."""
    if m.south_of(north) == south:
        return
    if m.south_of(north) is not None:
        m.disconnect(north)
    other = m.north_of(south)
    if other is not None:
        m.disconnect(other)
    m.connect(north, south)


class TestMutationCounter:
    def test_every_mutation_bumps_version(self):
        m = CrossConnectMap(8)
        assert m.version == 0
        m.connect(0, 1)
        m.connect(2, 3)
        assert m.version == 2
        m.disconnect(0)
        assert m.version == 3
        m.clear()
        assert m.version == 4

    def test_rejected_mutations_leave_version(self):
        m = CrossConnectMap(8)
        m.connect(0, 1)
        for bad in (lambda: m.connect(0, 2), lambda: m.connect(3, 1),
                    lambda: m.connect(9, 0), lambda: m.disconnect(5)):
            with pytest.raises(CrossConnectError):
                bad()
        assert m.version == 1

    def test_version_is_not_part_of_equality(self):
        a = CrossConnectMap.from_circuits(8, {0: 1})
        b = CrossConnectMap(8)
        b.connect(0, 2)
        b.disconnect(0)
        b.connect(0, 1)
        assert a == b and a.version != b.version


class TestRetarget:
    def test_existing_circuit_is_untouched(self):
        m = CrossConnectMap.from_circuits(8, {0: 1, 2: 3})
        before = m.version
        m.retarget(0, 1)
        assert m.version == before
        assert m.circuits == {(0, 1), (2, 3)}

    def test_frees_both_ports_then_connects(self):
        m = CrossConnectMap.from_circuits(8, {0: 1, 2: 3})
        m.retarget(0, 3)
        assert m.circuits == {(0, 3)}

    def test_out_of_range_changes_nothing(self):
        m = CrossConnectMap.from_circuits(8, {0: 1})
        with pytest.raises(CrossConnectError):
            m.retarget(0, 8)
        assert m.circuits == {(0, 1)}

    @given(
        # Inverting twice keeps one north per south: a partial bijection.
        st.dictionaries(st.integers(0, 9), st.integers(0, 9)).map(
            lambda d: {n: s for s, n in {s: n for n, s in d.items()}.items()}
        ),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
    )
    @settings(max_examples=200)
    def test_matches_disconnect_then_connect_and_stays_bijective(
        self, seed_circuits, moves
    ):
        m = CrossConnectMap.from_circuits(10, seed_circuits)
        oracle = m.copy()
        for north, south in moves:
            before = m.version
            existed = m.south_of(north) == south
            m.retarget(north, south)
            old_disconnect_then_connect(oracle, north, south)
            assert m == oracle
            assert m.is_bijective()
            assert m.south_of(north) == south and m.north_of(south) == north
            assert (m.version == before) == existed
