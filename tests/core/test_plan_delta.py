"""Differential tests for delta planning (``repro.core.reconfig.plan_delta``).

``plan_delta(current, removes, adds)`` must return exactly the plan the
full-rebuild path returns for the target ``(current - removes) | adds``,
raise the same error class on invalid input, and never touch ``current``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crossconnect import CrossConnectMap
from repro.core.errors import CrossConnectError, PortInUseError
from repro.core.reconfig import plan_delta, plan_reconfiguration

RADIX = 8


def _map(circuits):
    return CrossConnectMap.from_circuits(RADIX, circuits)


def rebuild_plan(current, removes, adds):
    """The full-rebuild oracle: build the whole target map, then diff."""
    circuits = sorted((current.circuits - frozenset(removes)) | frozenset(adds))
    if len(dict(circuits)) == len(circuits):
        target = CrossConnectMap.from_circuits(current.radix, dict(circuits))
    else:
        # A dict would keep only one of two circuits sharing a north port;
        # connect them in from_circuits' own (sorted) order instead.
        target = CrossConnectMap(current.radix)
        for north, south in circuits:
            target.connect(north, south)
    return plan_reconfiguration(current, target)


def outcome(planner, current, removes, adds):
    """The plan, or the class of the error the planner raised."""
    try:
        return planner(current, removes, adds)
    except CrossConnectError as err:
        return type(err)


@st.composite
def delta_cases(draw):
    """A random partial bijection plus random (removes, adds).

    Removes mix present circuits with arbitrary ones; adds mostly land in
    range, some have one port just outside it, so clashes with kept
    circuits, clashes between adds and range errors all occur, in every
    sorted order.
    """
    perm = draw(st.permutations(range(RADIX)))
    norths = draw(st.sets(st.integers(0, RADIX - 1)))
    current = _map({n: perm[n] for n in norths})
    present = sorted(current.circuits)
    port = st.integers(0, RADIX - 1)
    wild = st.integers(-1, RADIX)
    removes = draw(st.sets(st.sampled_from(present))) if present else set()
    removes |= draw(st.sets(st.tuples(port, port), max_size=3))
    adds = draw(
        st.sets(
            st.one_of(
                st.tuples(port, port),
                st.tuples(port, port),
                st.tuples(port, wild),
                st.tuples(wild, port),
                st.sampled_from(present) if present else st.tuples(port, port),
            ),
            max_size=RADIX,
        )
    )
    return current, frozenset(removes), frozenset(adds)


class TestPlanDeltaMatchesFullRebuild:
    @given(delta_cases())
    @settings(max_examples=400, deadline=None)
    def test_same_plan_or_same_error_and_current_untouched(self, case):
        current, removes, adds = case
        before = (current.circuits, current.version)
        expected = outcome(rebuild_plan, current, removes, adds)
        assert (current.circuits, current.version) == before
        assert outcome(plan_delta, current, removes, adds) == expected
        assert (current.circuits, current.version) == before

    @given(delta_cases())
    @settings(max_examples=200, deadline=None)
    def test_valid_plan_applies_and_inverts(self, case):
        current, removes, adds = case
        try:
            plan = plan_delta(current, removes, adds)
        except CrossConnectError:
            return
        start = current.copy()
        assert plan.pre_image == start.circuits
        plan.apply(current)
        assert current.circuits == (start.circuits - removes) | adds
        plan.inverse().apply(current)
        assert current == start


class TestPlanDeltaCases:
    def test_absent_removes_are_ignored(self):
        current = _map({0: 1})
        plan = plan_delta(current, {(0, 2), (5, 5)}, ())
        assert plan.is_noop
        assert plan.unchanged == frozenset({(0, 1)})

    def test_present_add_stays_unchanged(self):
        plan = plan_delta(_map({0: 1}), (), {(0, 1)})
        assert plan.is_noop

    def test_remove_and_re_add_is_not_disturbed(self):
        plan = plan_delta(_map({0: 1, 2: 3}), {(0, 1)}, {(0, 1)})
        assert plan.is_noop
        assert plan.unchanged == frozenset({(0, 1), (2, 3)})

    def test_freed_ports_are_reusable(self):
        plan = plan_delta(_map({0: 1, 2: 3}), {(0, 1)}, {(0, 0), (4, 1)})
        assert plan.breaks == frozenset({(0, 1)})
        assert plan.makes == frozenset({(0, 0), (4, 1)})
        assert plan.unchanged == frozenset({(2, 3)})

    def test_add_on_kept_port_raises_port_in_use(self):
        with pytest.raises(PortInUseError):
            plan_delta(_map({0: 1}), (), {(0, 2)})
        with pytest.raises(PortInUseError):
            plan_delta(_map({0: 1}), (), {(3, 1)})

    def test_two_adds_on_one_port_raise_port_in_use(self):
        with pytest.raises(PortInUseError):
            plan_delta(_map({}), (), {(0, 1), (0, 2)})
        with pytest.raises(PortInUseError):
            plan_delta(_map({}), (), {(0, 1), (2, 1)})

    def test_out_of_range_add_raises_crossconnect_error(self):
        with pytest.raises(CrossConnectError) as exc:
            plan_delta(_map({}), (), {(RADIX, 0)})
        assert type(exc.value) is CrossConnectError

    def test_first_error_in_sorted_order_wins(self):
        # (1, 5) clashes with the kept (0, 5) before (2, 99) is reached.
        current = _map({0: 5})
        with pytest.raises(PortInUseError):
            plan_delta(current, (), {(1, 5), (2, 99)})
        # The kept (3, 5) sorts after (2, 99): the range error comes first.
        current = _map({3: 5})
        with pytest.raises(CrossConnectError) as exc:
            plan_delta(current, (), {(1, 5), (2, 99)})
        assert type(exc.value) is CrossConnectError
