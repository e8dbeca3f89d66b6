import random

from hypothesis import given
from hypothesis import strategies as st

from forestfw import intervals
from forestfw.policy_lang.syntax import PortRange, port_ranges


def test_normalize_merges_overlap_and_adjacency():
    assert intervals.normalize([(5, 9), (0, 3), (4, 4)]) == ((0, 9),)
    assert intervals.normalize([(0, 1), (3, 4)]) == ((0, 1), (3, 4))
    assert intervals.normalize([(7, 3)]) == ()


def test_intersect_subtract_union_against_set_oracle():
    rng = random.Random(7)
    for _ in range(300):
        a = intervals.normalize(
            (lambda lo: (lo, rng.randrange(lo, 40)))(rng.randrange(40))
            for _ in range(rng.randint(0, 3)))
        b = intervals.normalize(
            (lambda lo: (lo, rng.randrange(lo, 40)))(rng.randrange(40))
            for _ in range(rng.randint(0, 3)))
        set_a = {v for lo, hi in a for v in range(lo, hi + 1)}
        set_b = {v for lo, hi in b for v in range(lo, hi + 1)}

        def materialize(ranges):
            return {v for lo, hi in ranges for v in range(lo, hi + 1)}

        assert materialize(intervals.intersect(a, b)) == set_a & set_b
        assert materialize(intervals.union(a, b)) == set_a | set_b
        assert materialize(intervals.subtract(a, b)) == set_a - set_b


def test_contains():
    ranges = ((2, 4), (8, 8))
    assert intervals.contains(ranges, 3)
    assert not intervals.contains(ranges, 5)


# ---------------------------------------------------------------------------
# properties against Python sets on a small universe
UNIVERSE = 24

raw_ranges = st.lists(st.tuples(st.integers(-2, UNIVERSE), st.integers(-2, UNIVERSE)),
                      max_size=6)
interval_sets = raw_ranges.map(intervals.normalize)


def points(ranges) -> set[int]:
    return {v for lo, hi in ranges for v in range(lo, hi + 1)}


def assert_normal_form(ranges) -> None:
    assert isinstance(ranges, tuple)
    for lo, hi in ranges:
        assert lo <= hi
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi + 1 < lo  # sorted, disjoint and not adjacent


@given(raw_ranges)
def test_normalize_keeps_points_in_normal_form(raw):
    result = intervals.normalize(raw)
    assert_normal_form(result)
    assert points(result) == points(raw)
    assert intervals.normalize(result) == result


@given(interval_sets, interval_sets)
def test_binary_operations_equal_set_operations(a, b):
    for result, expected in [(intervals.intersect(a, b), points(a) & points(b)),
                             (intervals.union(a, b), points(a) | points(b)),
                             (intervals.subtract(a, b), points(a) - points(b))]:
        assert_normal_form(result)
        assert points(result) == expected


@given(interval_sets, st.integers(-3, UNIVERSE + 1))
def test_contains_equals_membership(a, value):
    assert intervals.contains(a, value) == (value in points(a))


@given(st.lists(st.tuples(st.integers(0, UNIVERSE), st.integers(0, UNIVERSE)), max_size=6),
       st.booleans())
def test_port_ranges_return_a_normal_tuple_as_it_is(raw, as_port_ranges):
    """``port_ranges`` normalizes as ``intervals.normalize`` does, into
    PortRanges, and hands back a tuple of PortRanges already in that form."""
    if as_port_ranges:
        raw = [PortRange(lo, hi) for lo, hi in raw]
    result = port_ranges(tuple(raw))
    assert result == intervals.normalize(raw)
    assert all(type(r) is PortRange for r in result)
    assert port_ranges(result) is result
