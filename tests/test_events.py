"""Temporal relation semantics (Table III + Property 1)."""
import pytest
from hypothesis import given, strategies as st

from repro.core.events import (
    CONTAINS,
    FOLLOWS,
    OVERLAPS,
    EventInstance,
    canonical_sort_key,
    relation,
)
from repro.core.hlh import render_pattern


def inst(s, e, series="A", symbol="1"):
    return EventInstance(s, e, series, symbol)


class TestEventInstance:
    def test_event_key(self):
        assert inst(0, 1, "C", "1").event == "C:1"

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            inst(5, 4)


class TestClassify:
    """Table III through its one classifier, `events.relation`."""

    def test_follows_strict_gap(self):
        assert relation(0, 2, 5, 6) == FOLLOWS

    def test_follows_adjacent(self):
        # b starts exactly one granule after a ends
        assert relation(0, 2, 3, 4) == FOLLOWS

    def test_touching_is_overlap_not_follows(self):
        # sharing granule 2 means one granule of co-occurrence
        assert relation(0, 2, 2, 4) == OVERLAPS

    def test_contains_proper(self):
        assert relation(0, 5, 1, 3) == CONTAINS

    def test_contains_equal_intervals(self):
        assert relation(0, 3, 0, 3) == CONTAINS

    def test_contains_equal_end(self):
        assert relation(0, 3, 2, 3) == CONTAINS

    def test_overlaps(self):
        assert relation(0, 3, 2, 5) == OVERLAPS

    def test_short_overlap_filtered_by_d_o(self):
        assert relation(0, 3, 3, 5, d_o=2) is None
        assert relation(0, 3, 2, 5, d_o=2) == OVERLAPS

    def test_epsilon_relaxes_follows(self):
        assert relation(0, 3, 3, 5) == OVERLAPS
        # with a 1-granule buffer the boundary case counts as Follows
        assert relation(0, 3, 3, 5, epsilon=1) == FOLLOWS

    def test_epsilon_relaxes_contains(self):
        assert relation(0, 3, 1, 4) == OVERLAPS
        assert relation(0, 3, 1, 4, epsilon=1) == CONTAINS


def pair_relation(x, y, *, epsilon=0, d_o=1):
    """Table III on two instances in canonical order: ``(rel, first, second)``,
    the rule every miner applies to a pair of representatives."""
    a, b = sorted((x, y), key=canonical_sort_key)
    rel = relation(a.start, a.end, b.start, b.end, epsilon, d_o)
    return None if rel is None else (rel, a, b)


class TestPairRelation:
    def test_orders_canonically(self):
        r = pair_relation(inst(5, 6, "B"), inst(0, 2, "A"))
        assert r is not None
        rel, first, second = r
        assert rel == FOLLOWS and first.series == "A" and second.series == "B"

    def test_equal_start_longer_is_container(self):
        rel, first, second = pair_relation(inst(0, 1, "B"), inst(0, 3, "A"))
        assert rel == CONTAINS and first.series == "A"

    def test_tie_breaks_by_name(self):
        rel, first, second = pair_relation(inst(0, 1, "D"), inst(0, 1, "C"))
        assert rel == CONTAINS and first.series == "C" and second.series == "D"

    def test_tie_breaks_by_series_not_event_key(self):
        """``"x4" < "x40"`` as series, but ``"x40:1" < "x4:1"`` as keys."""
        rel, first, second = pair_relation(inst(1, 2, "x40"), inst(1, 2, "x4"))
        assert rel == CONTAINS and first.series == "x4" and second.series == "x40"

    def test_none_when_no_relation(self):
        assert pair_relation(inst(0, 3), inst(3, 5, "B"), d_o=2) is None

    def test_render(self):
        assert render_pattern(((CONTAINS, "C:1", "D:1"),)) == "C:1 >= D:1"
        two = ((CONTAINS, "C:1", "D:1"), (FOLLOWS, "C:1", "E:1"))
        assert render_pattern(two) == "C:1 >= D:1 ; C:1 -> E:1"


interval = st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
    lambda t: (min(t), max(t))
)


@given(interval, interval)
def test_relations_mutually_exclusive_eps0(iv1, iv2):
    """With epsilon=0 exactly one (or no) relation holds (Property 1)."""
    a = inst(iv1[0], iv1[1], "A")
    b = inst(iv2[0], iv2[1], "B")
    a, b = sorted((a, b), key=canonical_sort_key)
    hits = []
    if a.start <= b.start and b.end <= a.end:
        hits.append(CONTAINS)
    if b.start >= a.end + 1:
        hits.append(FOLLOWS)
    if a.start < b.start and a.end < b.end and (a.end - b.start + 1) >= 1:
        hits.append(OVERLAPS)
    assert len(hits) <= 1
    assert relation(a.start, a.end, b.start, b.end) == (hits[0] if hits else None)


@given(interval, interval, st.integers(0, 3), st.integers(1, 3))
def test_pair_relation_symmetric_in_argument_order(iv1, iv2, eps, d_o):
    a = inst(iv1[0], iv1[1], "A")
    b = inst(iv2[0], iv2[1], "B")
    assert pair_relation(a, b, epsilon=eps, d_o=d_o) == pair_relation(
        b, a, epsilon=eps, d_o=d_o
    )
