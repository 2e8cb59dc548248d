"""Sequence mapping, run-length instance extraction, granularity arithmetic."""
import pytest
from hypothesis import given, strategies as st

from repro.core.granularity import pct_to_count
from repro.core.sequences import (
    build_dseq,
    build_dseq_from_instances,
    runs,
)
from repro.core.events import EventInstance


class TestGranularity:
    def test_pct_to_count(self):
        # paper Table VI: maxPeriod 0.2% of a 1460-granule D_SEQ -> 3
        assert pct_to_count(0.2, 1460) == 3
        assert pct_to_count(0.5, 1460) == 7
        assert pct_to_count(0.0001, 100) == 1  # floor at 1


class TestRLE:
    def test_simple(self):
        assert list(runs(list("1100"), 4)) == [(0, 1, "1"), (2, 3, "0")]
        # a granule boundary ends a run too
        assert list(runs(list("11111"), 2)) == [(0, 1, "1"), (2, 3, "1"), (4, 4, "1")]

    def test_none_breaks_runs(self):
        assert list(runs(["1", None, "1"], 3)) == [(0, 0, "1"), (2, 2, "1")]

    @given(
        st.lists(st.sampled_from(["a", "b", None]), min_size=1, max_size=30),
        st.integers(1, 5),
    )
    def test_roundtrip_covers_everything(self, syms, m):
        covered = [None] * len(syms)
        for start, end, sym in runs(syms, m):
            assert start // m == end // m  # inside one granule
            # maximal: the instants around the run cannot extend it
            assert start % m == 0 or syms[start - 1] != sym
            assert end + 1 == len(syms) or (end + 1) % m == 0 or syms[end + 1] != sym
            for t in range(start, end + 1):
                assert covered[t] is None
                covered[t] = sym
        assert covered == syms


class TestBuildDseq:
    def test_partial_trailing_block(self):
        d = build_dseq({"A": list("11111")}, m=3)
        assert d.n_granules == 2
        assert [(i.start, i.end) for i in d.instances(1)] == [(3, 4)]

    def test_multi_series_canonical_order(self):
        d = build_dseq({"B": list("111"), "A": list("011")}, m=3)
        row = d.instances(0)
        # canonical: start asc, end desc, name asc -> B:[0,2] first
        assert [i.series for i in row] == ["B", "A", "A"]

    def test_event_and_series_names(self):
        d = build_dseq({"A": list("01"), "B": list("11")}, m=2)
        assert d.event_names() == ["A:0", "A:1", "B:1"]
        assert d.series_names() == ["A", "B"]
        assert d.n_instances() == 3

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            build_dseq({"A": list("1")}, m=0)

    def test_from_instances_matches_build(self):
        sym = {"A": list("110010"), "B": list("001110")}
        d1 = build_dseq(sym, m=3)
        insts = [i for h in range(d1.n_granules) for i in d1.instances(h)]
        d2 = build_dseq_from_instances(insts, m=3, n_granules=2)
        assert d1.rows == d2.rows

    def test_from_instances_rejects_spanning(self):
        with pytest.raises(ValueError):
            build_dseq_from_instances(
                [EventInstance(2, 3, "A", "1")], m=3, n_granules=2
            )
