"""Seasonality measures: near support sets, seasons, maxSeason (Defs. 3.14-3.17)."""
import pytest
from hypothesis import given, strategies as st

from repro.core.seasonal import (
    STPMParams,
    bit_positions,
    count_seasons,
    evaluate_seasonality,
    is_candidate,
    max_season,
    near_support_sets,
    season_distance,
    season_sets,
)

P = STPMParams(max_period=2, min_density=3, dist_min=4, dist_max=10, min_season=2)


class TestNearSupportSets:
    def test_empty(self):
        assert near_support_sets([], 2) == []

    def test_single(self):
        assert near_support_sets([5], 2) == [(5,)]

    def test_paper_fig3(self):
        sup = [0, 1, 2, 6, 7, 10, 11, 13]
        assert near_support_sets(sup, 2) == [(0, 1, 2), (6, 7), (10, 11, 13)]

    def test_gap_exactly_max_period_joins(self):
        assert near_support_sets([0, 2, 4], 2) == [(0, 2, 4)]

    def test_gap_above_max_period_splits(self):
        assert near_support_sets([0, 3], 2) == [(0,), (3,)]

    @given(st.lists(st.integers(0, 100), unique=True, min_size=1), st.integers(1, 10))
    def test_partition_property(self, sup, mp):
        sup = sorted(sup)
        sets_ = near_support_sets(sup, mp)
        # complete non-overlapping partition preserving order
        flat = [p for s in sets_ for p in s]
        assert flat == sup
        for s in sets_:
            assert all(b - a <= mp for a, b in zip(s, s[1:]))
        for s1, s2 in zip(sets_, sets_[1:]):
            assert s2[0] - s1[-1] > mp


class TestSeasons:
    def test_density_filter(self):
        sup = [0, 1, 2, 6, 7, 10, 11, 13]
        assert season_sets(sup, 2, 3) == [(0, 1, 2), (10, 11, 13)]

    def test_distance(self):
        assert season_distance((0, 1, 2), (10, 11, 13)) == 8

    def test_count_empty(self):
        assert count_seasons([], 4, 10) == 0

    def test_count_single(self):
        assert count_seasons([(0, 1, 2)], 4, 10) == 1

    def test_count_chain_ok(self):
        seasons = [(0, 1, 2), (10, 11, 12), (20, 21, 22)]
        assert count_seasons(seasons, 4, 10) == 3

    def test_count_chain_breaks_on_close_seasons(self):
        seasons = [(0, 1, 2), (5, 6, 7), (20, 21, 22)]  # dist 3 < 4, then 13 > 10
        assert count_seasons(seasons, 4, 10) == 1

    def test_count_longest_run_wins(self):
        seasons = [(0, 1), (3, 4), (10, 11), (20, 21), (30, 31)]
        # dists: 2 (break), 6, 9, 9 -> longest chain is 4
        assert count_seasons(seasons, 4, 10) == 4


class TestMaxSeason:
    def test_eq1(self):
        assert max_season(8, 3) == pytest.approx(8 / 3)

    def test_candidate_gate(self):
        assert is_candidate(6, P)
        assert not is_candidate(5, P)

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_antimonotone_in_support(self, a, b):
        """Lemma 1: bigger support -> bigger maxSeason."""
        lo, hi = min(a, b), max(a, b)
        assert max_season(lo, 3) <= max_season(hi, 3)

    @given(st.integers(0, 400), st.integers(1, 20), st.integers(1, 20))
    def test_candidate_gate_is_eq1(self, sup_size, md, ms):
        params = P.with_(min_density=md, min_season=ms)
        assert is_candidate(sup_size, params) == (max_season(sup_size, md) >= ms)


class TestEvaluate:
    def test_frequent_example(self):
        v = evaluate_seasonality({0, 1, 2, 6, 7, 10, 11, 13}, P)
        assert v.n_seasons == 2 and v.frequent

    def test_not_frequent_single_big_block(self):
        v = evaluate_seasonality(set(range(11)), P)
        assert v.n_seasons == 1 and not v.frequent

    @given(
        st.sets(st.integers(0, 200), max_size=60),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(1, 20),
        st.integers(1, 6),
    )
    def test_seasons_never_exceed_max_season(self, sup, mp, md, dmin, ms):
        """maxSeason is a true upper bound on seasons (Section IV-B)."""
        params = STPMParams(
            max_period=mp, min_density=md, dist_min=dmin, dist_max=dmin + 10, min_season=ms
        )
        v = evaluate_seasonality(sup, params)
        assert v.n_seasons <= max_season(len(v.sup), md)

    @given(st.sets(st.integers(0, 700), max_size=120), st.integers(1, 5), st.integers(1, 5))
    def test_bitset_equals_position_set(self, sup, mp, md):
        """A bitset (bit h set iff granule h is in) gives the same verdict."""
        bits = sum(1 << h for h in sup)
        assert bit_positions(bits) == tuple(sorted(sup))
        params = P.with_(max_period=mp, min_density=md)
        assert evaluate_seasonality(bits, params) == evaluate_seasonality(sup, params)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            STPMParams(max_period=0, min_density=3, dist_min=1, dist_max=2, min_season=1)
        with pytest.raises(ValueError):
            STPMParams(max_period=1, min_density=0, dist_min=1, dist_max=2, min_season=1)
        with pytest.raises(ValueError):
            STPMParams(max_period=1, min_density=1, dist_min=3, dist_max=2, min_season=1)
        with pytest.raises(ValueError):
            STPMParams(max_period=1, min_density=1, dist_min=1, dist_max=2, min_season=0)
        with pytest.raises(ValueError):
            STPMParams(max_period=1, min_density=1, dist_min=-1, dist_max=2, min_season=1)
        with pytest.raises(ValueError):
            P.with_(epsilon=-1)
        with pytest.raises(ValueError):
            P.with_(d_o=0)

    def test_with_(self):
        assert P.with_(min_season=5).min_season == 5
        assert P.min_season == 2
