"""Seasonality: near support sets, seasons, the distInterval chain and the
maxSeason gate (Defs. 3.14-3.17, Eq. 1), all through the one check
:func:`evaluate_seasonality`, :attr:`STPMParams.min_support` and the
distInterval-aware gate :func:`can_hold_seasons`. Supports
are written as granule positions and handed over as bitsets by
:func:`to_bits`."""
from itertools import accumulate, groupby
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.seasonal import (
    STPMParams,
    bit_positions,
    can_hold_seasons,
    count_seasons,
    evaluate_seasonality,
)

P = STPMParams(max_period=2, min_density=3, dist_min=4, dist_max=10, min_season=2)


def to_bits(positions):
    """The support bitset of granule positions (bit h set iff h is in)."""
    return sum(1 << h for h in set(positions))


def near_sets(sup, max_period):
    """Near support sets (Def. 3.15): the seasons at minDensity 1."""
    params = P.with_(max_period=max_period, min_density=1)
    return evaluate_seasonality(to_bits(sup), params).seasons


def chain(seasons, params=P):
    """Longest distInterval chain over ``seasons`` given as position runs."""
    return evaluate_seasonality(to_bits(p for s in seasons for p in s), params).n_seasons


class TestNearSupportSets:
    def test_empty(self):
        assert near_sets([], 2) == ()

    def test_single(self):
        assert near_sets([5], 2) == ((5,),)

    def test_paper_fig3(self):
        sup = [0, 1, 2, 6, 7, 10, 11, 13]
        assert near_sets(sup, 2) == ((0, 1, 2), (6, 7), (10, 11, 13))

    def test_gap_exactly_max_period_joins(self):
        assert near_sets([0, 2, 4], 2) == ((0, 2, 4),)

    def test_gap_above_max_period_splits(self):
        assert near_sets([0, 3], 2) == ((0,), (3,))

    @given(st.lists(st.integers(0, 100), unique=True, min_size=1), st.integers(1, 10))
    def test_partition_property(self, sup, mp):
        sup = sorted(sup)
        sets_ = near_sets(sup, mp)
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
        assert evaluate_seasonality(to_bits(sup), P).seasons == ((0, 1, 2), (10, 11, 13))

    def test_distance(self):
        """dist((0, 1, 2), (10, 11, 13)) = p(H_10) - p(H_2) = 8."""
        sup = to_bits([0, 1, 2, 10, 11, 13])
        assert evaluate_seasonality(sup, P.with_(dist_min=8, dist_max=8)).n_seasons == 2
        assert evaluate_seasonality(sup, P.with_(dist_min=9, dist_max=20)).n_seasons == 1
        assert evaluate_seasonality(sup, P.with_(dist_min=0, dist_max=7)).n_seasons == 1

    def test_count_empty(self):
        v = evaluate_seasonality(to_bits(()), P)
        assert v.seasons == () and v.n_seasons == 0 and not v.frequent

    def test_count_single(self):
        assert chain([(0, 1, 2)]) == 1

    def test_count_chain_ok(self):
        seasons = [(0, 1, 2), (10, 11, 12), (20, 21, 22)]
        assert chain(seasons) == 3

    def test_count_chain_breaks_on_close_seasons(self):
        seasons = [(0, 1, 2), (5, 6, 7), (20, 21, 22)]  # dist 3 < 4, then 13 > 10
        assert chain(seasons) == 1

    def test_count_longest_run_wins(self):
        seasons = [(0, 1), (3, 4), (10, 11), (20, 21), (30, 31)]
        # dists: 2 (break), 6, 9, 9 -> longest chain is 4
        assert chain(seasons, P.with_(max_period=1, min_density=2)) == 4


class TestMaxSeason:
    def test_eq1(self):
        """maxSeason = |SUP| / minDensity >= minSeason iff |SUP| >= 2 * 3;
        min_support is derived, not a field that could disagree."""
        assert P.min_support == 6
        assert P.with_(min_season=5, min_density=4).min_support == 20
        with pytest.raises(TypeError):
            P.with_(min_support=7)

    def test_candidate_gate(self):
        assert 6 >= P.min_support
        assert not 5 >= P.min_support

    @given(st.sets(st.integers(0, 120), max_size=60), st.data())
    def test_antimonotone_in_support(self, sup, data):
        """Lemmas 1-2: a support set that passes Def. 3.17 passes the gate,
        and so does every superset of it (a super-pattern's support)."""
        sub = data.draw(st.sets(st.sampled_from(sorted(sup)))) if sup else set()
        md, ms = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        params = P.with_(min_density=md, min_season=ms)
        if evaluate_seasonality(to_bits(sub), params).frequent:
            assert len(sub) >= params.min_support
            assert len(sup) >= params.min_support

    @given(st.integers(0, 400), st.integers(1, 20), st.integers(1, 20))
    def test_candidate_gate_is_eq1(self, sup_size, md, ms):
        params = P.with_(min_density=md, min_season=ms)
        assert (sup_size >= params.min_support) == (sup_size / md >= ms)


class TestEvaluate:
    def test_frequent_example(self):
        v = evaluate_seasonality(to_bits({0, 1, 2, 6, 7, 10, 11, 13}), P)
        assert v.n_seasons == 2 and v.frequent

    def test_not_frequent_single_big_block(self):
        v = evaluate_seasonality(to_bits(range(11)), P)
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
        v = evaluate_seasonality(to_bits(sup), params)
        assert v.n_seasons <= len(v.sup) / md
        assert not v.frequent or len(v.sup) >= params.min_support

    def test_rejects_negative_positions(self):
        """A bitset holds no granule below 0, so a negative int is no support."""
        for check in (evaluate_seasonality, count_seasons):
            with pytest.raises(ValueError, match="cannot be negative"):
                check(-6, P)

    @given(st.sets(st.integers(0, 2100), max_size=120))
    def test_bitset_equals_position_set(self, sup):
        """A bitset (bit h set iff granule h is in) decodes to its positions."""
        assert bit_positions(to_bits(sup)) == tuple(sorted(sup))


def oracle(sup, params):
    """Defs. 3.15-3.17 restated: (seasons, longest distInterval chain).

    Positions are labelled with the number of periods above maxPeriod
    before them, and each label is one near support set. The chain
    length is the longest window of consecutive seasons whose every
    neighbour distance lies in the interval.
    """
    s = sorted(sup)
    label = accumulate((b - a > params.max_period for a, b in zip(s, s[1:])), initial=0)
    near = [tuple(p for _, p in g) for _, g in groupby(zip(label, s), key=itemgetter(0))]
    seasons = [ns for ns in near if len(ns) >= params.min_density]
    ok = [
        params.dist_min <= b[0] - a[-1] <= params.dist_max
        for a, b in zip(seasons, seasons[1:])
    ]
    windows = ((i, j) for i in range(len(seasons)) for j in range(i + 1, len(seasons) + 1))
    n = max((j - i for i, j in windows if all(ok[i : j - 1])), default=0)
    return tuple(seasons), n


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.integers(0, 400), max_size=200),
    st.integers(1, 12),
    st.integers(1, 8),
    st.integers(0, 40),
    st.integers(0, 40),
    st.integers(1, 6),
)
# maxPeriod 1: no gap to close, only adjacent granules join
@example({0, 1, 2, 4, 5, 6, 9, 10, 11, 20}, 1, 3, 2, 2, 2)
@example({0, 2, 4, 7, 8, 30, 31, 33}, 2, 2, 20, 5, 2)
def test_evaluate_matches_def_3_17_oracle(sup, mp, md, dmin, width, ms):
    """The verdict of the support bitset has the oracle's seasons and
    count, and the count-only check gives the oracle's count."""
    params = STPMParams(
        max_period=mp, min_density=md, dist_min=dmin, dist_max=dmin + width, min_season=ms
    )
    seasons, n = oracle(sup, params)
    expect = (tuple(sorted(sup)), seasons, n, n >= ms)
    bits = to_bits(sup)
    v = evaluate_seasonality(bits, params)
    assert (v.sup, v.seasons, v.n_seasons, v.frequent) == expect
    assert count_seasons(bits, params) == n


def greedy_blocks(sup, params):
    """The gate restated on positions: blocks of minDensity granules, each
    starting at least ``max(dist_min, 1)`` after the previous one ends."""
    blocks, size, start = 0, 0, 0
    for p in sorted(sup):
        if p < start:
            continue
        size += 1
        if size == params.min_density:
            blocks, size, start = blocks + 1, 0, p + max(params.dist_min, 1)
    return blocks


GATE_CASES = (
    st.sets(st.integers(0, 300), max_size=150),
    st.sets(st.integers(0, 300), max_size=150),
    st.integers(1, 12),
    st.integers(1, 6),
    st.integers(0, 30),
    st.integers(0, 30),
    st.integers(1, 8),
)


@settings(max_examples=300, deadline=None)
@given(*GATE_CASES)
# seasons exactly dist_min apart (kills a skip to last + dist_min + 1)
@example({0, 2}, set(), 1, 1, 2, 0, 2)
# exactly minSeason seasons of exactly minDensity granules (kills blocks
# of minDensity + 1 and a gate asking for minSeason + 1 blocks)
@example({0, 1, 2, 10, 11, 12}, set(), 1, 3, 5, 10, 2)
# dist_min 0, minDensity 1: adjacent granules are two seasons
@example({0, 1, 2}, {0, 1}, 1, 1, 0, 0, 3)
def test_chain_gate_bounds_def_3_17_and_is_antimonotone(sup, mask, mp, md, dmin, width, ms):
    """A support with minSeason seasons in a distInterval chain passes the
    gate, and a superset passes whenever a subset does (Lemmas 1-2)."""
    params = STPMParams(
        max_period=mp, min_density=md, dist_min=dmin, dist_max=dmin + width, min_season=ms
    )
    bits = to_bits(sup)
    if count_seasons(bits, params) >= ms:
        assert can_hold_seasons(bits, params)
    if can_hold_seasons(bits & to_bits(mask), params):
        assert can_hold_seasons(bits, params)
    if can_hold_seasons(bits, params):
        assert len(sup) >= params.min_support  # at least as strict as Eq. 1


@settings(max_examples=300, deadline=None)
@given(*GATE_CASES)
# dist_min 0: a granule counts in one block only
@example({5}, set(), 1, 1, 0, 0, 2)
def test_chain_gate_is_the_greedy_walk(sup, mask, mp, md, dmin, width, ms):
    """The bitset walk counts the same blocks as the walk over positions."""
    params = STPMParams(
        max_period=mp, min_density=md, dist_min=dmin, dist_max=dmin + width, min_season=ms
    )
    for s in (sup, sup & mask):
        assert can_hold_seasons(to_bits(s), params) == (greedy_blocks(s, params) >= ms)


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
