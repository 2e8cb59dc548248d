"""APS-growth baseline: PS-tree mechanics + exactness vs E-STPM."""
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.baseline.aps import mine_aps
from repro.baseline.psgrowth import ps_growth
from repro.baseline.pstree import build_tree
from repro.core.estpm import mine
from repro.core.seasonal import STPMParams, bit_positions
from repro.core.sequences import build_dseq

from .paper_example import EXAMPLE_PARAMS, example_dseq
from .test_estpm import random_symbolic, seasonal_symbolic


def paths(txns):
    """PS-tree paths of tid -> items transactions: (items, 1 << tid)."""
    return [(items, 1 << tid) for tid, items in sorted(txns.items())]


class TestPSTree:
    def test_build_and_prefix_paths(self):
        txns = {0: ["a", "b"], 1: ["a"], 2: ["a", "b", "c"], 3: ["b", "c"]}
        order = {"a": 0, "b": 1, "c": 2}
        tree = build_tree(paths(txns), order)
        assert tree.n_nodes() == 5  # a, a-b, a-b-c, b, b-c
        assert bit_positions(tree.root.children["a"].tids) == (0, 1, 2)
        base = tree.prefix_paths("c")
        assert sorted((tuple(p), bit_positions(t)) for p, t in base) == [
            (("a", "b"), (2,)),
            (("b",), (3,)),
        ]

    def test_header_chains_all_nodes(self):
        txns = {0: ["a", "b"], 1: ["b"]}
        tree = build_tree(paths(txns), {"a": 0, "b": 1})
        assert len(tree.item_nodes("b")) == 2

    def test_items_not_in_order_dropped(self):
        tree = build_tree(paths({0: ["a", "zzz"]}), {"a": 0})
        assert tree.n_nodes() == 1


class TestPSGrowth:
    def test_finds_cooccurring_itemsets(self):
        txns = {i: ["a", "b"] for i in range(10)}
        txns.update({i: ["a"] for i in range(10, 15)})
        out = ps_growth(txns, min_season=2, min_density=3, max_k=2)
        assert ("a",) in out and ("b",) in out and ("a", "b") in out
        assert bit_positions(out[("a", "b")]) == tuple(range(10))
        assert bit_positions(out[("a",)]) == tuple(range(15))

    def test_respects_max_k(self):
        txns = {i: ["a", "b", "c"] for i in range(12)}
        out = ps_growth(txns, min_season=2, min_density=3, max_k=2)
        assert all(len(k) <= 2 for k in out)
        out3 = ps_growth(txns, min_season=2, min_density=3, max_k=3)
        assert ("a", "b", "c") in out3

    def test_infrequent_pruned(self):
        txns = {i: (["a", "b"] if i < 3 else ["a"]) for i in range(20)}
        out = ps_growth(txns, min_season=2, min_density=3, max_k=2)
        assert ("b",) not in out and ("a", "b") not in out

    def test_matches_bruteforce_intersections(self):
        rng = random.Random(7)
        txns = {
            i: [it for it in "abcde" if rng.random() < 0.5] for i in range(40)
        }
        out = ps_growth(txns, min_season=1, min_density=1, max_k=3)
        # oracle: direct tid-set intersections
        tids = {it: {i for i, items in txns.items() if it in items} for it in "abcde"}
        for k in (1, 2, 3):
            for combo in combinations("abcde", k):
                shared = set.intersection(*(tids[c] for c in combo))
                if len(shared) >= 1:
                    assert bit_positions(out[tuple(sorted(combo))]) == tuple(sorted(shared)), combo

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 80), st.lists(st.sampled_from("abcdef"), max_size=8), max_size=60
        ),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_matches_intersections_with_pruning(self, txns, min_season, min_density, max_k):
        """Above min count 1 the conditional trees drop items that fail
        the gate; every itemset up to max_k that passes it is still found,
        with exactly its members' shared tids, and no other itemset is."""
        min_count = min_season * min_density
        assume(min_count > 1)
        out = ps_growth(txns, min_season=min_season, min_density=min_density, max_k=max_k)
        tids = {it: {i for i, items in txns.items() if it in items} for it in "abcdef"}
        expect = {}
        for k in range(1, max_k + 1):
            for combo in combinations("abcdef", k):
                shared = set.intersection(*(tids[c] for c in combo))
                if len(shared) >= min_count:
                    expect[combo] = tuple(sorted(shared))
        assert {k: bit_positions(v) for k, v in out.items()} == expect


class TestAPSGrowthExactness:
    def test_matches_estpm_on_example(self):
        dseq = example_dseq()
        exact = mine(dseq, EXAMPLE_PARAMS)
        base = mine_aps(dseq, EXAMPLE_PARAMS)
        assert set(base.patterns) == set(exact.patterns)
        assert set(base.singles) == set(exact.singles)
        for p, v in base.patterns.items():
            assert v.sup == exact.patterns[p].sup

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_estpm_random(self, seed):
        dseq = build_dseq(random_symbolic(seed), m=4)
        params = STPMParams(
            max_period=2, min_density=2, dist_min=1, dist_max=8, min_season=2, max_k=3
        )
        exact = mine(dseq, params)
        base = mine_aps(dseq, params)
        assert set(base.patterns) == set(exact.patterns)
        assert set(base.singles) == set(exact.singles)

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_estpm_seasonal(self, seed):
        dseq = build_dseq(seasonal_symbolic(seed), m=4)
        params = STPMParams(
            max_period=2, min_density=3, dist_min=4, dist_max=12, min_season=3, max_k=3
        )
        assert set(mine_aps(dseq, params).patterns) == set(mine(dseq, params).patterns)
