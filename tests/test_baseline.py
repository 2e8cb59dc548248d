"""APS-growth baseline: PS-tree mechanics + exactness vs E-STPM."""
import random

import pytest

from repro.baseline.aps import mine_aps
from repro.baseline.psgrowth import ps_growth
from repro.baseline.pstree import build_tree
from repro.core.estpm import mine
from repro.core.seasonal import STPMParams
from repro.core.sequences import build_dseq

from .paper_example import EXAMPLE_PARAMS, example_dseq
from .test_estpm import random_symbolic, seasonal_symbolic


class TestPSTree:
    def test_build_and_prefix_paths(self):
        txns = {0: ["a", "b"], 1: ["a"], 2: ["a", "b", "c"], 3: ["b", "c"]}
        order = {"a": 0, "b": 1, "c": 2}
        tree = build_tree(txns, order)
        assert tree.n_nodes() == 5  # a, a-b, a-b-c, b, b-c
        paths = tree.prefix_paths("c")
        assert sorted((tuple(p), tuple(t)) for p, t in paths) == [
            (("a", "b"), (2,)),
            (("b",), (3,)),
        ]

    def test_header_chains_all_nodes(self):
        txns = {0: ["a", "b"], 1: ["b"]}
        tree = build_tree(txns, {"a": 0, "b": 1})
        assert len(tree.item_nodes("b")) == 2

    def test_items_not_in_order_dropped(self):
        tree = build_tree({0: ["a", "zzz"]}, {"a": 0})
        assert tree.n_nodes() == 1


class TestPSGrowth:
    def test_finds_cooccurring_itemsets(self):
        txns = {i: ["a", "b"] for i in range(10)}
        txns.update({i: ["a"] for i in range(10, 15)})
        out = ps_growth(txns, min_season=2, min_density=3, max_k=2)
        assert ("a",) in out and ("b",) in out and ("a", "b") in out
        assert out[("a", "b")] == tuple(range(10))
        assert out[("a",)] == tuple(range(15))

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
        from itertools import combinations

        tids = {it: {i for i, items in txns.items() if it in items} for it in "abcde"}
        for k in (1, 2, 3):
            for combo in combinations("abcde", k):
                shared = set.intersection(*(tids[c] for c in combo))
                if len(shared) >= 1:
                    assert out.get(tuple(sorted(combo))) == tuple(sorted(shared)), combo


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
