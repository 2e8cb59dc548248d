"""Figs. 7-10 shape: the three miners on the same dataset/params.

pytest-benchmark's relative ranking of these three benchmarks *is* the
paper's runtime comparison. The paper has A-STPM < E-STPM < APS-growth;
here E-STPM and A-STPM run about level, both well ahead of APS-growth
(EXPERIMENTS.md, Figs. 7-10).
"""
from repro.baseline.aps import mine_aps
from repro.core.astpm import mine_approx
from repro.core.estpm import mine
from repro.core.mi import pair_min_nmis


def test_astpm(benchmark, inf_data, inf_params):
    _, symbols, dseq = inf_data
    nmis = pair_min_nmis(symbols)
    res = benchmark(mine_approx, symbols, dseq, inf_params, pair_nmis=nmis)
    found = set(res.mining.patterns)
    assert found and found <= set(mine(dseq, inf_params).patterns)


def test_estpm(benchmark, inf_data, inf_params):
    _, _, dseq = inf_data
    res = benchmark(mine, dseq, inf_params)
    assert res.stats["n_frequent_patterns"] > 0


def test_aps_growth_baseline(benchmark, inf_data, inf_params):
    _, _, dseq = inf_data
    res = benchmark(mine_aps, dseq, inf_params)
    assert res.stats["n_frequent_patterns"] > 0
