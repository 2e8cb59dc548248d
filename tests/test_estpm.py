"""E-STPM vs the brute-force reference, incl. the pruning ablation.

The headline property: all four pruning configurations (NoPrune,
Apriori, Trans, All — the paper's Figs. 15-16 variants) return exactly
the same frequent seasonal patterns as the exhaustive miner, i.e. the
prunings are lossless (Lemmas 1-4).
"""
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro

from repro.baseline.aps import mine_aps
from repro.core.brute import mine_brute
from repro.core.estpm import mine
from repro.core.seasonal import STPMParams
from repro.core.sequences import build_dseq

from .paper_example import EXAMPLE_PARAMS, example_dseq

PRUNE_CONFIGS = [
    pytest.param(dict(apriori=False, transitivity=False), id="NoPrune"),
    pytest.param(dict(apriori=True, transitivity=False), id="Apriori"),
    pytest.param(dict(apriori=False, transitivity=True), id="Trans"),
    pytest.param(dict(apriori=True, transitivity=True), id="All"),
]


def random_symbolic(seed: int, n_series=4, n_fine=120, p=0.45) -> dict:
    rng = random.Random(seed)
    return {
        f"S{i}": ["1" if rng.random() < p else "0" for _ in range(n_fine)]
        for i in range(n_series)
    }


def seasonal_symbolic(seed: int, n_series=4, n_granules=60, m=4) -> dict:
    """Series with injected 12-granule seasonal cycles + noise."""
    rng = random.Random(seed)
    out = {}
    for i in range(n_series):
        syms = []
        for h in range(n_granules):
            active = (h % 12) < 4 and rng.random() < 0.9
            if i % 2 and rng.random() < 0.1:
                active = not active
            for t in range(m):
                on = active and (i % m) <= t <= (i % m) + 1
                syms.append("1" if on else "0")
        out[f"S{i}"] = syms
    return out


def verdicts(singles, patterns) -> tuple[dict, dict]:
    """Each frequent single's and pattern's support and season count."""
    return (
        {e: (v.sup, v.n_seasons) for e, v in singles.items()},
        {p: (v.sup, v.n_seasons) for p, v in patterns.items()},
    )


def tie_symbolic(n_granules=72, m=4) -> dict:
    """Series ``x4``/``x40``/``x43``: equal spans in even active granules,
    strictly ordered spans in odd ones, 12-granule seasons.

    ``"x4" < "x40"`` as series names but ``"x40:1" < "x4:1"`` as event
    keys, so an equal-span tie broken on the key string would name the
    container differently from the canonical instance order.
    """
    spans = {
        0: {"x4": (1, 2), "x40": (1, 2), "x43": (1, 2)},
        1: {"x43": (0, 1), "x4": (1, 3), "x40": (2, 2)},
    }
    out = {s: [] for s in ("x4", "x40", "x43")}
    for h in range(n_granules):
        for s, syms in out.items():
            span = spans[h % 2][s] if h % 12 < 4 else None
            syms.extend(
                "1" if span and span[0] <= t <= span[1] else "0" for t in range(m)
            )
    return out


@pytest.mark.parametrize("cfg", PRUNE_CONFIGS)
def test_all_prune_configs_match_brute_on_example(cfg):
    dseq = example_dseq()
    b_singles, b_patterns = mine_brute(dseq, EXAMPLE_PARAMS)
    res = mine(dseq, EXAMPLE_PARAMS, **cfg)
    assert set(res.singles) == set(b_singles)
    assert set(res.patterns) == set(b_patterns)
    for p, v in res.patterns.items():
        assert v.sup == b_patterns[p].sup
        assert v.n_seasons == b_patterns[p].n_seasons


@pytest.mark.parametrize("cfg", PRUNE_CONFIGS)
@pytest.mark.parametrize("seed", range(6))
def test_prune_configs_match_brute_random(seed, cfg):
    sym = random_symbolic(seed)
    dseq = build_dseq(sym, m=4)
    params = STPMParams(
        max_period=2, min_density=2, dist_min=1, dist_max=8, min_season=2, max_k=3
    )
    b_singles, b_patterns = mine_brute(dseq, params)
    res = mine(dseq, params, **cfg)
    assert set(res.singles) == set(b_singles)
    assert set(res.patterns) == set(b_patterns)


@pytest.mark.parametrize("cfg", PRUNE_CONFIGS)
@pytest.mark.parametrize("seed", range(4))
def test_prune_configs_match_brute_seasonal(seed, cfg):
    sym = seasonal_symbolic(seed)
    dseq = build_dseq(sym, m=4)
    params = STPMParams(
        max_period=2, min_density=3, dist_min=4, dist_max=12, min_season=3, max_k=3
    )
    b_singles, b_patterns = mine_brute(dseq, params)
    res = mine(dseq, params, **cfg)
    assert set(res.patterns) == set(b_patterns)


@pytest.mark.parametrize("cfg", PRUNE_CONFIGS)
def test_prune_configs_match_brute_and_aps_on_ties(cfg):
    """Equal-span ties order by ``canonical_sort_key`` in every miner."""
    dseq = build_dseq(tie_symbolic(), m=4, ignore_symbols={"0"})
    params = STPMParams(
        max_period=2, min_density=2, dist_min=4, dist_max=12, min_season=3, max_k=3
    )
    b_singles, b_patterns = mine_brute(dseq, params)
    assert any(len(p) == 3 for p in b_patterns)  # the input exercises k = 3
    res = mine(dseq, params, **cfg)
    expect = verdicts(b_singles, b_patterns)
    assert verdicts(res.singles, res.patterns) == expect
    aps = mine_aps(dseq, params)
    assert verdicts(aps.singles, aps.patterns) == expect


@pytest.mark.parametrize("eps,d_o", [(1, 1), (0, 2), (1, 2)])
def test_epsilon_do_variants_match_brute(eps, d_o):
    sym = random_symbolic(42, n_series=3)
    dseq = build_dseq(sym, m=5)
    params = STPMParams(
        max_period=2, min_density=2, dist_min=1, dist_max=8, min_season=2,
        epsilon=eps, d_o=d_o, max_k=3,
    )
    b_singles, b_patterns = mine_brute(dseq, params)
    res = mine(dseq, params)
    assert set(res.patterns) == set(b_patterns)


def test_pruning_reduces_work():
    """The Apriori gate must actually shrink the candidate space."""
    dseq = example_dseq()
    pruned = mine(dseq, EXAMPLE_PARAMS)
    unpruned = mine(dseq, EXAMPLE_PARAMS, apriori=False, transitivity=False)
    assert pruned.stats["n_candidate_events"] < unpruned.stats["n_candidate_events"]
    assert (
        pruned.stats["n_candidate_patterns"] <= unpruned.stats["n_candidate_patterns"]
    )


def test_chain_gate_drops_bunched_support():
    """An event whose support is large enough for Eq. 1 but bunched too
    closely for minSeason spaced seasons leaves HLH_1 under the Apriori
    gate, k >= 3 groups are dropped the same way, and every pruning
    config still equals brute force."""
    sym = seasonal_symbolic(3)
    # "B:1" holds granules 0-9: 10 >= min_support 9, but blocks of 3
    # spaced dist_min 4 apart fit only twice (0-2, 6-8)
    sym["B"] = ["1" if h < 10 and t in (1, 2) else "0" for h in range(60) for t in range(4)]
    dseq = build_dseq(sym, m=4)
    params = STPMParams(
        max_period=2, min_density=3, dist_min=4, dist_max=12, min_season=3, max_k=3
    )
    expect = verdicts(*mine_brute(dseq, params))
    results = {}
    for cfg in PRUNE_CONFIGS:
        res = results[cfg.id] = mine(dseq, params, **cfg.values[0])
        assert verdicts(res.singles, res.patterns) == expect
    assert "B:1" in results["NoPrune"].hlh1 and "B:1" not in results["All"].hlh1
    for name in ("Apriori", "All"):
        assert results[name].stats["n_chain_pruned_events"] == 1
        assert results[name].stats["n_chain_pruned_groups_k3"] > 0
    for name in ("NoPrune", "Trans"):
        assert results[name].stats["n_chain_pruned_events"] == 0
        assert results[name].stats["n_chain_pruned_groups_k3"] == 0


def test_max_k_limits_pattern_length():
    dseq = example_dseq()
    res = mine(dseq, EXAMPLE_PARAMS.with_(max_k=2))
    assert all(len(p) == 1 for p in res.patterns)
    res3 = mine(dseq, EXAMPLE_PARAMS.with_(max_k=3))
    assert any(len(p) == 3 for p in res3.patterns)  # 3-event patterns exist


def test_k3_patterns_have_three_triples_and_subpatterns():
    """Every frequent 3-event pattern's 2-event projections are candidates."""
    dseq = example_dseq()
    res = mine(dseq, EXAMPLE_PARAMS)
    k3 = [p for p in res.patterns if len(p) == 3]
    assert k3
    for pattern in k3:
        events = {e for _, a, b in pattern for e in (a, b)}
        assert len(events) == 3
        for triple in pattern:
            group = res.hlhk[2].groups[tuple(sorted(triple[1:]))]
            assert (triple,) in group.patterns

    k2 = [p for p in res.patterns if len(p) == 1]
    assert set(k2) | set(k3) == set(res.patterns)


def test_verdicts_hold_the_miners_own_bitsets():
    """A frequent pattern's verdict holds its HLH_k bitset, and a frequent
    single's its HLH_1 support: the same int objects, not decoded copies."""
    seasonal = STPMParams(
        max_period=2, min_density=3, dist_min=4, dist_max=12, min_season=3, max_k=3
    )
    for dseq, params in (
        (example_dseq(), EXAMPLE_PARAMS),
        (build_dseq(seasonal_symbolic(0), m=4), seasonal),
    ):
        res = mine(dseq, params)
        candidates = {
            p: bits
            for hlh in res.hlhk.values()
            for g in hlh.groups.values()
            for p, bits in g.patterns.items()
        }
        assert any(len(p) == 3 for p in res.patterns) and res.singles
        for p, v in res.patterns.items():
            assert v.bits is candidates[p]
        for e, v in res.singles.items():
            assert v.bits is res.hlh1[e].sup


def test_min_season_monotone():
    """Raising minSeason can only shrink the frequent set (Tables IX-X trend)."""
    dseq = example_dseq()
    prev = None
    for ms in (1, 2, 3, 4):
        got = set(mine(dseq, EXAMPLE_PARAMS.with_(min_season=ms)).patterns)
        if prev is not None:
            assert got <= prev
        prev = got


def test_max_period_enters_only_the_seasonal_check():
    """maxPeriod splits near support sets (Def. 3.15) and nothing else:
    the candidate groups and pattern supports are those at maxPeriod 1,
    the frequent patterns still equal brute force, and they do change."""

    def candidates(res):
        return {
            k: {key: g.patterns for key, g in hlh.groups.items()}
            for k, hlh in res.hlhk.items()
        }

    def verdicts(singles, patterns):
        return {key: (v.sup, v.n_seasons) for key, v in (*singles.items(), *patterns.items())}

    seasonal = STPMParams(
        max_period=1, min_density=3, dist_min=4, dist_max=12, min_season=3, max_k=3
    )
    for dseq, params in (
        (example_dseq(), EXAMPLE_PARAMS),
        (build_dseq(seasonal_symbolic(0), m=4), seasonal),
    ):
        runs = {mp: params.with_(max_period=mp) for mp in (1, 2, 3, 4, 8)}
        results = {mp: mine(dseq, p) for mp, p in runs.items()}
        for mp, res in results.items():
            assert candidates(res) == candidates(results[1])
            assert verdicts(res.singles, res.patterns) == verdicts(*mine_brute(dseq, runs[mp]))
        assert len({frozenset(res.patterns) for res in results.values()}) > 1


def test_restrict_series_limits_mining():
    dseq = example_dseq()
    res = mine(dseq, EXAMPLE_PARAMS, restrict_series={"C", "D"})
    assert all(ev.split(":")[0] in {"C", "D"} for ev in res.hlh1)
    for pattern in res.patterns:
        for _, a, b in pattern:
            assert a.split(":")[0] in {"C", "D"}
            assert b.split(":")[0] in {"C", "D"}


def test_allowed_pairs_limits_k2():
    dseq = example_dseq()
    allowed = {frozenset({"C", "D"})}
    res = mine(dseq, EXAMPLE_PARAMS, allowed_pairs=allowed)
    for pattern in (p for p in res.patterns if len(p) == 1):
        (_, a, b) = pattern[0]
        sa, sb = a.split(":")[0], b.split(":")[0]
        assert sa == sb or frozenset({sa, sb}) in allowed


TIE_NAMES = ("x4", "x40", "x43")


@st.composite
def tie_cases(draw):
    """Small multi-symbol D_SEQs over ``x4``/``x40``/``x43`` plus params.

    Each granule has a template block that every series copies or
    redraws, so equal spans across series (shape ties) are common.
    """
    m = draw(st.integers(1, 6))
    n_granules = draw(st.integers(4, 24))
    block = st.lists(st.sampled_from("012"[: draw(st.integers(1, 3))]), min_size=m, max_size=m)
    symbolic = {s: [] for s in TIE_NAMES}
    for _ in range(n_granules):
        template = draw(block)
        for syms in symbolic.values():
            syms.extend(draw(block) if draw(st.booleans()) else template)
    dist_min = draw(st.integers(0, 4))
    params = STPMParams(
        max_period=draw(st.integers(1, 3)),
        min_density=draw(st.integers(1, 3)),
        dist_min=dist_min,
        dist_max=dist_min + draw(st.integers(0, 8)),
        min_season=draw(st.integers(1, 3)),
        epsilon=draw(st.sampled_from((0, 1, 2))),
        d_o=draw(st.sampled_from((1, 2))),
        max_k=3,
    )
    return build_dseq(symbolic, m), params


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tie_cases())
def test_prune_configs_match_brute_property(case):
    """Every pruning config and APS-growth equal brute force, supports
    and season counts included, on shape ties, every epsilon (Contains >
    Follows > Overlaps) and d_o."""
    dseq, params = case
    expect = verdicts(*mine_brute(dseq, params))
    for cfg in PRUNE_CONFIGS:
        res = mine(dseq, params, **cfg.values[0])
        assert verdicts(res.singles, res.patterns) == expect
    aps = mine_aps(dseq, params)
    assert verdicts(aps.singles, aps.patterns) == expect


def run_without_numpy(body: str) -> None:
    """Run ``body`` in a fresh interpreter where numpy and pandas are
    unimportable, and check it imported neither."""
    code = 'import sys\nsys.modules["numpy"] = sys.modules["pandas"] = None\n'
    code += textwrap.dedent(body)
    code += 'assert sys.modules["numpy"] is None and sys.modules["pandas"] is None\n'
    src = Path(repro.__file__).resolve().parents[1]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(root))))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr


def test_estpm_never_imports_numpy():
    """E-STPM runs with numpy and pandas unimportable, so a mining call
    never pays their first-use memory."""
    run_without_numpy(
        """
        import random
        from repro.core.estpm import mine
        from repro.core.sequences import build_dseq
        from tests.paper_example import EXAMPLE_PARAMS, example_dseq

        rng = random.Random(7)
        sym = {f"S{i}": rng.choices("012", k=120) for i in range(4)}
        for dseq in (example_dseq(), build_dseq(sym, m=4)):
            for apriori in (False, True):
                for transitivity in (False, True):
                    mine(dseq, EXAMPLE_PARAMS, apriori=apriori, transitivity=transitivity)
        """
    )


def test_aps_and_brute_never_import_numpy():
    """APS-growth and brute force run with numpy and pandas unimportable
    too: their seasonal check is int operations only, so a peak-memory
    measurement of APS-growth never includes numpy's first use."""
    run_without_numpy(
        """
        import random
        from repro.baseline.aps import mine_aps
        from repro.core.brute import mine_brute
        from repro.core.sequences import build_dseq
        from tests.paper_example import EXAMPLE_PARAMS, example_dseq

        rng = random.Random(7)
        sym = {f"S{i}": rng.choices("012", k=120) for i in range(4)}
        for dseq in (example_dseq(), build_dseq(sym, m=4)):
            assert mine_aps(dseq, EXAMPLE_PARAMS).patterns
            mine_brute(dseq, EXAMPLE_PARAMS)
        """
    )
