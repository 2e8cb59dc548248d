"""A-STPM: MI screening + approximate mining vs exact E-STPM.

The Corollary-1.1 mu threshold is demanding (typically ~0.8 for binary
alphabets), so only near-copy series survive screening — shifted or
weakly-correlated series are pruned even when they carry exact patterns.
That is faithful to the paper's math and is exactly the source of the
<100% accuracies in its Tables VII/XII; the families below encode both
sides (copies survive, shifted/noise pruned).
"""
import math
import random
from itertools import combinations

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core.astpm import accuracy, mine_approx, pct_events_pruned, screen_correlated
from repro.core.estpm import mine
from repro.core.mi import pair_min_nmis
from repro.core.seasonal import STPMParams
from repro.core.sequences import build_dseq

from .mi_oracle import nmi, probabilities, scalar_screen

PARAMS = STPMParams(
    max_period=3, min_density=3, dist_min=3, dist_max=15, min_season=2, max_k=3
)

M = 4


def family(seed: int, *, n_copies=2, shifted=False, n_noise=2, n_granules=80):
    """A seasonal driver plus near-copies, optional shifted response, noise.

    Copies share the driver's in-granule shape ([0,2] of 4) and exact
    activity -> NMI 1.0, above mu (at this 80-granule scale even a single
    flipped granule costs ~0.23 NMI, so test copies are exact; the
    full-size datasets use sub-percent flips instead). The shifted
    response ([2,3]) tracks the driver's activity exactly but disagrees
    on ~19% of fine positions -> NMI ~0.5, below mu, so A-STPM prunes it
    although E-STPM finds its patterns.
    """
    rng = random.Random(seed)
    active = [(h % 16) < 5 and rng.random() < 0.95 for h in range(n_granules)]

    def blocks(act, lo, hi):
        out = []
        for a in act:
            b = ["0"] * M
            if a:
                for t in range(lo, hi + 1):
                    b[t] = "1"
            out.extend(b)
        return out

    sym = {"driver": blocks(active, 0, 2)}
    for j in range(n_copies):
        sym[f"copy{j}"] = blocks(active, 0, 2)
    if shifted:
        sym["shifted"] = blocks(active, 2, 3)
    for j in range(n_noise):
        sym[f"noise{j}"] = [
            "1" if rng.random() < 0.12 else "0" for _ in range(n_granules * M)
        ]
    return sym


class TestScreening:
    def test_copies_kept_noise_pruned(self):
        sym = family(0)
        rep = screen_correlated(sym, PARAMS, n_seq=80)
        assert {"driver", "copy0", "copy1"} <= rep.kept_series
        assert {"noise0", "noise1"} <= rep.pruned_series

    def test_shifted_series_pruned_by_mu(self):
        sym = family(1, shifted=True)
        rep = screen_correlated(sym, PARAMS, n_seq=80)
        assert "shifted" in rep.pruned_series

    def test_pct_pruned(self):
        sym = family(2)  # 5 series, 2 noise pruned
        rep = screen_correlated(sym, PARAMS, n_seq=80)
        assert rep.pct_series_pruned == pytest.approx(40.0)

    def test_pair_scores_recorded_for_all_pairs(self):
        sym = family(3)
        rep = screen_correlated(sym, PARAMS, n_seq=80)
        assert len(rep.pair_scores) == 5 * 4 // 2
        for min_nmi, mu in rep.pair_scores.values():
            assert 0.0 <= min_nmi <= 1.0
            assert mu > 0


def regimes(sym, params, n_seq):
    """Which Corollary 1.1 branches the event pairs of ``sym`` take."""
    rhos = [
        params.min_support / (p * n_seq)
        for s in sym
        for p in probabilities(sym[s]).values()
    ]
    return {"case 1" if rho <= 1 / math.e else "case 2" for rho in rhos}


def assert_matches_scalar_screen(sym, params, n_seq):
    """``screen_correlated`` equals the pair-by-pair screen of
    ``mi_oracle``: exact scores and sets given the same NMIs, exact mu
    with its own NMIs, and ties at mu decided by ``>=``."""
    names = sorted(sym)
    nmis = {
        frozenset((a, b)): min(nmi(sym[a], sym[b]), nmi(sym[b], sym[a]))
        for a, b in combinations(names, 2)
    }
    scores, correlated, kept, pruned = scalar_screen(sym, params.min_support, n_seq, nmis)
    rep = screen_correlated(sym, params, n_seq, pair_nmis=nmis)
    assert rep.pair_scores == scores
    assert list(rep.pair_scores) == list(scores)
    assert (rep.correlated_pairs, rep.kept_series, rep.pruned_series) == (correlated, kept, pruned)
    assert rep.n_series == len(names)

    own = screen_correlated(sym, params, n_seq)
    kernel = pair_min_nmis(sym)
    assert own.pair_scores == {key: (kernel[key], mu) for key, (_, mu) in scores.items()}
    for key, (v, _) in own.pair_scores.items():
        assert v == pytest.approx(nmis[key], abs=1e-12)
    assert own.correlated_pairs == {k for k, (v, mu) in own.pair_scores.items() if v >= mu}

    mus = {key: mu for key, (_, mu) in scores.items()}
    tie = screen_correlated(sym, params, n_seq, pair_nmis=mus)
    assert tie.correlated_pairs == set(mus)
    assert tie.kept_series == set(names) and not tie.pruned_series
    below = {key: math.nextafter(mu, -math.inf) for key, mu in mus.items()}
    short = screen_correlated(sym, params, n_seq, pair_nmis=below)
    assert not short.correlated_pairs and not short.kept_series
    assert short.pruned_series == set(names)
    return mus


@st.composite
def screen_inputs(draw):
    """2-6 aligned series over a shared 2-5-symbol alphabet, each using a
    subset of it (one symbol: a constant series), and thresholds from two
    bands: a long D_SEQ with a small gate (rho <= 1/e) and a short one
    with a large gate (rho > 1/e, often > 1, where mu exceeds 1)."""
    alphabet = draw(st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=5, unique=True))
    n = draw(st.integers(1, 30))
    sym = {}
    for i in range(draw(st.integers(2, 6))):
        own = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=len(alphabet), unique=True))
        sym[f"s{i}"] = draw(st.lists(st.sampled_from(own), min_size=n, max_size=n))
    min_season, min_density, n_seq = draw(
        st.one_of(
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(100, 5000)),
            st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(1, 100)),
        )
    )
    params = STPMParams(
        max_period=1, min_density=min_density, dist_min=0, dist_max=1, min_season=min_season
    )
    return sym, params, n_seq


class TestScreenOracle:
    @settings(max_examples=200, deadline=None)
    @given(screen_inputs())
    def test_matches_scalar_screen(self, case):
        sym, params, n_seq = case
        for regime in regimes(sym, params, n_seq):
            event(regime)
        mus = assert_matches_scalar_screen(sym, params, n_seq)
        if any(mu > 1 for mu in mus.values()):
            event("mu > 1")

    #: two constant series, a balanced 3-symbol one, its copy, and one
    #: that lacks a symbol, skewed
    SYM = {
        "const": ["a"] * 30,
        "flat": ["c"] * 30,
        "full": list("abc") * 10,
        "copy": list("abc") * 10,
        "lacks": list("aaaab") * 6,
    }

    @pytest.mark.parametrize(
        "min_season, min_density, n_seq, want",
        [
            (1, 1, 100, {"case 1"}),
            (3, 1, 10, {"case 1", "case 2"}),
            (100, 1, 10, {"case 2"}),
        ],
    )
    def test_matches_scalar_screen_in_each_regime(self, min_season, min_density, n_seq, want):
        params = STPMParams(
            max_period=1, min_density=min_density, dist_min=0, dist_max=1, min_season=min_season
        )
        assert regimes(self.SYM, params, n_seq) == want
        mus = assert_matches_scalar_screen(self.SYM, params, n_seq)
        assert mus[frozenset(("const", "flat"))] == 1.0
        if want == {"case 2"}:
            assert mus[frozenset(("full", "lacks"))] > 1


class TestMineApprox:
    def test_patterns_subset_of_exact(self):
        sym = family(4, shifted=True)
        dseq = build_dseq(sym, m=M)
        exact = mine(dseq, PARAMS)
        approx = mine_approx(sym, dseq, PARAMS)
        assert set(approx.mining.patterns) <= set(exact.patterns)

    def test_full_accuracy_when_all_pattern_series_survive(self):
        sym = family(5)
        dseq = build_dseq(sym, m=M, ignore_symbols={"0"})
        exact = mine(dseq, PARAMS)
        approx = mine_approx(sym, dseq, PARAMS)
        assert len(exact.patterns) > 0
        assert accuracy(approx.mining, exact) == pytest.approx(100.0)

    def test_partial_accuracy_with_shifted_series(self):
        sym = family(6, shifted=True)
        dseq = build_dseq(sym, m=M, ignore_symbols={"0"})
        exact = mine(dseq, PARAMS)
        approx = mine_approx(sym, dseq, PARAMS)
        acc = accuracy(approx.mining, exact)
        assert 0.0 < acc < 100.0
        # the surviving patterns are exactly the ones among kept series
        kept = approx.screening.kept_series
        expected = {
            p
            for p in exact.patterns
            if all(
                e.split(":")[0] in kept for _, a, b in p for e in (a, b)
            )
        }
        assert set(approx.mining.patterns) == expected

    def test_pruned_event_pct_positive(self):
        sym = family(7)
        dseq = build_dseq(sym, m=M)
        approx = mine_approx(sym, dseq, PARAMS)
        # noise series' dense "0" events are candidates -> counted pruned
        assert pct_events_pruned(dseq, approx.screening, PARAMS) > 0

    def test_speedup_proxy_fewer_pairs_considered(self):
        sym = family(8, shifted=True)
        dseq = build_dseq(sym, m=M)
        exact = mine(dseq, PARAMS)
        approx = mine_approx(sym, dseq, PARAMS)
        assert (
            approx.mining.stats["n_pairs_considered"]
            < exact.stats["n_pairs_considered"]
        )


class TestAccuracy:
    def test_empty_exact_is_100(self):
        sym = family(9)
        dseq = build_dseq(sym, m=M)
        r1 = mine(dseq, PARAMS.with_(min_season=50))
        assert accuracy(r1, r1) == 100.0

    def test_identical_results_100(self):
        sym = family(10)
        dseq = build_dseq(sym, m=M)
        r = mine(dseq, PARAMS)
        assert accuracy(r, r) == 100.0
