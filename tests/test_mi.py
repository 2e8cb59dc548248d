"""Mutual information, Lambert W, Theorem-1 bound, Corollary-1.1 mu.

The scalar formulas live in ``tests/mi_oracle.py``; ``repro.core.mi``'s
all-pairs kernels are checked against them.
"""
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.mi import encode, joint_counts, pair_min_nmis

from .mi_oracle import (
    entropy,
    joint_probabilities,
    lambert_w,
    max_season_lower_bound,
    mu_pair,
    mu_series_pair,
    mutual_information,
    nmi,
    probabilities,
    reference_joint_counts,
)


@st.composite
def symbolic_dbs(draw):
    """2-6 aligned series, each over its own alphabet of 1-5 symbols."""
    n = draw(st.integers(1, 40))
    out = {}
    for i in range(draw(st.integers(2, 6))):
        alphabet = draw(
            st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=5, unique=True)
        )
        out[f"s{i}"] = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    return out


class TestProbabilities:
    def test_simple(self):
        assert probabilities(list("0011")) == {"0": 0.5, "1": 0.5}

    def test_joint(self):
        j = joint_probabilities(list("0011"), list("0101"))
        assert j == {("0", "0"): 0.25, ("0", "1"): 0.25, ("1", "0"): 0.25, ("1", "1"): 0.25}

    def test_joint_length_mismatch(self):
        with pytest.raises(ValueError):
            joint_probabilities(list("01"), list("0"))

    def test_empty(self):
        with pytest.raises(ValueError):
            probabilities([])


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert entropy({"0": 0.5, "1": 0.5}) == pytest.approx(1.0)

    def test_deterministic_is_zero(self):
        assert entropy({"0": 1.0}) == pytest.approx(0.0)

    def test_chain_rule(self):
        """I(X;Y) = H(X) + H(Y) - H(X,Y)."""
        rng = random.Random(0)
        xs = [rng.choice("ab") for _ in range(500)]
        ys = [x if rng.random() < 0.8 else rng.choice("cd") for x in xs]
        joint = joint_probabilities(xs, ys)
        h_joint = -sum(p * math.log2(p) for p in joint.values())
        h_x, h_y = entropy(probabilities(xs)), entropy(probabilities(ys))
        assert mutual_information(xs, ys) == pytest.approx(h_x + h_y - h_joint)


class TestMutualInformation:
    def test_identical_series(self):
        xs = list("00110101") * 10
        assert mutual_information(xs, xs) == pytest.approx(entropy(probabilities(xs)))
        assert nmi(xs, xs) == pytest.approx(1.0)

    def test_independent_series(self):
        rng = random.Random(1)
        xs = [rng.choice("01") for _ in range(4000)]
        ys = [rng.choice("01") for _ in range(4000)]
        assert mutual_information(xs, ys) < 0.01
        assert nmi(xs, ys) < 0.01

    def test_nmi_asymmetric(self):
        """Ĩ(X;Y) = I/H(X) differs from I/H(Y) when entropies differ."""
        xs = list("0001" * 50)
        ys = [x if i % 10 else "1" for i, x in enumerate(xs)]
        assert nmi(xs, ys) != pytest.approx(nmi(ys, xs))

    def test_constant_series_nmi_zero(self):
        assert nmi(["a"] * 10, list("0101010101")) == 0.0

    @given(st.integers(0, 5))
    def test_nmi_in_unit_interval(self, seed):
        rng = random.Random(seed)
        xs = [rng.choice("012") for _ in range(200)]
        ys = [rng.choice("01") for _ in range(200)]
        assert 0.0 <= nmi(xs, ys) <= 1.0


class TestPairMinNMIs:
    @given(symbolic_dbs())
    def test_matches_scalar_oracle(self, sym):
        got = pair_min_nmis(sym)
        names = sorted(sym)
        assert len(got) == len(names) * (len(names) - 1) // 2
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                want = min(nmi(sym[a], sym[b]), nmi(sym[b], sym[a]))
                assert got[frozenset((a, b))] == pytest.approx(want, abs=1e-12)

    def test_unequal_lengths_name_the_series(self):
        sym = {"a": list("0101"), "b": list("0101"), "short": list("010")}
        with pytest.raises(ValueError, match="short"):
            pair_min_nmis(sym)

    def test_missing_instant_names_the_series(self):
        sym = {"a": list("0101"), "holed": ["0", None, "0", "1"]}
        with pytest.raises(ValueError, match="holed"):
            pair_min_nmis(sym)

    def test_empty_series_name_the_series(self):
        """No instants, no distribution: refused by name, not 0.0 after a
        division by zero."""
        with pytest.raises(ValueError, match=r"\ba\b.*\bb\b"):
            pair_min_nmis({"a": [], "b": []})

    @given(symbolic_dbs())
    def test_joint_counts_keep_the_padded_layout(self, sym):
        """Popcount joint counts equal one ``np.bincount`` per pair over
        ``np.unique`` codes: same values, dtype and memory layout, so the
        NMI kernel sees the identical array."""
        got = joint_counts(encode(sym))
        want = reference_joint_counts(sym)
        assert got.dtype == want.dtype == np.intp
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


class TestLambertW:
    @given(st.floats(-1 / math.e + 1e-9, 100.0))
    def test_inverts_we_w(self, x):
        w = lambert_w(x)
        assert w * math.exp(w) == pytest.approx(x, abs=1e-8)

    def test_branch_point(self):
        assert lambert_w(-1 / math.e) == pytest.approx(-1.0)

    def test_known_values(self):
        assert lambert_w(0.0) == pytest.approx(0.0)
        assert lambert_w(math.e) == pytest.approx(1.0)
        assert lambert_w(1.0) == pytest.approx(0.5671432904097838)

    def test_below_branch_raises(self):
        with pytest.raises(ValueError):
            lambert_w(-1.0)

    def test_float_noise_clamped(self):
        assert lambert_w(-1 / math.e - 1e-12) == pytest.approx(-1.0)


class TestTheoremBound:
    def test_bound_at_mu_one_is_trivial_max(self):
        """mu=1 -> W(0)=0 -> bound = lambda2*|D|/minDensity."""
        b = max_season_lower_bound(1.0, 0.5, 0.4, 1000, 10)
        assert b == pytest.approx(0.4 * 1000 / 10)

    def test_bound_monotone_in_mu(self):
        bounds = [
            max_season_lower_bound(mu, 0.3, 0.4, 1000, 10)
            for mu in (0.5, 0.7, 0.9, 1.0)
        ]
        assert bounds == sorted(bounds)

    def test_bound_positive(self):
        assert max_season_lower_bound(0.2, 0.1, 0.2, 500, 5) > 0


class TestMu:
    def test_mu_consistent_with_bound(self):
        """Case 2 (rho > 1/e): mu put back into Theorem 1 gives minSeason
        exactly, because W(rho ln rho) = ln rho."""
        lambda1, lambda2, n_seq, min_density, min_season = 0.2, 0.3, 608, 10, 12
        rho = min_season * min_density / (lambda2 * n_seq)
        assert rho > 1 / math.e
        assert lambert_w(rho * math.log(rho)) == pytest.approx(math.log(rho))
        mu = mu_pair(lambda1, lambda2, min_support=min_season * min_density, n_seq=n_seq)
        assert 0 < mu < 1
        bound = max_season_lower_bound(mu, lambda1, lambda2, n_seq, min_density)
        assert bound == pytest.approx(min_season, rel=1e-9)

    def test_mu_cases_meet_at_rho_one_over_e(self):
        """Eqs. 36 and 37 give the same mu at rho = 1/e."""
        lambda1, lambda2, min_season, min_density = 0.2, 0.3, 12, 10

        def mu_at(rho):
            n_seq = min_season * min_density / (lambda2 * rho)
            return mu_pair(lambda1, lambda2, min_support=min_season * min_density, n_seq=n_seq)

        below, above = mu_at(math.exp(-1) * (1 - 1e-9)), mu_at(math.exp(-1) * (1 + 1e-9))
        assert above == pytest.approx(below, abs=1e-8)

    def test_mu_case1_independent_of_thresholds(self):
        """With rho <= 1/e mu is the W-feasibility limit (Eq. 36)."""
        m1 = mu_pair(0.3, 0.5, min_support=4, n_seq=10000)
        m2 = mu_pair(0.3, 0.5, min_support=8, n_seq=10000)
        assert m1 == pytest.approx(m2)
        assert m1 == pytest.approx(1 - 0.5 / (math.e * math.log(2) * math.log2(1 / 0.3)))

    def test_mu_in_unit_interval_for_feasible_setups(self):
        mu = mu_pair(0.4, 0.6, min_support=12, n_seq=1000)
        assert 0 < mu < 1

    def test_degenerate_lambda1_unprunable(self):
        """A constant X carries no information -> mu pinned at 1."""
        assert mu_pair(1.0, 0.5, min_support=4, n_seq=100) == 1.0

    def test_mu_series_pair_takes_minimum(self):
        px = {"0": 0.5, "1": 0.5}
        py = {"0": 0.9, "1": 0.1}
        mu = mu_series_pair(px, py, min_support=4, n_seq=10000)
        candidates = [
            mu_pair(min(pa.values()), l2, min_support=4, n_seq=10000)
            for pa, pb in ((px, py), (py, px))
            for l2 in pb.values()
        ]
        assert mu == pytest.approx(min(candidates))
