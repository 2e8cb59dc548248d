"""Scalar restatements of Section V, the oracle for ``core.mi`` and A-STPM's screen.

Entropy and (normalized) mutual information over aligned symbolic
series (Defs. 5.1-5.3, Eqs. 2-5), the Lambert W function (principal
branch, by Halley iteration), Theorem 1's lower bound of maxSeason and
Corollary 1.1's mu, one event pair and one series pair at a time. The
pipeline computes the same quantities for all series pairs at once in
``repro.core.mi``; nothing outside the tests calls these.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

_E_INV = 1.0 / math.e


def probabilities(symbols: Sequence[str]) -> dict[str, float]:
    """Empirical symbol distribution p(x) of a symbolic series."""
    n = len(symbols)
    if n == 0:
        raise ValueError("empty series")
    return {s: c / n for s, c in Counter(symbols).items()}


def joint_probabilities(xs: Sequence[str], ys: Sequence[str]) -> dict[tuple[str, str], float]:
    """Empirical joint distribution p(x, y) of two aligned symbolic series."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n == 0:
        raise ValueError("empty series")
    return {xy: c / n for xy, c in Counter(zip(xs, ys)).items()}


def entropy(p: Mapping[str, float]) -> float:
    """Shannon entropy H(X) in bits (Eq. 2)."""
    return -sum(v * math.log2(v) for v in p.values() if v > 0)


def mutual_information(xs: Sequence[str], ys: Sequence[str]) -> float:
    """I(X;Y) in bits (Eq. 4)."""
    px, py = probabilities(xs), probabilities(ys)
    joint = joint_probabilities(xs, ys)
    out = 0.0
    for (x, y), pxy in joint.items():
        if pxy > 0:
            out += pxy * math.log2(pxy / (px[x] * py[y]))
    return max(0.0, out)


def nmi(xs: Sequence[str], ys: Sequence[str]) -> float:
    """Normalized MI, Ĩ(X;Y) = I(X;Y)/H(X) (Eq. 5). Asymmetric by design.

    A constant X has H(X)=0 and shares no information: 0.0.
    """
    h = entropy(probabilities(xs))
    if h == 0.0:
        return 0.0
    return min(1.0, mutual_information(xs, ys) / h)


def reference_joint_counts(symbolic: Mapping[str, Sequence[str]]) -> np.ndarray:
    """Joint counts of every pair in ``combinations(sorted(symbolic), 2)``,
    one ``np.bincount`` per pair over ``np.unique`` codes zero-padded to
    the largest alphabet: the layout ``core.mi.joint_counts`` must give."""
    names = sorted(symbolic)
    codes, k = [], 1
    for s in names:
        levels, inv = np.unique(np.asarray(symbolic[s]), return_inverse=True)
        codes.append(inv)
        k = max(k, len(levels))
    pairs = list(combinations(range(len(names)), 2))
    counts = np.empty((len(pairs), k * k), dtype=np.intp)
    for p, (i, j) in enumerate(pairs):
        counts[p] = np.bincount(codes[i] * k + codes[j], minlength=k * k)
    return counts.reshape(-1, k, k)


def lambert_w(x: float) -> float:
    """Principal branch W_0: solves w * e^w = x for x >= -1/e.

    Halley iteration from a standard initial guess until a step moves w by
    at most 1e-12 relative (100 steps at most); inputs a hair below
    -1/e (float noise from callers) are clamped to the branch point.
    """
    if x < -_E_INV:
        if x < -_E_INV - 1e-9:
            raise ValueError(f"lambert_w undefined for x={x} < -1/e")
        x = -_E_INV
    if x == -_E_INV:
        return -1.0
    w = math.log1p(x) if x > -0.25 else -1.0 + math.sqrt(2.0 * (1.0 + math.e * x))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0) if w != -1.0 else ew
        w_new = w - f / denom
        if abs(w_new - w) <= 1e-12 * (1.0 + abs(w_new)):
            return w_new
        w = w_new
    return w


def max_season_lower_bound(
    mu: float, lambda1: float, lambda2: float, n_seq: int, min_density: int
) -> float:
    """Theorem 1: lower bound of maxSeason(X_1, Y_1) given NMI >= mu."""
    if not (0 < lambda1 <= 1 and 0 < lambda2 <= 1):
        raise ValueError("lambda1/lambda2 must be in (0, 1]")
    if lambda1 == 1.0:
        # degenerate single-symbol X: log lambda1 = 0 -> bound is the trivial max
        return lambda2 * n_seq / min_density
    arg = math.log2(lambda1) * (1.0 - mu) * math.log(2.0) / lambda2
    arg = max(arg, -_E_INV)
    return lambda2 * n_seq / min_density * math.exp(lambert_w(arg))


def mu_pair(lambda1: float, lambda2: float, *, min_support: int, n_seq: int) -> float:
    """Corollary 1.1 for one event pair (appendix Eqs. 36/37).

    ``lambda1`` = min symbol probability of X; ``lambda2`` = p(Y_1);
    ``min_support`` = minSeason·minDensity. A constant X gets 1.0.
    """
    if lambda1 >= 1.0:
        return 1.0
    rho = min_support / (lambda2 * n_seq)
    log_inv_l1 = math.log2(1.0 / lambda1)
    if rho <= _E_INV:
        return 1.0 - lambda2 / (math.e * math.log(2.0) * log_inv_l1)
    return 1.0 - rho * lambda2 * math.log(rho) / (math.log(2.0) * math.log2(lambda1))


def mu_series_pair(
    px: Mapping[str, float], py: Mapping[str, float], *, min_support: int, n_seq: int
) -> float:
    """A series pair's mu: the minimum over its event pairs, both directions."""
    out = math.inf
    for pa, pb in ((px, py), (py, px)):
        l1 = min(pa.values())
        for l2 in pb.values():
            out = min(out, mu_pair(l1, l2, min_support=min_support, n_seq=n_seq))
    return out


def scalar_screen(
    symbolic: Mapping[str, Sequence[str]],
    min_support: int,
    n_seq: int,
    pair_nmis: Mapping[frozenset, float],
) -> tuple[dict, set, set, set]:
    """A-STPM's screen one pair at a time (Def. 5.4):
    ``(pair_scores, correlated_pairs, kept_series, pruned_series)``."""
    names = sorted(symbolic)
    probs = {s: probabilities(symbolic[s]) for s in names}
    scores, correlated, kept = {}, set(), set()
    for a, b in combinations(names, 2):
        key = frozenset((a, b))
        mu = mu_series_pair(probs[a], probs[b], min_support=min_support, n_seq=n_seq)
        scores[key] = (pair_nmis[key], mu)
        if pair_nmis[key] >= mu:
            correlated.add(key)
            kept.update((a, b))
    return scores, correlated, kept, set(names) - kept
