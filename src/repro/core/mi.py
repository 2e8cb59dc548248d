"""Mutual information machinery for A-STPM (Section V).

Implements entropy and (normalized) mutual information over *aligned*
symbolic series (Defs. 5.1-5.3), the Lambert W function (principal
branch, needed by Theorem 1's lower bound; scipy is not a dependency, so
Halley iteration), and the mu threshold of Corollary 1.1.

All logarithms are base 2, matching the paper's use of ``log`` for
entropies and ``ln`` where it says so.

Known paper wrinkle (see DESIGN.md): the main-text Eq. (14) case 2
disagrees with the appendix derivation Eq. (37); we follow the appendix,
which is the one actually derived from Theorem 1, with the natural log
of rho that inverting its Lambert W gives:
``mu >= 1 - rho*lambda2*ln(rho) / ln(lambda1)``.
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

    A constant X has H(X)=0 and shares no information; we return 0.0
    (nothing can reduce zero uncertainty) rather than dividing by zero.
    """
    h = entropy(probabilities(xs))
    if h == 0.0:
        return 0.0
    return min(1.0, mutual_information(xs, ys) / h)


def nmi_from_joint_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(NMI(X;Y), NMI(Y;X))`` from joint counts ``counts[..., |X|, |Y|]``.

    Eqs. 2-5 vectorised over the leading axes, with the same conventions
    as :func:`nmi` (MI floored at 0, NMI capped at 1, 0.0 for a constant
    series). All-zero rows or columns (padding for symbols a series
    lacks) add nothing.
    """
    joint = np.asarray(counts, dtype=float)
    joint = joint / joint.sum(axis=(-2, -1), keepdims=True)
    px = joint.sum(axis=-1)
    py = joint.sum(axis=-2)
    indep = px[..., :, None] * py[..., None, :]
    ratio = np.divide(joint, indep, out=np.ones_like(joint), where=joint > 0)
    mi = np.maximum((joint * np.log2(ratio)).sum(axis=(-2, -1)), 0.0)

    def nmi_over(p: np.ndarray) -> np.ndarray:
        h = -(p * np.log2(np.where(p > 0, p, 1.0))).sum(axis=-1)
        return np.minimum(1.0, np.divide(mi, h, out=np.zeros_like(mi), where=h > 0))

    return nmi_over(px), nmi_over(py)


def _pair_nmis(
    symbolic: Mapping[str, Sequence[str]],
) -> tuple[list[str], list[tuple[int, int]], np.ndarray, np.ndarray]:
    """``(names, pairs, nmi_xy, nmi_yx)`` over every pair ``i < j`` of the
    sorted series names, the two NMI directions aligned with ``pairs``."""
    names = sorted(symbolic)
    lengths = {len(symbolic[s]) for s in names}
    if len(lengths) > 1:
        raise ValueError(
            "series differ in length: "
            + ", ".join(f"{s}={len(symbolic[s])}" for s in names)
        )
    codes, k = [], 1
    for s in names:
        symbols = np.asarray(symbolic[s])
        if symbols.dtype == object and any(x is None for x in symbolic[s]):
            raise ValueError(f"series {s} has missing instants (None)")
        levels, inv = np.unique(symbols, return_inverse=True)
        codes.append(inv.astype(np.min_scalar_type(len(levels))))
        k = max(k, len(levels))
    pairs = list(combinations(range(len(names)), 2))
    counts = np.empty((len(pairs), k * k), dtype=np.intp)
    for p, (i, j) in enumerate(pairs):
        joint = np.multiply(codes[i], k, dtype=np.intp)
        joint += codes[j]
        counts[p] = np.bincount(joint, minlength=k * k)
    nmi_xy, nmi_yx = nmi_from_joint_counts(counts.reshape(-1, k, k))
    return names, pairs, nmi_xy, nmi_yx


def pair_min_nmis(symbolic: Mapping[str, Sequence[str]]) -> dict[frozenset, float]:
    """min(NMI(X;Y), NMI(Y;X)) for every unordered pair of aligned series.

    The series must be complete: equal lengths and no missing instant.
    """
    names, pairs, nmi_xy, nmi_yx = _pair_nmis(symbolic)
    return {
        frozenset((names[i], names[j])): v
        for (i, j), v in zip(pairs, np.minimum(nmi_xy, nmi_yx).tolist())
    }


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
    """Corollary 1.1: smallest mu making the Theorem-1 bound reach minSeason.

    ``lambda1`` = min symbol probability of X_S; ``lambda2`` = p(Y_1) for
    the event pair's Y-side event; ``min_support`` = minSeason·minDensity,
    the maxSeason gate (``STPMParams.min_support``). Follows appendix
    Eqs. (36)/(37); the result may exceed 1 when the thresholds are
    unreachable for this pair (then no finite NMI qualifies, i.e. the
    pair is prunable).
    """
    if lambda1 >= 1.0:
        # degenerate constant X: it carries no information, so no NMI
        # evidence can certify the bound — treat the pair as unprunable
        # only at perfect NMI (Def. 5.4 requires 0 < mu)
        return 1.0
    rho = min_support / (lambda2 * n_seq)
    log_inv_l1 = math.log2(1.0 / lambda1)
    if rho <= _E_INV:
        return 1.0 - lambda2 / (math.e * math.log(2.0) * log_inv_l1)
    # W(a) = ln rho inverts to a = rho ln rho (DESIGN.md, "Corollary 1.1 as written")
    return 1.0 - rho * lambda2 * math.log(rho) / (math.log(2.0) * math.log2(lambda1))


def mu_series_pair(
    px: Mapping[str, float], py: Mapping[str, float], *, min_support: int, n_seq: int
) -> float:
    """Final mu for a series pair: the minimum over all event pairs.

    Per Section V-B, mu is computed per event pair (X_1, Y_1) and the
    chosen threshold is the minimum across pairs — for the X->Y
    direction, lambda1 = min_x p(x) is fixed, so the minimizer scans
    lambda2 = p(y) over Y's symbols. Both directions are taken (NMI is
    asymmetric) and the overall minimum returned.
    """
    out = math.inf
    for pa, pb in ((px, py), (py, px)):
        l1 = min(pa.values())
        for l2 in pb.values():
            out = min(out, mu_pair(l1, l2, min_support=min_support, n_seq=n_seq))
    return out
