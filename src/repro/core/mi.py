"""Mutual information machinery for A-STPM (Section V).

A-STPM's screen needs two numbers per series pair: the smaller of the
two normalized MIs (Defs. 5.1-5.3, Eqs. 2-5) and the mu threshold of
Corollary 1.1. Both are computed for all pairs at once, and no numpy or
``math`` call runs once per pair:

* :func:`encode` checks the series and reads each one's sorted levels
  and per-level counts, from which ``p(x) = count / n``.
* :func:`joint_counts` turns each series once into one Python-int
  bitset per level (:func:`level_bits`) and counts each pair's joint
  occurrences by popcount.
  :func:`nmi_from_joint_counts` turns all pairs' counts into NMI with a
  fixed number of numpy calls.
* :func:`mu_matrix` evaluates Corollary 1.1 with ``math`` per series and
  per symbol, then combines them over all pairs with elementwise numpy
  ops in the same order as the scalar formula.

The scalar formulas (entropy, MI, NMI, Lambert W, Theorem 1's bound,
Corollary 1.1 per event pair) are the tests' oracle, in
``tests/mi_oracle.py``.

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
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Mapping, Sequence

import numpy as np

_E_INV = 1.0 / math.e
_LN2 = math.log(2.0)
_E_LN2 = math.e * _LN2


@dataclass(frozen=True)
class Encoded:
    """Aligned symbolic series, checked and reduced to their level counts.

    ``levels[s]`` are the sorted symbols of series ``names[s]`` and
    ``counts[s][a]`` its instants at ``levels[s][a]``.
    """

    names: list[str]
    n: int
    series: list[Sequence[str]]
    levels: list[list[str]]
    counts: list[list[int]]

    @property
    def k(self) -> int:
        """The largest alphabet, the padded width of the joint counts."""
        return max(map(len, self.levels), default=1)


def encode(symbolic: Mapping[str, Sequence[str]]) -> Encoded:
    """Encode every series of ``symbolic``, sorted by name.

    The series must be complete: equal lengths, at least one instant and
    no missing instant (``None``); otherwise a ``ValueError`` names the
    offending series.
    """
    names = sorted(symbolic)
    lengths = {len(symbolic[s]) for s in names}
    if len(lengths) > 1:
        raise ValueError(
            "series differ in length: "
            + ", ".join(f"{s}={len(symbolic[s])}" for s in names)
        )
    n = lengths.pop() if lengths else 0
    if names and n == 0:
        raise ValueError("series with no instants: " + ", ".join(names))
    series, levels, counts = [], [], []
    for s in names:
        seq = symbolic[s]
        present = set(seq)
        if None in present:
            raise ValueError(f"series {s} has missing instants (None)")
        series.append(seq)
        levels.append(sorted(present))
        counts.append(list(map(seq.count, levels[-1][:-1])))
        counts[-1].append(n - sum(counts[-1]))
    return Encoded(names=names, n=n, series=series, levels=levels, counts=counts)


def level_bits(seq: Sequence[str], levels: list[str]) -> list[int]:
    """One Python-int bitset per level of ``seq``: bit ``t`` is set where
    ``seq[t]`` is that level (E-STPM keeps granule sets the same way)."""
    out, rest = [], (1 << len(seq)) - 1
    # one pass per level but the last, which takes the instants left
    for level in levels[:-1]:
        digit = dict.fromkeys(levels, "0")
        digit[level] = "1"
        bits = int("".join(map(digit.__getitem__, reversed(seq))), 2)
        out.append(bits)
        rest ^= bits
    return out + [rest]


def joint_counts(enc: Encoded) -> np.ndarray:
    """``counts[p, a, b]``: instants where, for the ``p``-th pair ``(i, j)``
    of ``combinations(range(len(enc.names)), 2)``, series ``i`` is at its
    level ``a`` and series ``j`` at its level ``b``.

    Each series' levels are its own, sorted and zero-padded to ``enc.k``.
    Every cell is a popcount of two level bitsets; the pairs of series
    ``i`` with every later ``j`` are counted together, one cell at a time.
    """
    n_series, k = len(enc.names), enc.k
    bits = list(map(level_bits, enc.series, enc.levels))
    # every series' bitset at level a, 0 (no instant) where it has fewer levels
    bits_at = [[b[a] if a < len(b) else 0 for b in bits] for a in range(k)]
    flat: list[int] = []
    for i in range(n_series - 1):
        cells = (
            [(xs[i] & y).bit_count() for y in ys[i + 1 :]] for xs in bits_at for ys in bits_at
        )
        flat.extend(chain.from_iterable(zip(*cells)))
    return np.array(flat, dtype=np.intp).reshape(-1, k, k)


def nmi_from_joint_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(NMI(X;Y), NMI(Y;X))`` from joint counts ``counts[..., |X|, |Y|]``.

    Eqs. 2-5 vectorised over the leading axes: MI is floored at 0, NMI
    capped at 1, and a constant X (H(X) = 0) gets 0.0, as nothing can
    reduce zero uncertainty. All-zero rows or columns (padding for
    symbols a series lacks) add nothing.
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


def directional_nmis(enc: Encoded) -> tuple[np.ndarray, np.ndarray]:
    """``(NMI(X;Y), NMI(Y;X))`` for every pair ``(X, Y)`` of
    ``combinations(enc.names, 2)``, in that order."""
    return nmi_from_joint_counts(joint_counts(enc))


def min_nmis(enc: Encoded) -> list[float]:
    """min(NMI(X;Y), NMI(Y;X)) for every pair of ``combinations(enc.names, 2)``."""
    return np.minimum(*directional_nmis(enc)).tolist()


def pair_min_nmis(symbolic: Mapping[str, Sequence[str]]) -> dict[frozenset, float]:
    """min(NMI(X;Y), NMI(Y;X)) for every unordered pair of aligned series.

    The series must be complete, as :func:`encode` checks.
    """
    enc = encode(symbolic)
    return dict(zip(map(frozenset, combinations(enc.names, 2)), min_nmis(enc)))


def mu_matrix(enc: Encoded, *, min_support: int, n_seq: int) -> np.ndarray:
    """Corollary 1.1 for every series pair: ``mu[x, y]``, symmetric.

    For the direction X -> Y, ``lambda1 = min_x p(x)`` and ``lambda2 = p(y)``
    for each symbol y of Y, with ``rho = min_support / (lambda2 * n_seq)``
    (``min_support`` = minSeason·minDensity, ``STPMParams.min_support``):

    * case 1, rho <= 1/e: ``mu = 1 - lambda2 / (e·ln2·log2(1/lambda1))``;
    * case 2: ``mu = 1 - rho·lambda2·ln(rho) / (ln2·log2(lambda1))``
      (appendix Eqs. 36/37; may exceed 1 when the thresholds are
      unreachable, and then no NMI qualifies);
    * a constant X (``lambda1 = 1``) carries no information, so no NMI
      evidence can certify the bound: mu is 1, reached only at perfect
      NMI (Def. 5.4 requires 0 < mu).

    Per Section V-B, a series pair's mu is the minimum over its event
    pairs, in both directions, as NMI is asymmetric. The ``math`` calls
    run once per series and per symbol; numpy only divides, subtracts
    and takes minima, in the scalar formula's order, so every value is
    the one the formula gives pair by pair.
    """
    n_series, k, n = len(enc.names), enc.k, enc.n
    den1, den2, num, case1 = [], [], [], []
    for counts in enc.counts:
        lambda1 = min(counts) / n
        if lambda1 >= 1.0:
            # 1 - num / inf is exactly 1.0
            den1.append(math.inf)
            den2.append(math.inf)
        else:
            den1.append(_E_LN2 * math.log2(1.0 / lambda1))
            den2.append(_LN2 * math.log2(lambda1))
        for c in counts:
            lambda2 = c / n
            rho = min_support / (lambda2 * n_seq)
            case1.append(rho <= _E_INV)
            # W(a) = ln rho inverts to a = rho ln rho (DESIGN.md, "Corollary 1.1 as written")
            num.append(lambda2 if rho <= _E_INV else rho * lambda2 * math.log(rho))
        # pad with copies of the last symbol, which leave the minimum as it is
        case1 += case1[-1:] * (k - len(counts))
        num += num[-1:] * (k - len(counts))
    # mu[x, y, symbol of y], then the minimum over the symbols of y
    den1_x = np.array(den1).reshape(-1, 1, 1)
    den2_x = np.array(den2).reshape(-1, 1, 1)
    num_y = np.array(num).reshape(n_series, k)
    case1_y = np.array(case1, dtype=bool).reshape(n_series, k)
    mu = (1.0 - num_y / np.where(case1_y, den1_x, den2_x)).min(axis=-1)
    return np.minimum(mu, mu.T)
