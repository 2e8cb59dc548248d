"""A-STPM: approximate STPM via mutual-information pruning (Algorithm 2).

Given the symbolic database (fine-granularity symbol arrays per series),
A-STPM computes the NMI of every series pair, derives the mu threshold
from Corollary 1.1 (minimum over the pair's event pairs), and keeps only
*correlated* pairs — ``min(NMI(X;Y), NMI(Y;X)) >= mu`` (Def. 5.4).
Single events and 2-event patterns are then mined only from correlated
series / pairs; k >= 3 mining is the exact algorithm on top of the
restricted HLH_2 (so the approximation cascades, as in the paper).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Mapping, Sequence

from .estpm import MiningResult, build_event_supports, mine
from .mi import encode, min_nmis, mu_matrix
from .seasonal import STPMParams
from .sequences import DSeq


@dataclass
class CorrelationReport:
    """Outcome of the MI screening step (drives Table XI of the paper)."""

    n_series: int
    kept_series: set[str] = field(default_factory=set)
    pruned_series: set[str] = field(default_factory=set)
    correlated_pairs: set[frozenset[str]] = field(default_factory=set)
    #: per-pair diagnostics: (min NMI, mu threshold)
    pair_scores: dict[frozenset[str], tuple[float, float]] = field(default_factory=dict)

    @property
    def pct_series_pruned(self) -> float:
        return 100.0 * len(self.pruned_series) / max(1, self.n_series)


def screen_correlated(
    symbolic: Mapping[str, Sequence[str]],
    params: STPMParams,
    n_seq: int,
    *,
    pair_nmis: Mapping[frozenset, float] | None = None,
) -> CorrelationReport:
    """MI screening (Alg. 2 lines 1-5) over the symbolic database.

    Each series is encoded once (:func:`repro.core.mi.encode`); the NMIs
    and the mu thresholds of all pairs then come from a fixed number of
    numpy calls, and only popcounts and the report run pair by pair.
    ``pair_nmis`` (from :func:`repro.core.mi.pair_min_nmis`) lets callers
    reuse the NMI matrix across threshold configurations — the paper
    notes MI is computed once per dataset while mu varies per setting.
    """
    enc = encode(symbolic)
    names = enc.names
    keys = list(map(frozenset, combinations(names, 2)))
    if pair_nmis is None:
        nmis = min_nmis(enc)
    else:
        nmis = list(map(pair_nmis.__getitem__, keys))
    mu = mu_matrix(enc, min_support=params.min_support, n_seq=n_seq).tolist()
    mus = [v for i, row in enumerate(mu) for v in row[i + 1 :]]
    rep = CorrelationReport(n_series=len(names))
    rep.pair_scores = dict(zip(keys, zip(nmis, mus)))
    rep.correlated_pairs = {key for key, v, m in zip(keys, nmis, mus) if v >= m}
    rep.kept_series = set(chain.from_iterable(rep.correlated_pairs))
    rep.pruned_series = set(names) - rep.kept_series
    return rep


@dataclass
class ApproxResult:
    """A-STPM output: the mining result plus the screening report."""

    mining: MiningResult
    screening: CorrelationReport


def mine_approx(
    symbolic: Mapping[str, Sequence[str]],
    dseq: DSeq,
    params: STPMParams,
    *,
    pair_nmis: Mapping[frozenset, float] | None = None,
) -> ApproxResult:
    """Run A-STPM: MI screening, then restricted E-STPM (Alg. 2 lines 6-10)."""
    rep = screen_correlated(symbolic, params, dseq.n_granules, pair_nmis=pair_nmis)
    mining = mine(
        dseq, params, allowed_pairs=rep.correlated_pairs, restrict_series=rep.kept_series
    )
    return ApproxResult(mining=mining, screening=rep)


def pct_events_pruned(dseq: DSeq, report: CorrelationReport, params: STPMParams) -> float:
    """% of candidate events whose series the MI screen pruned (Table XI).

    The denominator uses a lenient seasonal gate (minSeason floored at 4):
    it measures how much of the *potential* single-event search space
    the MI screen removes, independent of how strict this particular
    configuration's own maxSeason gate already is (the paper's Table XI
    does not pin down the denominator; DESIGN.md documents this choice).
    """
    floor = params.with_(min_season=min(params.min_season, 4)).min_support
    candidates = [
        e for e in build_event_supports(dseq).values() if e.sup.bit_count() >= floor
    ]
    pruned = sum(e.name[0] in report.pruned_series for e in candidates)
    return 100.0 * pruned / max(1, len(candidates))


def accuracy(approx: MiningResult, exact: MiningResult) -> float:
    """A-STPM accuracy: % of exact frequent seasonal patterns recovered.

    Defined over k >= 2 patterns (the paper compares "patterns extracted
    by A-STPM and E-STPM"); 100.0 when the exact set is empty, since
    nothing was missed.
    """
    exact_set = set(exact.patterns)
    if not exact_set:
        return 100.0
    return 100.0 * len(exact_set & set(approx.patterns)) / len(exact_set)
