"""Brute-force pattern enumeration: the correctness oracle for E-STPM and
APS-growth's phase 2.

:func:`mine_patterns` takes event sets with the granules to scan for
each, and uses *no* data structures and *no* pruning: at each granule it
relates the set's representative instances pairwise, in canonical order
(``(start, -end, series, symbol)``), and, if every pair has a relation,
records a pattern occurrence. Each pattern's granules then get one
Def. 3.17 check, and a frequent one keeps its verdict. Every granule
set, the caller's and each pattern's support, is a bitset (bit ``h`` set
iff granule ``h`` is in).

:func:`mine_brute` feeds it every event subset up to ``max_k`` with the
granules shared by its members, the AND of their bitsets. That is
exponential on purpose, only ever run on tiny inputs in tests, where its
output must equal :func:`repro.core.estpm.mine` under every pruning
configuration (that equality is what makes the pruning *safe*, per
Lemmas 1-4). APS-growth
(:mod:`repro.baseline.aps`) feeds it PS-growth's recurring itemsets with
their tid bitsets instead.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_
from typing import Iterable

from .events import EventInstance, relation
from .hlh import Pattern
from .seasonal import STPMParams, SeasonalVerdict, bit_positions, evaluate_seasonality
from .sequences import DSeq


def representatives(dseq: DSeq) -> dict[str, dict[int, EventInstance]]:
    """Event -> granule -> the canonically first instance of the event there."""
    rep: dict[str, dict[int, EventInstance]] = {}
    for h, insts in dseq.rows.items():
        for inst in insts:
            rep.setdefault(inst.event, {}).setdefault(h, inst)
    return rep


def mine_patterns(
    rep: dict[str, dict[int, EventInstance]],
    itemsets: Iterable[tuple[tuple[str, ...], int]],
    params: STPMParams,
) -> tuple[dict[str, SeasonalVerdict], dict[Pattern, SeasonalVerdict]]:
    """Return (frequent seasonal singles, frequent seasonal k>=2 patterns).

    ``itemsets`` yields ``(sorted event set, granule bitset)`` pairs;
    every event of a set must have a representative at each of its
    granules. A one-event set is checked as a single on its granules.
    """
    eps, d_o = params.epsilon, params.d_o
    singles: dict[str, SeasonalVerdict] = {}
    patterns: dict[Pattern, SeasonalVerdict] = {}
    for itemset, granules in itemsets:
        if len(itemset) == 1:
            if (v := evaluate_seasonality(granules, params)).frequent:
                singles[itemset[0]] = v
            continue
        # per pair: both events' representatives and keys, and whether the
        # first event comes first on equal spans, by (series, symbol) as in
        # canonical_sort_key (not by key string: "x40:1" < "x4:1")
        firsts = [next(iter(rep[e].values())) for e in itemset]
        pairs = [
            (rep[ev_i], rep[ev_j], ev_i, ev_j, (a.series, a.symbol) < (b.series, b.symbol))
            for (ev_i, a), (ev_j, b) in combinations(zip(itemset, firsts), 2)
        ]
        # granules keyed by the triples in pair order, which name one
        # pattern per itemset; sorted into the pattern only if frequent
        per_pattern: dict[tuple, list[int]] = {}
        for h in bit_positions(granules):
            triples = []
            for rep_i, rep_j, ev_i, ev_j, i_wins_tie in pairs:
                a, b = rep_i[h], rep_j[h]
                sa, ea, sb, eb = a.start, a.end, b.start, b.end
                if sa < sb or sa == sb and (ea > eb or ea == eb and i_wins_tie):
                    rel = relation(sa, ea, sb, eb, eps, d_o)
                    triple = (rel, ev_i, ev_j)
                else:
                    rel = relation(sb, eb, sa, ea, eps, d_o)
                    triple = (rel, ev_j, ev_i)
                if rel is None:
                    break
                triples.append(triple)
            else:
                per_pattern.setdefault(tuple(triples), []).append(h)
        for triples, hs in per_pattern.items():
            if (v := evaluate_seasonality(sum(1 << h for h in hs), params)).frequent:
                patterns[tuple(sorted(triples))] = v
    return singles, patterns


def mine_brute(dseq: DSeq, params: STPMParams) -> tuple[dict[str, SeasonalVerdict], dict[Pattern, SeasonalVerdict]]:
    """Return (frequent seasonal singles, frequent seasonal k>=2 patterns)."""
    rep = representatives(dseq)
    sup = {e: sum(1 << h for h in granules) for e, granules in rep.items()}
    events = sorted(rep)
    itemsets = (
        (group, reduce(and_, (sup[e] for e in group)))
        for k in range(1, params.max_k + 1)
        for group in combinations(events, k)
    )
    return mine_patterns(rep, itemsets, params)
