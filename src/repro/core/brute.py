"""Brute-force pattern enumeration: the correctness oracle for E-STPM and
APS-growth's phase 2.

:func:`mine_patterns` takes event sets with the granules to scan for
each, and uses *no* data structures and *no* pruning: at each granule it
relates the set's representative instances pairwise and, if every pair
has a relation, records a pattern occurrence. Frequent seasonal patterns
then come from the plain Def. 3.17 check.

:func:`mine_brute` feeds it every event subset up to ``max_k`` with the
granules shared by its members. That is exponential on purpose, only
ever run on tiny inputs in tests, where its output must equal
:func:`repro.core.estpm.mine` under every pruning configuration (that
equality is what makes the pruning *safe*, per Lemmas 1-4). APS-growth
(:mod:`repro.baseline.aps`) feeds it PS-growth's recurring itemsets with
their tid sets instead.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .events import EventInstance, pair_relation
from .hlh import Pattern
from .seasonal import STPMParams, SeasonalVerdict, evaluate_seasonality
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
    itemsets: Iterable[tuple[tuple[str, ...], Iterable[int]]],
    params: STPMParams,
) -> tuple[dict[str, SeasonalVerdict], dict[Pattern, SeasonalVerdict]]:
    """Return (frequent seasonal singles, frequent seasonal k>=2 patterns).

    ``itemsets`` yields ``(sorted event set, granules)`` pairs; every
    event of a set must have a representative at each of its granules.
    A one-event set is checked as a single on its granules.
    """
    singles: dict[str, SeasonalVerdict] = {}
    patterns: dict[Pattern, SeasonalVerdict] = {}
    for itemset, granules in itemsets:
        if len(itemset) == 1:
            verdict = evaluate_seasonality(granules, params)
            if verdict.frequent:
                singles[itemset[0]] = verdict
            continue
        per_pattern: dict[Pattern, list[int]] = {}
        for h in granules:
            triples = []
            for ea, eb in combinations(itemset, 2):
                r = pair_relation(
                    rep[ea][h], rep[eb][h], epsilon=params.epsilon, d_o=params.d_o
                )
                if r is None:
                    break
                rel, first, second = r
                triples.append((rel, first.event, second.event))
            else:
                per_pattern.setdefault(tuple(sorted(triples)), []).append(h)
        for pattern, sup in per_pattern.items():
            verdict = evaluate_seasonality(sup, params)
            if verdict.frequent:
                patterns[pattern] = verdict
    return singles, patterns


def mine_brute(dseq: DSeq, params: STPMParams) -> tuple[dict[str, SeasonalVerdict], dict[Pattern, SeasonalVerdict]]:
    """Return (frequent seasonal singles, frequent seasonal k>=2 patterns)."""
    rep = representatives(dseq)
    events = sorted(rep)
    itemsets = (
        (group, set(rep[group[0]]).intersection(*(rep[e] for e in group[1:])))
        for k in range(1, params.max_k + 1)
        for group in combinations(events, k)
    )
    return mine_patterns(rep, itemsets, params)
