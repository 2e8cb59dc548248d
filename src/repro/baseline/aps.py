"""APS-growth: the adapted PS-growth baseline (Section VI-A).

Phase 1 runs PS-growth over the granule-transaction view of D_SEQ to
extract recurring event sets. Phase 2 mines temporal patterns from each
recurring set by re-scanning its granules and computing *all* pairwise
relations from scratch (no HLH reuse, no transitivity pruning, no
incremental extension), then applies the full seasonal check of
Def. 3.17. The output is exact — identical to E-STPM (tested) — but the
per-itemset recomputation and the PS-tree machinery make it slower and
more memory-hungry, which is precisely the paper's experimental
comparison axis (Figs. 7-10).
"""
from __future__ import annotations

from itertools import combinations

from ..core.estpm import MiningResult
from ..core.events import pair_relation
from ..core.hlh import Pattern
from ..core.seasonal import STPMParams, evaluate_seasonality
from ..core.sequences import DSeq
from .psgrowth import ps_growth


def mine_aps(dseq: DSeq, params: STPMParams) -> MiningResult:
    """Run the APS-growth baseline; returns an E-STPM-shaped result."""
    res = MiningResult()

    # representative instance per (event, granule), as in E-STPM
    rep: dict[str, dict[int, object]] = {}
    transactions: dict[int, list[str]] = {}
    for h, insts in dseq.rows.items():
        row: list[str] = []
        for inst in insts:
            rep.setdefault(inst.event, {}).setdefault(h, inst)
            row.append(inst.event)
        transactions[h] = row

    itemsets = ps_growth(
        transactions,
        min_season=params.min_season,
        min_density=params.min_density,
        max_k=params.max_k,
    )
    res.stats["n_recurring_itemsets"] = len(itemsets)

    # phase 2: temporal pattern mining per recurring event set
    for itemset, tids in itemsets.items():
        if len(itemset) == 1:
            verdict = evaluate_seasonality(tids, params)
            if verdict.frequent:
                res.singles[itemset[0]] = verdict
            continue
        per_pattern: dict[Pattern, set[int]] = {}
        for h in tids:
            triples = []
            for ea, eb in combinations(itemset, 2):
                r = pair_relation(
                    rep[ea][h], rep[eb][h], epsilon=params.epsilon, d_o=params.d_o
                )
                if r is None:
                    triples = None
                    break
                rel, first, second = r
                triples.append((rel, first.event, second.event))
            if triples is None:
                continue
            per_pattern.setdefault(tuple(sorted(triples)), set()).add(h)
        for pattern, sup in per_pattern.items():
            verdict = evaluate_seasonality(sup, params)
            if verdict.frequent:
                res.patterns[pattern] = verdict

    res.stats["n_frequent_patterns"] = len(res.patterns)
    res.stats["n_frequent_singles"] = len(res.singles)
    return res
