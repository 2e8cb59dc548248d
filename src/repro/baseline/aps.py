"""APS-growth: the adapted PS-growth baseline (Section VI-A).

Phase 1 runs PS-growth over the granule-transaction view of D_SEQ to
extract recurring event sets. Phase 2 mines temporal patterns from each
recurring set with the brute-force enumerator
(:func:`repro.core.brute.mine_patterns`): it re-scans the set's granules
and computes *all* pairwise relations from scratch (no HLH reuse, no
transitivity pruning, no incremental extension), then applies the full
seasonal check of Def. 3.17. The output is exact — identical to E-STPM
and to brute force (tested) — but the per-itemset recomputation and the
PS-tree machinery make it slower and more memory-hungry, which is
precisely the paper's experimental comparison axis (Figs. 7-10).
"""
from __future__ import annotations

from ..core.brute import mine_patterns, representatives
from ..core.estpm import MiningResult
from ..core.seasonal import STPMParams
from ..core.sequences import DSeq
from .psgrowth import ps_growth


def mine_aps(dseq: DSeq, params: STPMParams) -> MiningResult:
    """Run the APS-growth baseline; returns an E-STPM-shaped result."""
    res = MiningResult()
    transactions = {h: [inst.event for inst in insts] for h, insts in dseq.rows.items()}
    itemsets = ps_growth(
        transactions,
        min_season=params.min_season,
        min_density=params.min_density,
        max_k=params.max_k,
    )
    res.stats["n_recurring_itemsets"] = len(itemsets)
    res.singles, res.patterns = mine_patterns(representatives(dseq), itemsets.items(), params)
    res.stats["n_frequent_patterns"] = len(res.patterns)
    res.stats["n_frequent_singles"] = len(res.singles)
    return res
