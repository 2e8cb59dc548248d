"""Baseline substrate: PS-growth [38] adapted to seasonal temporal patterns.

The paper has no prior seasonal *temporal* pattern miner to compare
against, so it adapts the state-of-the-art periodic-frequent itemset
miner PS-growth (Kiran et al., "Finding periodic-frequent patterns in
temporal databases using periodic summaries") in two phases:

1. run PS-growth over the granule-transaction view of D_SEQ to find
   recurring event sets, and
2. mine temporal patterns from the recurring sets, then apply the full
   seasonal check; this phase is brute force's pattern enumerator,
   :func:`repro.core.brute.mine_patterns`, fed the recurring sets.

``pstree``   — the FP-tree-style prefix tree with per-node tid bitsets
               (the PS-tree substrate; no periodic summaries, because
               their gate is off: DESIGN.md, "Baseline gate");
``psgrowth`` — recursive conditional-tree mining of recurring itemsets,
               each returned with its tid bitset;
``aps``      — the 2-phase APS-growth adaptation used as the paper's
               experimental baseline: PS-growth, then
               ``core.brute.mine_patterns`` (exact, but slower / heavier
               than E-STPM by construction: no HLH reuse, no transitivity
               pruning, relations recomputed from scratch per itemset).
"""
