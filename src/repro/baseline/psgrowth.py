"""PS-growth: recursive mining of recurring itemsets from a PS-tree.

Classic FP-growth control flow — for each item (least frequent first)
OR its nodes' tid bitsets into the extended suffix itemset's exact tid
set, emit it, and recurse on the conditional tree built from the item's
prefix paths — with the recurring gate of the seasonal adaptation: an
itemset survives iff ``|tids| / minDensity >= minSeason`` (the maxSeason
bound). The PS-growth paper's own local-periodicity gate (dense summary
blocks) is *not* anti-monotonic for seasonal temporal patterns — the
very problem the STPM paper formalizes — so using it here would lose
patterns; the support bound is the tightest safe gate (DESIGN.md,
"Baseline gate").
"""
from __future__ import annotations

from typing import Iterable

from .pstree import PSTree, build_tree


def _conditional_tree(paths: list[tuple[Iterable[str], int]], min_count: int) -> PSTree:
    """The tree of ``paths`` over their items that pass the gate, most
    frequent first. The paths' tid sets are disjoint (each transaction
    takes one path), so an item's count is the sum of their popcounts."""
    counts: dict[str, int] = {}
    for items, tids in paths:
        n = tids.bit_count()
        for it in items:
            counts[it] = counts.get(it, 0) + n
    ranked = sorted(
        (it for it, n in counts.items() if n >= min_count), key=lambda it: (-counts[it], it)
    )
    return build_tree(paths, {it: i for i, it in enumerate(ranked)})


def _recurse(
    tree: PSTree,
    suffix: tuple[str, ...],
    out: dict[tuple[str, ...], int],
    *,
    min_count: int,
    max_k: int,
) -> None:
    # least-frequent-first: reversed header insertion order approximates
    # the classic bottom-up traversal (header preserves global order).
    # A conditional tree holds only its suffix's tids, so its tid sets
    # are already those of the extended itemset, and every item in it
    # passed the gate when the tree was built.
    for item in reversed(list(tree.header)):
        tids = 0
        for node in tree.item_nodes(item):
            tids |= node.tids
        itemset = tuple(sorted(suffix + (item,)))
        out[itemset] = tids
        if len(itemset) < max_k:
            cond = _conditional_tree(tree.prefix_paths(item), min_count)
            _recurse(cond, itemset, out, min_count=min_count, max_k=max_k)


def ps_growth(
    transactions: dict[int, list[str]],
    *,
    min_season: int,
    min_density: int,
    max_period: int | None = None,
    max_k: int,
) -> dict[tuple[str, ...], int]:
    """Mine recurring itemsets (size <= max_k) with their exact tid sets.

    ``transactions`` maps granule position -> event keys present there.
    Returns itemset (sorted tuple) -> tid bitset (bit ``h`` set iff the
    itemset occurs at granule ``h``) for every itemset passing the
    maxSeason recurring gate. ``max_period`` is accepted and unused: it
    would only feed PS-growth's own periodicity gate, which is
    deliberately off (module docstring; DESIGN.md, "Baseline gate").
    """
    min_count = min_season * min_density
    paths = [(set(items), 1 << tid) for tid, items in sorted(transactions.items())]
    out: dict[tuple[str, ...], int] = {}
    _recurse(_conditional_tree(paths, min_count), (), out, min_count=min_count, max_k=max_k)
    return out
