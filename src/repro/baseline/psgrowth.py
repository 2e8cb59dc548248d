"""PS-growth: recursive mining of recurring itemsets from a PS-tree.

Classic FP-growth control flow — for each item (least frequent first)
take its conditional pattern base, emit the extended suffix itemset with
its exact tid set, and recurse on the conditional tree — with the
recurring gate of the seasonal adaptation: an itemset survives iff
``|tids| / minDensity >= minSeason`` (the maxSeason bound). The
PS-growth paper's own local-periodicity gate (dense summary blocks) is
*not* anti-monotonic for seasonal temporal patterns — the very problem
the STPM paper formalizes — so using it here would lose patterns; the
support bound is the tightest safe gate (DESIGN.md, "Baseline gate").
"""
from __future__ import annotations

from .pstree import build_tree


def _recurse(
    tree,
    suffix: tuple[str, ...],
    out: dict[tuple[str, ...], tuple[int, ...]],
    *,
    min_count: float,
    max_k: int,
) -> None:
    # least-frequent-first: reversed header insertion order approximates
    # the classic bottom-up traversal (header preserves global order).
    # A conditional tree is built from its suffix's own tids only, so its
    # tid sets are already those of the extended itemset.
    for item in reversed(list(tree.header)):
        tids: set[int] = set()
        for node in tree.item_nodes(item):
            tids.update(node.tids)
        if len(tids) < min_count:
            continue
        itemset = tuple(sorted(suffix + (item,)))
        out[itemset] = tuple(sorted(tids))
        if len(itemset) >= max_k:
            continue
        # conditional tree on this item
        base = tree.prefix_paths(item)
        cond_counts: dict[str, set[int]] = {}
        for path, path_tids in base:
            for it in path:
                cond_counts.setdefault(it, set()).update(path_tids)
        cond_items = {
            it for it, t in cond_counts.items() if len(t) >= min_count
        }
        if not cond_items:
            continue
        order = {it: i for i, it in enumerate(sorted(cond_items, key=lambda x: (-len(cond_counts[x]), x)))}
        cond_txns: dict[int, list[str]] = {}
        for path, path_tids in base:
            items = [it for it in path if it in cond_items]
            if not items:
                continue
            for tid in path_tids:
                cond_txns.setdefault(tid, []).extend(items)
        _recurse(build_tree(cond_txns, order), itemset, out, min_count=min_count, max_k=max_k)


def ps_growth(
    transactions: dict[int, list[str]],
    *,
    min_season: int,
    min_density: int,
    max_period: int | None = None,
    max_k: int,
) -> dict[tuple[str, ...], tuple[int, ...]]:
    """Mine recurring itemsets (size <= max_k) with their exact tid sets.

    ``transactions`` maps granule position -> event keys present there.
    Returns itemset (sorted tuple) -> sorted tid tuple for every itemset
    passing the maxSeason recurring gate. ``max_period`` is accepted and
    unused: it would only feed PS-growth's own periodicity gate, which is
    deliberately off (module docstring; DESIGN.md, "Baseline gate").
    """
    min_count = min_season * min_density
    supports: dict[str, set[int]] = {}
    for tid, items in transactions.items():
        for it in set(items):
            supports.setdefault(it, set()).add(tid)
    frequent = {it for it, t in supports.items() if len(t) >= min_count}
    order = {
        it: i
        for i, it in enumerate(sorted(frequent, key=lambda x: (-len(supports[x]), x)))
    }
    out: dict[tuple[str, ...], tuple[int, ...]] = {}
    _recurse(build_tree(transactions, order), (), out, min_count=min_count, max_k=max_k)
    return out
