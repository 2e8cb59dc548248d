"""PS-tree: prefix tree over granule transactions with per-node tid bitsets.

The tree is FP-tree shaped: transactions are inserted root-down with
items in a global frequency order, and a header table links all nodes of
an item. Where an FP-tree node keeps a count, a PS-tree node keeps the
*tids* of the transactions routed through it, as a bitset (bit ``h`` set
iff transaction ``h`` passes the node), which makes the adapted seasonal
check exact. The PS-growth paper also keeps a periodic summary per node
for its local-periodicity gate; that gate is off here (DESIGN.md,
"Baseline gate"), so no summary is kept.
"""
from __future__ import annotations

from typing import Iterable


class PSNode:
    """One prefix-tree node: an item with the tids routed through it."""

    __slots__ = ("item", "parent", "children", "tids", "link")

    def __init__(self, item: str | None, parent: "PSNode | None"):
        self.item = item
        self.parent = parent
        self.children: dict[str, PSNode] = {}
        self.tids = 0
        self.link: PSNode | None = None  # next node of same item (header chain)


class PSTree:
    """The tree plus its header table. Items are inserted in ``order``."""

    def __init__(self):
        self.root = PSNode(None, None)
        self.header: dict[str, PSNode] = {}
        self._header_tail: dict[str, PSNode] = {}

    def insert(self, tids: int, items: list[str]) -> None:
        """Route the tid bitset ``tids`` down ``items``, already in tree order."""
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = PSNode(item, node)
                node.children[item] = child
                if item in self._header_tail:
                    self._header_tail[item].link = child
                else:
                    self.header[item] = child
                self._header_tail[item] = child
            child.tids |= tids
            node = child

    def item_nodes(self, item: str) -> list[PSNode]:
        out, node = [], self.header.get(item)
        while node is not None:
            out.append(node)
            node = node.link
        return out

    def prefix_paths(self, item: str) -> list[tuple[list[str], int]]:
        """Conditional pattern base of ``item``: (path-to-root items, tids)."""
        out = []
        for node in self.item_nodes(item):
            path: list[str] = []
            p = node.parent
            while p is not None and p.item is not None:
                path.append(p.item)
                p = p.parent
            path.reverse()
            out.append((path, node.tids))
        return out

    def n_nodes(self) -> int:
        count, stack = 0, [self.root]
        while stack:
            n = stack.pop()
            count += 1
            stack.extend(n.children.values())
        return count - 1  # exclude root


def build_tree(
    paths: Iterable[tuple[Iterable[str], int]],
    item_order: dict[str, int],
) -> PSTree:
    """Build a PS-tree from ``(items, tid bitset)`` paths, in the order
    given, keeping only ordered items."""
    tree = PSTree()
    for items, tids in paths:
        kept = sorted({i for i in items if i in item_order}, key=item_order.__getitem__)
        if kept:
            tree.insert(tids, kept)
    return tree
