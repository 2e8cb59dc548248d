"""Hierarchical lookup hash structures HLH_1 and HLH_k (Figs. 4-5).

``HLH1`` plays the role of the paper's EH + GH pair: per candidate
single event it keeps the support set (the EH value / GH key) and the
representative instance per granule (the GH value).

``HLHk`` plays the role of EH_k + PH_k + GH_k: per candidate k-event
group it keeps the group support set (EH_k), and per candidate pattern
of that group the pattern's support set (PH_k) plus the granule ->
pattern index (GH_k's role of tying granules to the instances/relations
that formed the pattern; instances themselves are recoverable from
HLH1's per-granule representatives, so we store positions only).

A *pattern* is a tuple of rendered triples ``(rel, first_event,
second_event)`` covering every pair of the group, ordered by the
canonical instance order in the granule where it occurs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .events import EventInstance

Pattern = tuple[tuple[str, str, str], ...]  # ((rel, ev_i, ev_j), ...)


@dataclass
class EventEntry:
    """HLH_1 row: one candidate seasonal single event."""

    event: str
    sup: set[int] = field(default_factory=set)
    #: representative (canonically first) instance per granule, as
    #: ``(position in the D_SEQ row, start, end)``
    span: dict[int, tuple[int, int, int]] = field(default_factory=dict)


@dataclass
class HLH1:
    events: dict[str, EventEntry] = field(default_factory=dict)

    def add(self, h: int, pos: int, inst: EventInstance) -> None:
        """Record ``inst``, found at ``dseq.rows[h][pos]``."""
        e = self.events.setdefault(inst.event, EventEntry(inst.event))
        e.sup.add(h)
        # rows are in canonical order, so the first add per (event,
        # granule) is the representative, and row positions order any
        # two representatives exactly as ``canonical_sort_key`` does
        if h not in e.span:
            e.span[h] = (pos, inst.start, inst.end)

    def __contains__(self, event: str) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class GroupEntry:
    """HLH_k row: one candidate seasonal k-event group and its patterns."""

    events: tuple[str, ...]  # sorted event keys
    sup: set[int] = field(default_factory=set)
    #: candidate pattern -> support set (PH_k)
    patterns: dict[Pattern, set[int]] = field(default_factory=dict)
    #: granule -> pattern formed there (GH_k); at most one per granule
    #: because relations are computed from representative instances
    pattern_at: dict[int, Pattern] = field(default_factory=dict)


@dataclass
class HLHk:
    """Candidate k-event groups; only groups with a candidate pattern are held."""

    k: int
    groups: dict[tuple[str, ...], GroupEntry] = field(default_factory=dict)

    def events_in_patterns(self) -> set[str]:
        """Single events appearing in at least one candidate pattern,
        that is, in at least one group.

        This is the transitivity filter's source set (Lemma 4 /
        ``Transitivity_Filtering`` in Alg. 1): an event absent from every
        candidate (k-1)-event pattern cannot extend any of them.
        """
        return {ev for events in self.groups for ev in events}

    def __len__(self) -> int:
        return len(self.groups)
