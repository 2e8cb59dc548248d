"""Hierarchical lookup hash structures HLH_1 and HLH_k (Figs. 4-5).

Every granule set here is a *bitset*: a Python int whose bit ``h`` is
set iff coarse granule ``h`` belongs to the set. Intersection is ``&``
and |set| is ``int.bit_count()``, C loops over the int's digits in place
of Python loops over granules (the vertical bit-vector tid-lists of
Zaki's Eclat and of MAFIA).

``HLH1``, a dict from event key to :class:`EventEntry`, plays the role
of the paper's EH + GH pair: per candidate single event it keeps the
support bitset (the EH value / GH key) and, instead of one
representative instance per granule, the representative's *shape* —
its ``(start, end)`` offset inside its granule — mapped to the bitset
of granules where it has that shape. Table III compares only
differences of endpoints, so two events' relation in a granule follows
from their two shapes alone (DESIGN.md, "Bitset HLH"). Both come
straight from D_SEQ's granule signatures
(:mod:`repro.core.sequences`): an event's first run in a signature is
its representative in every granule holding the signature.

``HLHk`` plays the role of EH_k + PH_k + GH_k: per candidate k-event
group it keeps the group support bitset (EH_k) and per candidate pattern
of that group the pattern's support bitset (PH_k). At most one pattern
of a group occurs in a granule, so a group's pattern bitsets are
disjoint, and together they tie each granule to the pattern formed
there (GH_k's role).

A *pattern* is a tuple of triples ``(rel, first_event, second_event)``
covering every pair of the group, sorted; :func:`render_pattern` writes
it out.
"""
from __future__ import annotations

from dataclasses import dataclass, field

Pattern = tuple[tuple[str, str, str], ...]  # ((rel, ev_i, ev_j), ...)


def render_pattern(pattern: Pattern) -> str:
    """The pattern as text, its triples in order: ``C:1 >= D:1 ; C:1 -> E:1``."""
    return " ; ".join(f"{first} {rel} {second}" for rel, first, second in pattern)


@dataclass
class EventEntry:
    """HLH_1 row: one candidate seasonal single event."""

    event: str
    #: ``(series, symbol)``: orders two events whose shapes tie, as
    #: ``canonical_sort_key`` does
    name: tuple[str, str]
    #: bitset of the granules holding an instance of the event
    sup: int = 0
    #: representative (canonically first) instance's ``(start, end)``
    #: offset inside its granule -> bitset of granules with that shape
    shapes: dict[tuple[int, int], int] = field(default_factory=dict)


#: HLH_1: event key -> its row
HLH1 = dict[str, EventEntry]


@dataclass
class GroupEntry:
    """HLH_k row: one candidate seasonal k-event group and its patterns."""

    events: tuple[str, ...]  # sorted event keys
    #: bitset: granules holding every event of the group
    sup: int = 0
    #: candidate pattern -> support bitset (PH_k); pairwise disjoint
    patterns: dict[Pattern, int] = field(default_factory=dict)


@dataclass
class HLHk:
    """Candidate k-event groups; only groups with a candidate pattern are held."""

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
