"""Temporal events, event instances, and temporal relations (Section III-C).

A temporal event is a ``series:symbol`` pair (e.g. ``C:1``); an event
*instance* is one maximal run of that symbol inside a coarse granule,
with inclusive fine-granule endpoints ``[start, end]``.

Relations follow the paper's Table III (Allen-style Follows / Contains /
Overlaps with a tolerance buffer ``epsilon`` and minimal overlap ``d_o``).
Intervals are inclusive integer granule spans, so two instances *touch*
when ``b.start == a.end`` (they share a granule) and ``b`` strictly
follows ``a`` when ``b.start >= a.end + 1``.

Determinism notes (documented in DESIGN.md):

* Instances are put in *canonical order* ``(start, -end, series, symbol)``
  before classification, so at equal starts the longer interval is the
  potential container, and exact ties break lexicographically — this
  reproduces the paper's running example (e.g. ``C:1 contains D:1`` at
  H_2 of Table IV where both instances are ``[G_4, G_4]``).
* With ``epsilon > 0`` the three conditions are no longer mutually
  exclusive at the boundaries; we resolve Contains > Follows > Overlaps,
  matching the case analysis of the paper's Property 1 proof.
"""
from __future__ import annotations

from dataclasses import dataclass

FOLLOWS = "->"
CONTAINS = ">="
OVERLAPS = "~"
RELATIONS = (FOLLOWS, CONTAINS, OVERLAPS)


@dataclass(frozen=True, order=True)
class EventInstance:
    """One occurrence ``(series:symbol, [start, end])`` of a temporal event."""

    start: int
    end: int
    series: str
    symbol: str

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"end {self.end} < start {self.start}")

    @property
    def event(self) -> str:
        """The event key ``series:symbol`` this instance belongs to."""
        return f"{self.series}:{self.symbol}"


def canonical_sort_key(inst: EventInstance) -> tuple:
    """Sort key placing potential containers first: start asc, end desc, name."""
    return (inst.start, -inst.end, inst.series, inst.symbol)


def relation(
    sa: int, ea: int, sb: int, eb: int, epsilon: int = 0, d_o: int = 1
) -> str | None:
    """Table III relation of span ``[sa, ea]`` (canonically first) to ``[sb, eb]``.

    Conditions (inclusive intervals, buffer epsilon, minimal overlap d_o):

    * Contains: ``sa <= sb`` and ``eb <= ea + epsilon``
    * Follows:  ``sb >= ea + 1 - epsilon``
    * Overlaps: ``sa < sb`` and ``ea < eb`` and
      ``overlap_len = ea - sb + 1 >= d_o - epsilon``
    """
    if sa <= sb and eb <= ea + epsilon:
        return CONTAINS
    if sb >= ea + 1 - epsilon:
        return FOLLOWS
    if sa < sb and ea < eb and (ea - sb + 1) >= d_o - epsilon:
        return OVERLAPS
    return None

