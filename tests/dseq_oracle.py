"""Per-instance D_SEQ construction, the oracle for ``core.sequences``.

Phase 1 one instance at a time, as the paper's Table IV lays it out:
every run of :func:`repro.core.sequences.runs` becomes an
:class:`EventInstance`, each coarse granule's instances are put in
canonical order, and HLH_1 and the brute-force representatives come
from one scan of those rows, an event's canonically first instance in
a granule being its representative there. The pipeline stores D_SEQ as
per-series granule signatures instead; nothing outside the tests calls
these.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.events import EventInstance, canonical_sort_key
from repro.core.sequences import runs


def instances(
    symbolic: Mapping[str, Sequence[str | None]], m: int, ignore_symbols=frozenset()
) -> list[EventInstance]:
    """Every kept event instance, series by series in time order."""
    return [
        EventInstance(start, end, series, sym)
        for series in sorted(symbolic)
        for start, end, sym in runs(symbolic[series], m)
        if sym not in ignore_symbols
    ]


def rows(insts: list[EventInstance], m: int) -> dict[int, list[EventInstance]]:
    """Granule -> its instances in canonical order, for non-empty granules."""
    out: dict[int, list[EventInstance]] = {}
    for inst in insts:
        out.setdefault(inst.start // m, []).append(inst)
    for row in out.values():
        row.sort(key=canonical_sort_key)
    return out


def event_supports(rows_: dict[int, list[EventInstance]], m: int) -> dict:
    """Event -> ``((series, symbol), support bitset, representative
    shape -> granule bitset)``: HLH_1's rows."""
    events: dict[str, tuple[tuple[str, str], int, dict]] = {}
    for h, insts in rows_.items():
        bit, origin = 1 << h, h * m
        for inst in insts:  # canonical order: an event's first is its representative
            name, sup, shapes = events.get(inst.event, ((inst.series, inst.symbol), 0, {}))
            if sup & bit:
                continue
            shape = (inst.start - origin, inst.end - origin)
            shapes[shape] = shapes.get(shape, 0) | bit
            events[inst.event] = (name, sup | bit, shapes)
    return events


def representatives(rows_: dict[int, list[EventInstance]], m: int) -> dict:
    """Event -> granule -> ``(start, end, series, symbol)`` of its
    canonically first instance there, offsets inside the granule."""
    rep: dict[str, dict[int, tuple]] = {}
    for h, insts in rows_.items():
        for i in insts:
            rep.setdefault(i.event, {}).setdefault(
                h, (i.start - h * m, i.end - h * m, i.series, i.symbol)
            )
    return rep
