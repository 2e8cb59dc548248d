"""Temporal sequence database construction (Defs. 3.11-3.13).

``build_dseq`` applies the sequence mapping ``g: X_S ->_m H`` to every
symbolic time series: each block of ``m`` adjacent fine-granularity
symbols becomes one coarse granule, and consecutive identical symbols
inside a block are grouped into event instances. The result ``DSeq``
maps coarse granule position -> list of :class:`EventInstance`, which is
the per-row layout of the paper's Table IV.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .events import EventInstance, canonical_sort_key


@dataclass
class DSeq:
    """A temporal sequence database at one coarse granularity.

    ``rows[h]`` lists the event instances of coarse granule ``h`` in
    canonical order. ``n_granules`` is |D_SEQ| (granules with no instance
    still count toward the size — periods are positional). Granule ``h``
    covers the fine instants ``h*m .. h*m + m - 1``.
    """

    n_granules: int
    m: int
    rows: dict[int, list[EventInstance]] = field(default_factory=dict)

    def instances(self, h: int) -> list[EventInstance]:
        return self.rows.get(h, [])

    def event_names(self) -> list[str]:
        """Distinct event keys, sorted."""
        return sorted({i.event for row in self.rows.values() for i in row})

    def series_names(self) -> list[str]:
        return sorted({i.series for row in self.rows.values() for i in row})

    def n_instances(self) -> int:
        return sum(len(r) for r in self.rows.values())


def runs(symbols: Sequence[str | None], m: int) -> Iterator[tuple[int, int, str]]:
    """Event instances of one series as ``(start, end, symbol)`` runs.

    An instance is a maximal run of one symbol inside one coarse granule
    (Defs. 3.11-3.13): a run ends at a symbol change, at a granule
    boundary (``t % m == 0``) or at a missing instant (``None``), which
    starts no run itself. ``t`` is the position in ``symbols``.
    """
    run_sym: str | None = None
    run_start = 0
    for t, sym in enumerate(symbols):
        if sym != run_sym or t % m == 0:
            if run_sym is not None:
                yield run_start, t - 1, run_sym
            run_sym, run_start = sym, t
    if run_sym is not None:
        yield run_start, len(symbols) - 1, run_sym


def build_dseq(
    symbolic: Mapping[str, Sequence[str | None]],
    m: int,
    *,
    ignore_symbols: frozenset[str] | set[str] = frozenset(),
) -> DSeq:
    """Build D_SEQ from a symbolic database via the mapping ``g: X_S ->_m H``.

    ``symbolic`` maps series name -> fine-granularity symbol sequence (all
    series must share a time domain; shorter series are treated as ending
    early; ``None`` marks a missing instant). Trailing partial blocks
    (< m symbols) form a final, shorter granule, mirroring how a real
    deployment truncates at "now".

    ``ignore_symbols`` drops instances of uninformative symbols (e.g. the
    "background/off" level) from the database — an experimental-design
    knob used by the scalability datasets; the paper's running example
    keeps all symbols, which is the default.
    """
    if m <= 0:
        raise ValueError(f"m must be >= 1, got {m}")
    n_fine = max((len(s) for s in symbolic.values()), default=0)
    instances = (
        EventInstance(start, end, series, sym)
        for series in sorted(symbolic)
        for start, end, sym in runs(symbolic[series], m)
        if sym not in ignore_symbols
    )
    return build_dseq_from_instances(instances, m, (n_fine + m - 1) // m)


def build_dseq_from_instances(
    instances: Iterable[EventInstance], m: int, n_granules: int
) -> DSeq:
    """Assemble a DSeq from event instances: ``build_dseq``'s last step,
    and the seam where Spark's ``extract_instances`` rows would enter
    Phase 2 directly (planned in ROADMAP.md; no Spark code calls it yet).

    Indexes every instance by its coarse granule and puts each row in
    canonical order. Each instance must lie inside a single coarse granule
    (``start // m == end // m``); Phase-1 extraction guarantees this
    because runs are delimited per granule.
    """
    rows: dict[int, list[EventInstance]] = {}
    for inst in instances:
        h = inst.start // m
        if inst.end // m != h:
            raise ValueError(f"instance {inst} spans coarse granules")
        rows.setdefault(h, []).append(inst)
    for h in rows:
        rows[h].sort(key=canonical_sort_key)
    return DSeq(n_granules=n_granules, m=m, rows=rows)
