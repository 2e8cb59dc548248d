"""Temporal sequence database construction (Defs. 3.11-3.13).

``build_dseq`` applies the sequence mapping ``g: X_S ->_m H`` to every
symbolic time series: each block of ``m`` adjacent fine-granularity
symbols becomes one coarse granule, and consecutive identical symbols
inside a block are grouped into event instances by :func:`runs`, the
one instance rule.

A series' granules repeat a few contents over and over (binary symbols
with ``m = 4`` give at most 16), so ``DSeq`` stores each series as
*granule signatures*: a signature is the tuple of ``(start, end,
symbol)`` runs of one granule's content, offsets inside the granule,
and it maps to the bitset of the granules with that content (bit ``h``
set iff granule ``h`` has it). ``runs`` is called once per distinct
content. HLH_1 (:func:`repro.core.estpm.build_event_supports`) and the
brute-force representatives read the signatures directly; the per-row
layout of the paper's Table IV, ``DSeq.rows``, is a view derived from
them on first use.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .events import EventInstance, canonical_sort_key
from .seasonal import bit_positions

#: one granule's instances of one series: ``(start, end, symbol)`` runs in
#: time order, offsets inside the granule
Signature = tuple[tuple[int, int, str], ...]


@dataclass
class DSeq:
    """A temporal sequence database at one coarse granularity.

    ``series[name]`` maps each signature of the series to the bitset of
    the granules holding it; a granule where the series has no instance
    is in none of them, and a series with no instance is absent.
    ``n_granules`` is |D_SEQ| (granules with no instance still count
    toward the size — periods are positional). Granule ``h`` covers the
    fine instants ``h*m .. h*m + m - 1``.
    """

    n_granules: int
    m: int
    series: dict[str, dict[Signature, int]] = field(default_factory=dict)

    @cached_property
    def rows(self) -> dict[int, list[EventInstance]]:
        """Granule -> its event instances in canonical order (Table IV),
        for the granules holding any."""
        rows: dict[int, list[EventInstance]] = {}
        m = self.m
        for name, sigs in self.series.items():
            for sig, bits in sigs.items():
                for h in bit_positions(bits):
                    origin = h * m
                    rows.setdefault(h, []).extend(
                        EventInstance(origin + s, origin + e, name, sym) for s, e, sym in sig
                    )
        for row in rows.values():
            row.sort(key=canonical_sort_key)
        return dict(sorted(rows.items()))

    def instances(self, h: int) -> list[EventInstance]:
        return self.rows.get(h, [])

    def event_names(self) -> list[str]:
        """Distinct event keys, sorted."""
        return sorted(
            {f"{name}:{r[2]}" for name, sigs in self.series.items() for sig in sigs for r in sig}
        )

    def series_names(self) -> list[str]:
        return sorted(self.series)

    def n_instances(self) -> int:
        return sum(
            len(sig) * bits.bit_count()
            for sigs in self.series.values()
            for sig, bits in sigs.items()
        )

    def occupied(self) -> int:
        """Bitset of the granules holding at least one instance."""
        return reduce(or_, (bits for sigs in self.series.values() for bits in sigs.values()), 0)


def first_runs(sig: Signature) -> dict[str, tuple[int, int]]:
    """Symbol -> ``(start, end)`` of its first run in ``sig``: in the
    granules holding ``sig``, the canonically first instance of each of
    the series' events, the event's representative there."""
    out: dict[str, tuple[int, int]] = {}
    for s, e, sym in sig:
        out.setdefault(sym, (s, e))
    return out


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

    Each series is cut into ``m``-tuples by ``zip``; :func:`runs` turns
    each distinct content, once across all series, into its signature.
    """
    if m <= 0:
        raise ValueError(f"m must be >= 1, got {m}")
    n_fine = max((len(s) for s in symbolic.values()), default=0)
    sig_of: dict[tuple, Signature] = {}  # granule content -> its kept runs
    series: dict[str, dict[Signature, int]] = {}
    for name in sorted(symbolic):
        symbols = symbolic[name]
        by_content: dict[tuple, int] = {}
        for h, content in enumerate(zip(*[iter(symbols)] * m)):
            by_content[content] = by_content.get(content, 0) | 1 << h
        n_full = len(symbols) // m
        if tail := tuple(symbols[n_full * m :]):
            by_content[tail] = by_content.get(tail, 0) | 1 << n_full
        sigs: dict[Signature, int] = {}
        for content, bits in by_content.items():
            sig = sig_of.get(content)
            if sig is None:
                sig = sig_of[content] = tuple(
                    r for r in runs(content, m) if r[2] not in ignore_symbols
                )
            if sig:
                sigs[sig] = sigs.get(sig, 0) | bits
        if sigs:
            series[name] = sigs
    return DSeq(n_granules=(n_fine + m - 1) // m, m=m, series=series)


def build_dseq_from_instances(
    instances: Iterable[EventInstance], m: int, n_granules: int
) -> DSeq:
    """Assemble a DSeq from event instances, grouped per (series, granule)
    into signatures: the seam where Spark's ``extract_instances`` rows
    would enter Phase 2 directly (planned in ROADMAP.md; no Spark code
    calls it yet).

    Each instance must lie inside a single coarse granule
    (``start // m == end // m``); Phase-1 extraction guarantees this
    because runs are delimited per granule.
    """
    cells: dict[tuple[str, int], list[tuple[int, int, str]]] = {}
    for inst in instances:
        h = inst.start // m
        if inst.end // m != h:
            raise ValueError(f"instance {inst} spans coarse granules")
        origin = h * m
        cells.setdefault((inst.series, h), []).append(
            (inst.start - origin, inst.end - origin, inst.symbol)
        )
    series: dict[str, dict[Signature, int]] = {}
    for (name, h), cell in sorted(cells.items()):
        sigs = series.setdefault(name, {})
        sig = tuple(sorted(cell))
        sigs[sig] = sigs.get(sig, 0) | 1 << h
    return DSeq(n_granules=n_granules, m=m, series=series)
