"""E-STPM: exact Seasonal Temporal Pattern Mining (Algorithm 1).

Mining runs in two steps over a temporal sequence database:

1. *Seasonal single event mining* — one pass over D_SEQ's granule
   signatures builds HLH_1 with the support bitset of every event and
   the granules where its representative instance has each shape; the
   maxSeason gates (Apriori-like pruning, Lemmas 1-2: Eq. 1's popcount, then
   :func:`~repro.core.seasonal.can_hold_seasons`, which also needs the
   support's blocks of minDensity granules to lie dist_min apart) keep
   only candidate events.
2. *Seasonal k-event pattern mining* — candidate k-event groups come
   from extending candidate (k-1)-event groups with candidate single
   events (support bitsets AND, maxSeason gates; a k >= 3 group's
   support also passes the distInterval walk), optionally passed
   through the transitivity filter (Lemmas 3-4). k = 2 relates two
   events once per pair of shapes; k >= 3 ANDs the parent pattern's
   bitset with one 2-event pattern per new pair. Candidate patterns
   finally undergo the seasonal check (Def. 3.17) once each: its verdict
   holds the candidate's own bitset and season count, and is kept only
   if frequent.

Pruning toggles reproduce the paper's ablation (Figs. 15-16):
``apriori=False`` disables every maxSeason gate (Eq. 1 and the
distInterval walk; the walk goes beyond the paper), ``transitivity=False``
disables FilteredF1 only. The Lemma-4 pair check is always on, because
it is the same lookup as the iterative check: HLH_2 holds a pair only
if the pair has a candidate 2-event pattern. All four combinations
return identical frequent patterns (tested against ``brute``).

Deterministic simplification (documented in DESIGN.md): when an event
has several instances inside one granule, the canonically first instance
represents the event there, so each (group, granule) yields at most one
pattern. Self-pairs ``(E, E)`` are not enumerated.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .events import relation
from .hlh import HLH1, EventEntry, GroupEntry, HLHk, Pattern
from .seasonal import STPMParams, SeasonalVerdict, can_hold_seasons, evaluate_seasonality
from .sequences import DSeq, first_runs


@dataclass
class MiningResult:
    """Frequent seasonal events/patterns plus the mining state for reuse."""

    singles: dict[str, SeasonalVerdict] = field(default_factory=dict)
    patterns: dict[Pattern, SeasonalVerdict] = field(default_factory=dict)
    hlh1: HLH1 = field(default_factory=dict)
    hlhk: dict[int, HLHk] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)


def build_event_supports(dseq: DSeq) -> HLH1:
    """One pass over D_SEQ's signatures: support bitset + representative
    shapes per event. An event's first run in a signature is its
    representative in the signature's granules, and that run's offsets
    are its shape there."""
    events: HLH1 = {}
    for series, sigs in dseq.series.items():
        for sig, bits in sigs.items():
            for sym, shape in first_runs(sig).items():
                e = events.get(ev := f"{series}:{sym}")
                if e is None:
                    e = events[ev] = EventEntry(ev, (series, sym))
                e.sup |= bits
                e.shapes[shape] = e.shapes.get(shape, 0) | bits
    return events


def _pair_group(
    a: EventEntry, b: EventEntry, sup: int, floor: int, eps: int, d_o: int
) -> GroupEntry:
    """Relate two events (``a.event < b.event``) shape pair by shape pair.

    In the granules where ``a`` has shape ``(sa, ea)`` and ``b`` has
    ``(sb, eb)``, Table III sees exactly these offsets, so one
    :func:`relation` call covers them all. The representative that is
    canonically first — ``(start, -end, series, symbol)``, as in
    :func:`repro.core.events.canonical_sort_key` — is the relation's
    first event. Patterns with fewer than ``floor`` granules are dropped.
    """
    b_shapes = [(sb, eb, bits) for (sb, eb), bits in b.shapes.items() if bits & sup]
    by_rel: dict[tuple[str, bool], int] = {}  # (rel, a is first) -> granules
    for (sa, ea), bits_a in a.shapes.items():
        bits_a &= sup
        if not bits_a:
            continue
        key_a = (sa, -ea, a.name)
        for sb, eb, bits_b in b_shapes:
            both = bits_a & bits_b
            if not both:
                continue
            if key_a < (sb, -eb, b.name):
                key = (relation(sa, ea, sb, eb, eps, d_o), True)
            else:
                key = (relation(sb, eb, sa, ea, eps, d_o), False)
            if key[0] is not None:
                by_rel[key] = by_rel.get(key, 0) | both
    entry = GroupEntry(events=(a.event, b.event), sup=sup)
    for (rel, a_first), bits in by_rel.items():
        if bits.bit_count() >= floor:
            triple = (rel, a.event, b.event) if a_first else (rel, b.event, a.event)
            entry.patterns[(triple,)] = bits
    return entry


def _extend_group(
    g: GroupEntry, ev: str, pairs: list[GroupEntry], sup: int, floor: int
) -> GroupEntry:
    """Candidate patterns of ``g.events + (ev,)`` (k >= 3).

    A granule's k-pattern is its parent pattern plus one candidate
    2-event pattern of every ``(E_i, ev)`` pair (Section 4.2.2's
    iterative check), so the support of each combination is the AND of
    their bitsets. An AND only shrinks a count, so a partial product
    below ``floor`` granules is dropped at once.
    """
    partial = [(p, bits & sup) for p, bits in g.patterns.items()]
    for pair in pairs:
        partial = [
            (p + q, both)
            for p, bits in partial
            if bits.bit_count() >= floor
            for q, q_bits in pair.patterns.items()
            if (both := bits & q_bits)
        ]
    entry = GroupEntry(events=g.events + (ev,), sup=sup)
    for p, bits in partial:
        if bits.bit_count() >= floor:
            entry.patterns[tuple(sorted(p))] = bits
    return entry


def mine(
    dseq: DSeq,
    params: STPMParams,
    *,
    apriori: bool = True,
    transitivity: bool = True,
    allowed_pairs: set[frozenset[str]] | None = None,
    restrict_series: set[str] | None = None,
) -> MiningResult:
    """Run E-STPM over ``dseq``.

    ``allowed_pairs``/``restrict_series`` are the A-STPM hooks: when
    given, single-event mining only sees series in ``restrict_series``
    and 2-event mining only pairs whose *series* pair is allowed
    (same-series pairs are always allowed — a series is perfectly
    correlated with itself). k >= 3 proceeds exactly as E-STPM on top of
    the restricted HLH_2, mirroring Algorithm 2.
    """
    res = MiningResult()
    # the maxSeason gate as a floor on bit counts; without it a pattern
    # needs one granule
    floor = params.min_support if apriori else 1

    # ---- Step 2.1: seasonal single events (Alg. 1 lines 1-9) ----
    full = build_event_supports(dseq)
    res.stats["n_events_total"] = len(full)
    hlh1 = res.hlh1 = {}
    chain_pruned = 0
    for ev, entry in full.items():
        if restrict_series is not None and entry.name[0] not in restrict_series:
            continue
        if entry.sup.bit_count() < floor:
            continue
        if apriori and not can_hold_seasons(entry.sup, params):
            chain_pruned += 1
            continue
        hlh1[ev] = entry
    res.stats["n_candidate_events"] = len(hlh1)
    res.stats["n_chain_pruned_events"] = chain_pruned
    for ev, entry in hlh1.items():
        if (v := evaluate_seasonality(entry.sup, params)).frequent:
            res.singles[ev] = v

    if params.max_k < 2:
        return res

    # ---- Step 2.2, k = 2 (Section 4.2.1) ----
    hlh2 = HLHk()
    considered = 0
    for ev_a, ev_b in combinations(sorted(hlh1), 2):
        a, b = hlh1[ev_a], hlh1[ev_b]
        if allowed_pairs is not None:
            sa, sb = a.name[0], b.name[0]
            if sa != sb and frozenset((sa, sb)) not in allowed_pairs:
                continue
        considered += 1
        sup = a.sup & b.sup
        if sup.bit_count() < floor:
            continue
        entry = _pair_group(a, b, sup, floor, params.epsilon, params.d_o)
        if entry.patterns:
            hlh2.groups[entry.events] = entry
    res.hlhk[2] = hlh2
    res.stats["n_pairs_considered"] = considered
    res.stats["n_candidate_groups_k2"] = len(hlh2)

    # ---- Step 2.2, k >= 3 (Section 4.2.2) ----
    # The iterative check of Section 4.2.2 walks the triples
    # (r_ik, E_i, E_k) through HLH_2: a k-pattern can only occur at a
    # granule where every (E_i, E_k) pair already holds a *candidate*
    # 2-event pattern there (sub-pattern candidacy, Lemma 1), so the
    # triples and their granules are read straight out of HLH_2.
    pair_groups = hlh2.groups
    prev = hlh2
    for k in range(3, params.max_k + 1):
        if not prev.groups:
            break
        cur = HLHk()
        chain_pruned = 0
        filtered_f1 = (
            sorted(prev.events_in_patterns() & set(hlh1))
            if transitivity
            else sorted(hlh1)
        )
        for g_events, g in prev.groups.items():
            for ev in filtered_f1:
                if ev <= g_events[-1]:
                    continue  # canonical extension: strictly larger event key
                # Lemma 4 / iterative check: every (E_i, ev) pair must own a
                # candidate 2-event pattern, i.e. a group in HLH_2
                pairs = [pair_groups.get((e, ev)) for e in g_events]
                if None in pairs:
                    continue
                sup = g.sup & hlh1[ev].sup
                if sup.bit_count() < floor:
                    continue
                if apriori and not can_hold_seasons(sup, params):
                    chain_pruned += 1
                    continue
                new = _extend_group(g, ev, pairs, sup, floor)
                if new.patterns:
                    cur.groups[new.events] = new
        res.hlhk[k] = cur
        res.stats[f"n_candidate_groups_k{k}"] = len(cur)
        res.stats[f"n_chain_pruned_groups_k{k}"] = chain_pruned
        prev = cur

    # ---- final seasonal check over all candidate patterns ----
    n_candidates = 0
    for hlh in res.hlhk.values():
        for g in hlh.groups.values():
            for pattern, sup in g.patterns.items():
                n_candidates += 1
                if (v := evaluate_seasonality(sup, params)).frequent:
                    res.patterns[pattern] = v
    res.stats["n_candidate_patterns"] = n_candidates
    res.stats["n_frequent_patterns"] = len(res.patterns)
    res.stats["n_frequent_singles"] = len(res.singles)
    return res
