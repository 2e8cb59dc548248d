"""E-STPM: exact Seasonal Temporal Pattern Mining (Algorithm 1).

Mining runs in two steps over a temporal sequence database:

1. *Seasonal single event mining* — one scan of D_SEQ builds HLH_1 with
   the support set and per-granule representative instance of every
   event; the maxSeason gate (Apriori-like pruning, Lemmas 1-2) keeps
   only candidate events.
2. *Seasonal k-event pattern mining* — candidate k-event groups come
   from extending candidate (k-1)-event groups with candidate single
   events (support sets intersect, maxSeason gates), optionally passed
   through the transitivity filter (Lemmas 3-4); relations are verified
   per granule from the representative instances, and candidate patterns
   finally undergo the full seasonal check (Def. 3.17).

Pruning toggles reproduce the paper's ablation (Figs. 15-16):
``apriori=False`` disables every maxSeason gate, ``transitivity=False``
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
from .seasonal import STPMParams, SeasonalVerdict, evaluate_seasonality, is_candidate
from .sequences import DSeq


@dataclass
class MiningResult:
    """Frequent seasonal events/patterns plus the mining state for reuse."""

    params: STPMParams
    singles: dict[str, SeasonalVerdict] = field(default_factory=dict)
    patterns: dict[Pattern, SeasonalVerdict] = field(default_factory=dict)
    hlh1: HLH1 = field(default_factory=HLH1)
    hlhk: dict[int, HLHk] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)

    def frequent_patterns(self, k: int | None = None) -> dict[Pattern, SeasonalVerdict]:
        """Frequent seasonal k-event patterns (all k >= 2 when k is None)."""
        if k is None:
            return dict(self.patterns)
        want = k * (k - 1) // 2
        return {p: v for p, v in self.patterns.items() if len(p) == want}

    def pattern_strings(self) -> list[str]:
        return sorted(" ; ".join(f"{a} {r} {b}" for r, a, b in p) for p in self.patterns)


def build_event_supports(dseq: DSeq) -> HLH1:
    """One scan of D_SEQ: support set + representative instance per event."""
    hlh = HLH1()
    for h, insts in dseq.rows.items():
        for pos, inst in enumerate(insts):  # already in canonical order
            hlh.add(h, pos, inst)
    return hlh


def _pair_patterns(
    a: EventEntry, b: EventEntry, sup: set[int], params: STPMParams
) -> GroupEntry:
    """Verify the relation of two events in every shared granule.

    The representative that comes first in the granule's D_SEQ row is
    the relation's first event, as in :func:`repro.core.events.pair_relation`.
    """
    entry = GroupEntry(events=tuple(sorted((a.event, b.event))), sup=sup)
    eps, d_o = params.epsilon, params.d_o
    for h in sup:
        pa, sa, ea = a.span[h]
        pb, sb, eb = b.span[h]
        if pa < pb:
            rel, first, second = relation(sa, ea, sb, eb, eps, d_o), a.event, b.event
        else:
            rel, first, second = relation(sb, eb, sa, ea, eps, d_o), b.event, a.event
        if rel is None:
            continue
        pattern: Pattern = ((rel, first, second),)
        entry.patterns.setdefault(pattern, set()).add(h)
        entry.pattern_at[h] = pattern
    return entry


def _gate_patterns(entry: GroupEntry, params: STPMParams, apriori: bool) -> None:
    """Drop non-candidate patterns (maxSeason < minSeason) from a group."""
    if not apriori:
        return
    keep = {p: s for p, s in entry.patterns.items() if is_candidate(len(s), params)}
    if len(keep) != len(entry.patterns):
        entry.patterns = keep
        entry.pattern_at = {h: p for h, p in entry.pattern_at.items() if p in keep}


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
    res = MiningResult(params=params)

    # ---- Step 2.1: seasonal single events (Alg. 1 lines 1-9) ----
    full = build_event_supports(dseq)
    res.stats["n_events_total"] = len(full)
    hlh1 = HLH1()
    for ev, entry in full.events.items():
        if restrict_series is not None and ev.split(":", 1)[0] not in restrict_series:
            continue
        if apriori and not is_candidate(len(entry.sup), params):
            continue
        hlh1.events[ev] = entry
    res.hlh1 = hlh1
    res.stats["n_candidate_events"] = len(hlh1)
    for ev, entry in hlh1.events.items():
        verdict = evaluate_seasonality(entry.sup, params)
        if verdict.frequent:
            res.singles[ev] = verdict

    if params.max_k < 2:
        return res

    # ---- Step 2.2, k = 2 (Section 4.2.1) ----
    hlh2 = HLHk(k=2)
    considered = 0
    for ev_a, ev_b in combinations(sorted(hlh1.events), 2):
        a, b = hlh1.events[ev_a], hlh1.events[ev_b]
        if allowed_pairs is not None:
            sa, sb = ev_a.split(":")[0], ev_b.split(":")[0]
            if sa != sb and frozenset((sa, sb)) not in allowed_pairs:
                continue
        considered += 1
        sup = a.sup & b.sup
        if apriori and not is_candidate(len(sup), params):
            continue
        entry = _pair_patterns(a, b, sup, params)
        _gate_patterns(entry, params, apriori)
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
    # per-granule triples are read straight out of HLH_2's GH table
    # (pattern_at) instead of being recomputed.
    canon_cache: dict[tuple, Pattern] = {}
    prev = hlh2
    for k in range(3, params.max_k + 1):
        if not prev.groups:
            break
        cur = HLHk(k=k)
        filtered_f1 = (
            sorted(prev.events_in_patterns() & set(hlh1.events))
            if transitivity
            else sorted(hlh1.events)
        )
        pair_groups = res.hlhk[2].groups
        for g_events, g in prev.groups.items():
            for ev in filtered_f1:
                if ev <= g_events[-1]:
                    continue  # canonical extension: strictly larger event key
                # Lemma 4 / iterative check: every (E_i, ev) pair must own a
                # candidate 2-event pattern, i.e. a group in HLH_2
                pair_entries = [pair_groups.get((e, ev)) for e in g_events]
                if any(pe is None for pe in pair_entries):
                    continue
                sup = g.sup & hlh1.events[ev].sup
                if apriori and not is_candidate(len(sup), params):
                    continue
                new = GroupEntry(events=g_events + (ev,), sup=sup)
                for h in sup:
                    parent = g.pattern_at.get(h)
                    if parent is None:
                        continue
                    triples = []
                    for pe in pair_entries:
                        t = pe.pattern_at.get(h)
                        if t is None:
                            triples = None
                            break
                        triples.append(t[0])
                    if triples is None:
                        continue
                    raw = parent + tuple(triples)
                    pattern = canon_cache.get(raw)
                    if pattern is None:
                        pattern = tuple(sorted(raw))
                        canon_cache[raw] = pattern
                    new.patterns.setdefault(pattern, set()).add(h)
                    new.pattern_at[h] = pattern
                _gate_patterns(new, params, apriori)
                if new.patterns:
                    cur.groups[new.events] = new
        res.hlhk[k] = cur
        res.stats[f"n_candidate_groups_k{k}"] = len(cur)
        prev = cur

    # ---- final seasonal check over all candidate patterns ----
    n_candidates = 0
    for hlh in res.hlhk.values():
        for g in hlh.groups.values():
            for pattern, sup in g.patterns.items():
                n_candidates += 1
                verdict = evaluate_seasonality(sup, params)
                if verdict.frequent:
                    res.patterns[pattern] = verdict
    res.stats["n_candidate_patterns"] = n_candidates
    res.stats["n_frequent_patterns"] = len(res.patterns)
    res.stats["n_frequent_singles"] = len(res.singles)
    return res
