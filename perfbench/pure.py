"""Pure-Python side: workload inputs, the end-to-end miner calls, their
output checks, and the per-layer calls a traced run adds.

An end-to-end call takes raw values to frequent patterns for one miner:
symbolize (``core.symbolize``), build D_SEQ (``core.sequences``), then
``core.estpm.mine`` / ``core.astpm.mine_approx`` / ``baseline.aps.mine_aps``,
once per replica group of the workload.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import pandas as pd

from repro.baseline.aps import mine_aps
from repro.baseline.psgrowth import ps_growth
from repro.core.astpm import mine_approx, screen_correlated
from repro.core.estpm import MiningResult, mine
from repro.core.mi import pair_min_nmis
from repro.core.seasonal import STPMParams, evaluate_seasonality
from repro.core.sequences import build_dseq
from repro.core.symbolize import threshold_symbols
from repro.datasets import CUT, DatasetProfile, gen_values_pdf, scaled_profile
from repro.experiments.tables import params_for

IGNORE = frozenset({"0"})  # background symbol, as in the scalability tables
BINARY = ["0", "1"]
MINERS = ("estpm", "astpm", "aps")


@dataclass(frozen=True)
class Workload:
    name: str
    n_series: int
    n_groups: int
    max_k: int
    #: a traced run also times the Spark layers on the same values
    trace_spark: bool = False


#: Why these sizes: README.md, "Workloads".
WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-k2", n_series=80, n_groups=1, max_k=2, trace_spark=True),
        Workload("deep-k3", n_series=36, n_groups=2, max_k=3),
    )
}


@dataclass
class Inputs:
    profile: DatasetProfile
    params: STPMParams
    #: long-format values (group, series, t, value), the Spark input
    values_pdf: pd.DataFrame
    #: per replica group: series -> values in time order, the pure input
    groups: list[dict[str, list[float]]]


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Deterministic in ``seed``: ``scaled_profile("inf", n, seed=seed)``
    at maxPeriod 0.4 %, minDensity 0.5 %, minSeason 12."""
    p = scaled_profile("inf", w.n_series, seed=seed)
    params = params_for(
        p, max_period_pct=0.4, min_density_pct=0.5, min_season=12, max_k=w.max_k
    )
    pdf = gen_values_pdf(p, n_groups=w.n_groups)
    groups = [
        {
            str(s): ss.sort_values("t")["value"].tolist()
            for s, ss in sub.groupby("series")
        }
        for _, sub in pdf.groupby("group")
    ]
    return Inputs(profile=p, params=params, values_pdf=pdf, groups=groups)


def split_groups(inp: Inputs) -> list[Inputs]:
    """One :class:`Inputs` per replica group."""
    return [replace(inp, groups=[g]) for g in inp.groups]


def symbolize(values: dict[str, list[float]]) -> dict[str, list[str]]:
    return {s: threshold_symbols(v, [CUT], alphabet=BINARY) for s, v in values.items()}


def end_to_end(miner: str, inp: Inputs, span, run: int) -> list[MiningResult]:
    """One call of ``miner``: raw values -> frequent patterns, per group."""
    out = []
    for values in inp.groups:
        with span("core.symbolize", run):
            symbols = symbolize(values)
        with span("core.sequences", run):
            dseq = build_dseq(symbols, inp.profile.m, ignore_symbols=IGNORE)
        if miner == "estpm":
            with span("core.estpm.mine", run):
                res = mine(dseq, inp.params)
        elif miner == "astpm":
            with span("core.astpm.mine_approx", run):
                res = mine_approx(symbols, dseq, inp.params).mining
        else:
            with span("baseline.aps.mine_aps", run):
                res = mine_aps(dseq, inp.params)
        out.append(res)
    return out


def digest(results: list[MiningResult]) -> str:
    """Digest of every group's frequent singles and patterns with supports."""
    h = hashlib.sha256()
    for res in results:
        for items in (res.singles, res.patterns):
            for key, v in sorted(items.items()):
                h.update(repr((key, v.sup, v.n_seasons)).encode())
        h.update(b"|")
    return h.hexdigest()


def subset_error(approx: list[MiningResult], exact: list[set]) -> str | None:
    """A-STPM's patterns must be E-STPM's (``exact``: per-group pattern sets)."""
    for g, (a, e) in enumerate(zip(approx, exact)):
        extra = set(a.patterns) - e
        if extra:
            return f"group {g}: {len(extra)} A-STPM patterns not found by E-STPM"
    return None


def pruning_error(inp: Inputs, exact: list[MiningResult]) -> str | None:
    """E-STPM with no pruning must equal E-STPM with all pruning."""
    for g, values in enumerate(inp.groups):
        dseq = build_dseq(symbolize(values), inp.profile.m, ignore_symbols=IGNORE)
        bare = mine(dseq, inp.params, apriori=False, transitivity=False)
        if digest([bare]) != digest([exact[g]]):
            return f"group {g}: E-STPM without pruning differs from E-STPM"
    return None


def quality(exact, approx, aps) -> dict[str, float]:
    """Table VII accuracy and E-STPM vs APS-growth agreement over all groups."""
    n_exact = n_found = n_both = n_union = mismatch = 0
    for e, a, p in zip(exact, approx, aps):
        es, as_, ps = set(e.patterns), set(a.patterns), set(p.patterns)
        n_exact += len(es)
        n_found += len(es & as_)
        n_both += len(es & ps)
        n_union += len(es | ps)
        mismatch += len(es ^ ps)
    return dict(
        astpm_accuracy_pct=100.0 * n_found / n_exact if n_exact else 100.0,
        estpm_aps_agreement_pct=100.0 * n_both / n_union if n_union else 100.0,
        estpm_aps_mismatch=mismatch,
    )


def layer_round(inp: Inputs, span, run: int) -> dict[str, float]:
    """Per-layer calls of a traced run; returns the layers' work counts.

    Spans sit around calls into each module's public functions. The k=2
    and k=3 levels of E-STPM have no public entry of their own, so they
    are timed as ``mine(max_k=k)`` and differenced afterwards; PS-growth
    is timed alone and differenced from ``mine_aps`` the same way.
    """
    p = inp.params
    counts = dict(
        dseq_instances=0, estpm_pairs_considered=0, estpm_groups_k2=0,
        estpm_groups_k3=0, estpm_candidates=0, estpm_frequent=0,
        season_checks=0, nmi_pairs=0, screen_kept=0, psgrowth_itemsets=0,
    )
    for values in inp.groups:
        with span("core.symbolize", run):
            symbols = symbolize(values)
        with span("core.sequences", run):
            dseq = build_dseq(symbols, inp.profile.m, ignore_symbols=IGNORE)
        for k in range(1, p.max_k + 1):
            with span(f"core.estpm.mine[k={k}]", run):
                res = mine(dseq, p.with_(max_k=k))
        sups = [
            sup
            for hlh in res.hlhk.values()
            for g in hlh.groups.values()
            for sup in g.patterns.values()
        ]
        with span("core.seasonal.evaluate_seasonality", run):
            for sup in sups:
                evaluate_seasonality(sup, p)
        with span("core.mi.pair_min_nmis", run):
            nmis = pair_min_nmis(symbols)
        with span("core.astpm.screen_correlated", run):
            rep = screen_correlated(symbols, p, dseq.n_granules, pair_nmis=nmis)
        with span("core.astpm.mine[screened]", run):
            mine(dseq, p, allowed_pairs=rep.correlated_pairs, restrict_series=rep.kept_series)
        with span("baseline.aps.mine_aps", run):
            mine_aps(dseq, p)
        transactions = {h: [i.event for i in insts] for h, insts in dseq.rows.items()}
        with span("baseline.psgrowth.ps_growth", run):
            itemsets = ps_growth(
                transactions, min_season=p.min_season, min_density=p.min_density,
                max_period=p.max_period, max_k=p.max_k,
            )
        counts["dseq_instances"] += dseq.n_instances()
        counts["estpm_pairs_considered"] += res.stats.get("n_pairs_considered", 0)
        counts["estpm_groups_k2"] += res.stats.get("n_candidate_groups_k2", 0)
        counts["estpm_groups_k3"] += res.stats.get("n_candidate_groups_k3", 0)
        counts["estpm_candidates"] += res.stats.get("n_candidate_patterns", 0)
        counts["estpm_frequent"] += len(res.patterns)
        counts["season_checks"] += len(sups)
        counts["nmi_pairs"] += len(nmis)
        counts["screen_kept"] += len(rep.correlated_pairs)
        counts["psgrowth_itemsets"] += len(itemsets)
    return counts
