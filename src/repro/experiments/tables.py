"""Harnesses that regenerate each evaluation table of the paper.

Every function returns a pandas DataFrame shaped like the paper's table
(rows/columns in the same order) over the profile-matched synthetic
datasets of :mod:`repro.datasets`. When a ``spark`` session is passed,
Phase 1 and/or the per-group mining run through the Spark layer;
otherwise the pure-Python core is used directly (identical results —
tested). ``jobs/`` wires each harness to spark-submit.

Parameter grids follow the paper (Table VI) except where its own
geometry makes a cell infeasible — e.g. minSeason=16 with distInterval
[90, 270] on a 1460-granule RE domain needs 16 * >=90 > 1460 granules,
so the RE/SC grids shift down one step (see EXPERIMENTS.md).
"""
from __future__ import annotations

import pandas as pd

from ..baseline.aps import mine_aps
from ..core.astpm import accuracy, mine_approx, pct_events_pruned, screen_correlated
from ..core.estpm import mine
from ..core.granularity import pct_to_count
from ..core.mi import pair_min_nmis
from ..core.seasonal import STPMParams
from ..core.sequences import build_dseq
from ..datasets import (
    CUT,
    DatasetProfile,
    gen_symbols,
    gen_values_pdf,
    profile,
    scaled_profile,
)

IGNORE_BACKGROUND = frozenset({"0"})

#: paper grid vs the geometry-feasible grid per dataset (see module doc)
MIN_SEASON_GRID = {"re": (4, 8, 12), "sc": (4, 8, 12), "inf": (8, 12, 16), "hfm": (8, 12, 16)}
MIN_DENSITY_GRID = (0.5, 0.75, 1.0)
MAX_PERIOD_GRID = (0.2, 0.4, 0.6)


def params_for(
    p: DatasetProfile,
    *,
    max_period_pct: float,
    min_density_pct: float,
    min_season: int,
    max_k: int = 3,
    epsilon: int = 0,
) -> STPMParams:
    """Convert the paper's percentage thresholds to absolute STPMParams."""
    return STPMParams(
        max_period=pct_to_count(max_period_pct, p.n_granules),
        min_density=pct_to_count(min_density_pct, p.n_granules),
        dist_min=p.dist_min,
        dist_max=p.dist_max,
        min_season=min_season,
        epsilon=epsilon,
        max_k=max_k,
    )


def _dataset(p: DatasetProfile, group: int = 0):
    symbols = gen_symbols(p, group)
    dseq = build_dseq(symbols, p.m, ignore_symbols=IGNORE_BACKGROUND)
    return symbols, dseq


# ---------------------------------------------------------------- Table V
def table05_characteristics(spark=None) -> pd.DataFrame:
    """Dataset characteristics (paper Table V) of the synthetic stand-ins.

    With ``spark``, runs the full Phase-1 path (values -> symbolize ->
    instance extraction -> stats); otherwise computes from symbols.
    """
    rows = []
    for name in ("re", "sc", "inf", "hfm"):
        p = profile(name)
        if spark is not None:
            from ..sparkio.transform import dseq_stats, extract_instances, symbolize_threshold

            values = spark.createDataFrame(gen_values_pdf(p, n_groups=1))
            sym = symbolize_threshold(values, [CUT], ["0", "1"])
            stats = dseq_stats(extract_instances(sym, p.m)).toPandas().iloc[0]
            rows.append(
                dict(
                    dataset=name, n_seq=int(stats["n_seq"]),
                    n_series=int(stats["n_series"]), n_events=int(stats["n_events"]),
                    ins_per_seq=round(float(stats["ins_per_seq"]), 1),
                )
            )
        else:
            symbols = gen_symbols(p)
            dseq = build_dseq(symbols, p.m)  # all symbols, as the paper counts
            rows.append(
                dict(
                    dataset=name, n_seq=dseq.n_granules,
                    n_series=len(dseq.series_names()),
                    n_events=len(dseq.event_names()),
                    ins_per_seq=round(dseq.n_instances() / max(1, len(dseq.rows)), 1),
                )
            )
    return pd.DataFrame(rows)


# ----------------------------------------------------- Tables IX/X/XIII/XIV
def pattern_count_table(
    dataset: str,
    *,
    max_periods=MAX_PERIOD_GRID,
    min_seasons=None,
    min_densities=MIN_DENSITY_GRID,
    max_k: int = 3,
    spark=None,
    n_groups: int = 1,
) -> pd.DataFrame:
    """Number of frequent seasonal patterns per threshold combo.

    Rows = maxPeriod %, one column per (minSeason, minDensity%) pair —
    the layout of the paper's Tables IX/X (and appendix XIII/XIV).
    With ``spark``, mining runs per-group via applyInPandas and the
    count is averaged over groups.
    """
    p = profile(dataset)
    min_seasons = min_seasons or MIN_SEASON_GRID[dataset]
    if spark is None:
        _, dseq = _dataset(p)
    else:
        from ..sparkio.mining import mine_groups
        from .jobs_util import symbols_df  # local import to avoid cycles

        sdf = symbols_df(spark, p, n_groups).cache()
    rows = []
    for mp in max_periods:
        row: dict = {"max_period_pct": mp}
        for ms in min_seasons:
            for md in min_densities:
                params = params_for(
                    p, max_period_pct=mp, min_density_pct=md, min_season=ms, max_k=max_k
                )
                if spark is None:
                    res = mine(dseq, params)
                    count = len(res.patterns)
                else:
                    out = mine_groups(
                        sdf, params, p.m, ignore_symbols=IGNORE_BACKGROUND
                    ).toPandas()
                    pat = out[out["kind"] == "pattern"]
                    count = round(len(pat) / max(1, n_groups))
                row[f"{ms}-{md}"] = count
        rows.append(row)
    return pd.DataFrame(rows)


# ------------------------------------------------------- Tables VII/XVII
def accuracy_table(
    dataset: str,
    *,
    min_seasons=None,
    min_densities=MIN_DENSITY_GRID,
    max_period_pct: float = 0.4,
    max_k: int = 3,
) -> pd.DataFrame:
    """A-STPM accuracy vs E-STPM (paper Table VII layout)."""
    p = profile(dataset)
    min_seasons = min_seasons or MIN_SEASON_GRID[dataset]
    symbols, dseq = _dataset(p)
    nmis = pair_min_nmis(symbols)
    rows = []
    for ms in min_seasons:
        row: dict = {"min_season": ms}
        for md in min_densities:
            params = params_for(
                p, max_period_pct=max_period_pct, min_density_pct=md,
                min_season=ms, max_k=max_k,
            )
            exact = mine(dseq, params)
            approx = mine_approx(symbols, dseq, params, pair_nmis=nmis)
            row[f"md{md}"] = round(accuracy(approx.mining, exact), 1)
        rows.append(row)
    return pd.DataFrame(rows)


# ---------------------------------------------------------- Tables XI/XV/XVI
def pruning_table(
    dataset: str,
    *,
    n_series_sweep=(30, 50, 70, 100),
    combos=((12, 0.5), (16, 0.75), (20, 1.0)),
) -> pd.DataFrame:
    """% time series and % events pruned by A-STPM (paper Table XI layout).

    The paper sweeps 2000..10000 synthetic attributes; one driver box
    scales that to 30..100 (DESIGN.md § scale substitutions). The NMI
    matrix is computed once per (dataset, n) and reused across combos.
    """
    rows = []
    for n in n_series_sweep:
        p = scaled_profile(dataset, n)
        symbols, dseq = _dataset(p)
        nmis = pair_min_nmis(symbols)
        row: dict = {"n_series": n}
        for ms, md in combos:
            params = params_for(
                p, max_period_pct=0.4, min_density_pct=md, min_season=ms
            )
            rep = screen_correlated(symbols, params, dseq.n_granules, pair_nmis=nmis)
            row[f"series_{ms}-{md}"] = round(rep.pct_series_pruned, 2)
            row[f"events_{ms}-{md}"] = round(pct_events_pruned(dseq, rep, params), 2)
        rows.append(row)
    return pd.DataFrame(rows)


# ------------------------------------------------------- Tables XII/XVIII
def accuracy_synthetic_table(
    dataset: str,
    *,
    n_series_sweep=(30, 50, 70, 100),
    combos=((12, 0.5), (16, 0.75), (20, 1.0)),
    max_k: int = 2,
) -> pd.DataFrame:
    """A-STPM accuracy on the scaled synthetic datasets (Table XII layout).

    ``max_k=2`` keeps the exact miner tractable at 100 series; accuracy
    is defined over the same pattern set for both miners.
    """
    rows = []
    for n in n_series_sweep:
        p = scaled_profile(dataset, n)
        symbols, dseq = _dataset(p)
        nmis = pair_min_nmis(symbols)
        row: dict = {"n_series": n}
        for ms, md in combos:
            params = params_for(
                p, max_period_pct=0.4, min_density_pct=md, min_season=ms, max_k=max_k
            )
            exact = mine(dseq, params)
            approx = mine_approx(symbols, dseq, params, pair_nmis=nmis)
            row[f"{ms}-{md}"] = round(accuracy(approx.mining, exact), 1)
        rows.append(row)
    return pd.DataFrame(rows)


# ------------------------------------------------------- Tables XIX/XX
def epsilon_table(
    datasets=("re", "sc", "inf", "hfm"), *, eps_values=(0, 1, 2), max_k: int = 3
) -> pd.DataFrame:
    """Tolerance-buffer sensitivity: #patterns and % loss vs eps=0."""
    rows = []
    for name in datasets:
        p = profile(name)
        _, dseq = _dataset(p)
        ms = MIN_SEASON_GRID[name][0]
        base = None
        for eps in eps_values:
            params = params_for(
                p, max_period_pct=0.4, min_density_pct=0.5, min_season=ms,
                max_k=max_k, epsilon=eps,
            )
            n = len(mine(dseq, params).patterns)
            if base is None:
                base = n
            loss = 0.0 if base == 0 else round(100.0 * (base - n) / base, 2)
            rows.append(dict(dataset=name, epsilon=eps, n_patterns=n, loss_pct=loss))
    return pd.DataFrame(rows)


# --------------------------------------------------- runtime comparison (Figs)
def _median_times(runners: dict, repeats: int) -> dict[str, float]:
    """Median wall time of each runner over ``repeats`` rounds.

    Every round calls each runner once, in alternating order (reversed
    every other round), so drift in the host's speed reaches all of them
    alike.
    """
    import statistics
    import time

    times: dict[str, list[float]] = {name: [] for name in runners}
    order = list(runners)
    for r in range(repeats):
        for name in order if r % 2 == 0 else reversed(order):
            t0 = time.perf_counter()
            runners[name]()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(ts) for name, ts in times.items()}


def runtime_comparison(
    dataset: str = "inf", *, repeats: int = 5, max_period_pct=0.4,
    min_density_pct=0.75, min_season=8, max_k: int = 3,
) -> pd.DataFrame:
    """Wall-clock + peak-memory comparison of A-STPM / E-STPM / APS-growth.

    Reproduces the *shape* of Figs. 7-10: A-STPM fastest and lightest,
    E-STPM faster/lighter than the baseline. Every time, the MI step's
    too, is the median of ``repeats`` rounds of :func:`_median_times`;
    memory is the tracemalloc peak of one more call.
    """
    import tracemalloc

    p = profile(dataset)
    symbols, dseq = _dataset(p)
    params = params_for(
        p, max_period_pct=max_period_pct, min_density_pct=min_density_pct,
        min_season=min_season, max_k=max_k,
    )
    # MI is computed once per dataset and reported as its own component,
    # exactly as the paper's stacked A-STPM bars do (Figs. 13-14)
    nmis = pair_min_nmis(symbols)
    runners = {
        "MI": lambda: pair_min_nmis(symbols),
        "A-STPM": lambda: mine_approx(symbols, dseq, params, pair_nmis=nmis),
        "E-STPM": lambda: mine(dseq, params),
        "APS-growth": lambda: mine_aps(dseq, params),
    }
    seconds = _median_times(runners, repeats)
    rows = []
    for name in list(runners)[1:]:
        # memory in a call of its own: tracemalloc slows every allocation,
        # so timed under it the allocation-heavy miners would look slower
        tracemalloc.start()
        runners[name]()
        _, peak_mem = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append(
            dict(
                method=name, seconds=round(seconds[name], 4),
                mi_seconds=round(seconds["MI"], 4) if name == "A-STPM" else 0.0,
                peak_mb=round(peak_mem / 2**20, 1),
            )
        )
    return pd.DataFrame(rows)


# ----------------------------------------------- pruning ablation (Figs 15-16)
def pruning_ablation(
    dataset: str = "inf", *, max_period_pct=0.4, min_density_pct=0.75,
    min_season=8, max_k: int = 3,
) -> pd.DataFrame:
    """Runtime of E-STPM pruning variants (NoPrune/Apriori/Trans/All).

    Each time is the median of 21 rounds of :func:`_median_times`.
    """
    p = profile(dataset)
    _, dseq = _dataset(p)
    params = params_for(
        p, max_period_pct=max_period_pct, min_density_pct=min_density_pct,
        min_season=min_season, max_k=max_k,
    )
    variants = {
        "NoPrune": dict(apriori=False, transitivity=False),
        "Apriori": dict(apriori=True, transitivity=False),
        "Trans": dict(apriori=False, transitivity=True),
        "All": dict(apriori=True, transitivity=True),
    }
    results = {name: mine(dseq, params, **kw) for name, kw in variants.items()}
    seconds = _median_times(
        {name: lambda kw=kw: mine(dseq, params, **kw) for name, kw in variants.items()},
        repeats=21,
    )
    return pd.DataFrame(
        [
            dict(
                variant=name, seconds=round(seconds[name], 4),
                n_patterns=len(res.patterns),
                n_candidates=res.stats["n_candidate_patterns"],
            )
            for name, res in results.items()
        ]
    )
