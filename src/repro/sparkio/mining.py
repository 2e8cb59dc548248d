"""Phase 2 on Spark: partition by replica group, mine per partition.

``mine_groups`` groups the symbolized fine-granularity DataFrame by the
``group`` key and runs the chosen miner (E-STPM / A-STPM / APS-growth
baseline) inside ``applyInPandas``, so each partition executes the full
pruning machinery locally — the layering the repro band prescribes for
this paper. The returned DataFrame has one row per frequent seasonal
single event or pattern.
"""
from __future__ import annotations

import json
from typing import Iterable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..core.astpm import mine_approx
from ..core.estpm import MiningResult, mine
from ..core.hlh import render_pattern
from ..core.seasonal import STPMParams
from ..core.sequences import build_dseq
from ..baseline.aps import mine_aps

RESULT_SCHEMA = T.StructType(
    [
        T.StructField("group", T.IntegerType()),
        T.StructField("kind", T.StringType()),  # single | pattern
        T.StructField("pattern", T.StringType()),
        T.StructField("k", T.IntegerType()),
        T.StructField("sup_size", T.IntegerType()),
        T.StructField("n_seasons", T.IntegerType()),
        T.StructField("season_starts", T.StringType()),  # json list of positions
    ]
)

MINERS = ("estpm", "astpm", "aps")


def _result_rows(group: int, res: MiningResult) -> Iterable[dict]:
    for ev, v in sorted(res.singles.items()):
        yield dict(
            group=group, kind="single", pattern=ev, k=1,
            sup_size=v.bits.bit_count(), n_seasons=v.n_seasons,
            season_starts=json.dumps([s[0] for s in v.seasons]),
        )
    for pattern, v in sorted(res.patterns.items()):
        yield dict(
            group=group, kind="pattern", pattern=render_pattern(pattern),
            k=len({ev for _, first, second in pattern for ev in (first, second)}),
            sup_size=v.bits.bit_count(), n_seasons=v.n_seasons,
            season_starts=json.dumps([s[0] for s in v.seasons]),
        )


def _symbols_from_pdf(pdf: pd.DataFrame) -> dict[str, list[str | None]]:
    """Series -> symbol at each instant ``t`` of the group (``None`` if missing)."""
    n = int(pdf["t"].max()) + 1
    out: dict[str, list[str | None]] = {}
    for series, sub in pdf.groupby("series"):
        symbols = np.full(n, None, dtype=object)
        symbols[sub["t"].to_numpy()] = sub["symbol"].to_numpy()
        out[str(series)] = symbols.tolist()
    return out


def _reject_holes(sym_df: DataFrame) -> None:
    """A-STPM's input contract, checked on the driver before any task runs.

    MI needs complete, aligned series, as in
    :func:`repro.core.mi.pair_min_nmis`: a NULL symbol or an absent row at
    any instant ``0..max(t)`` of its group raises a ``ValueError`` naming
    the series.
    """
    per_series = (
        sym_df.groupBy("group", "series")
        .agg(F.count("symbol").alias("n"), F.max("t").alias("last"))
        .toPandas()
    )
    n_instants = per_series.groupby("group")["last"].transform("max") + 1
    holed = per_series[per_series["n"] < n_instants]
    if len(holed):
        raise ValueError(
            "series with missing instants (NULL or absent rows): "
            + ", ".join(f"series {r.series} in group {r.group}" for r in holed.itertuples())
        )


def mine_groups(
    sym_df: DataFrame,
    params: STPMParams,
    m: int,
    *,
    miner: str = "estpm",
    ignore_symbols: frozenset = frozenset(),
) -> DataFrame:
    """Run the miner per group over ``(group, series, t, symbol)`` rows.

    A-STPM rejects a series with a missing instant (``_reject_holes``).
    """
    if miner not in MINERS:
        raise ValueError(f"miner must be one of {MINERS}, got {miner!r}")
    if miner == "astpm":
        _reject_holes(sym_df)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        group = int(pdf["group"].iloc[0])
        symbols = _symbols_from_pdf(pdf)
        dseq = build_dseq(symbols, m, ignore_symbols=ignore_symbols)
        if miner == "estpm":
            res = mine(dseq, params)
        elif miner == "astpm":
            res = mine_approx(symbols, dseq, params).mining
        else:
            res = mine_aps(dseq, params)
        rows = list(_result_rows(group, res))
        return pd.DataFrame(rows, columns=[f.name for f in RESULT_SCHEMA.fields])

    return sym_df.groupBy("group").applyInPandas(fn, RESULT_SCHEMA)
