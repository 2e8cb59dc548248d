"""DataFrame-side mutual information (Section V in Catalyst terms).

The joint symbol distribution of every series pair is a self-join on
``(group, t)`` followed by a count aggregation — all shuffle-side work.
The (tiny) per-pair NMI finalization happens on the driver with the
same kernel as :func:`repro.core.mi.pair_min_nmis`, so the two paths
can be diffed in tests, and the joint-count DataFrame itself is
oracle-checked against DuckDB SQL.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.mi import nmi_from_joint_counts


def pair_joint_counts(sym_df: DataFrame) -> DataFrame:
    """Joint symbol counts for all ordered series pairs (x < y).

    Input ``(group, series, t, symbol)``; output
    ``(group, sx, sy, symx, symy, n)``.
    """
    a = sym_df.select(
        "group", F.col("series").alias("sx"), "t", F.col("symbol").alias("symx")
    )
    b = sym_df.select(
        "group", F.col("series").alias("sy"), "t", F.col("symbol").alias("symy")
    )
    joined = a.join(b, on=["group", "t"]).where(F.col("sx") < F.col("sy"))
    return joined.groupBy("group", "sx", "sy", "symx", "symy").agg(
        F.count(F.lit(1)).alias("n")
    )


def _reject_holes(sym_df: DataFrame) -> None:
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


def nmi_table(sym_df: DataFrame) -> pd.DataFrame:
    """Per-pair NMI in both directions, finalized on the driver.

    Returns a pandas frame ``(group, sx, sy, nmi_xy, nmi_yx, min_nmi)``.
    The driver-side reduction is one :func:`nmi_from_joint_counts` call
    over a ``(pairs, |X|, |Y|)`` count array — trivial next to the
    joint-count shuffle.

    As in :func:`repro.core.mi.pair_min_nmis`, every series must be
    complete: a NULL symbol or an absent row at any instant ``0..max(t)``
    of its group raises a ``ValueError`` naming the series.
    """
    _reject_holes(sym_df)
    counts = pair_joint_counts(sym_df).toPandas()
    pairs = counts.groupby(["group", "sx", "sy"])
    out = pairs.size().index.to_frame(index=False)
    x, x_levels = pd.factorize(counts["symx"])
    y, y_levels = pd.factorize(counts["symy"])
    joint = np.zeros((len(out), len(x_levels), len(y_levels)))
    joint[pairs.ngroup().to_numpy(), x, y] = counts["n"].to_numpy()
    out["nmi_xy"], out["nmi_yx"] = nmi_from_joint_counts(joint)
    out["min_nmi"] = np.minimum(out["nmi_xy"], out["nmi_yx"])
    return out
