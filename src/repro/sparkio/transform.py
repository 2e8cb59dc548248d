"""Phase 1 as Catalyst plans: symbolize, map to granules, extract instances.

Input layout (long format): ``(group int, series string, t long,
value double)`` with ``t`` the fine-granularity position. All three
steps below are pure DataFrame transformations — no Python UDFs — so
they scale with Spark's shuffle machinery and are verifiable against
DuckDB SQL by ``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def symbolize_threshold(df: DataFrame, cuts: list[float], labels: list[str]) -> DataFrame:
    """Map ``value`` to a symbol via ascending cut points (Def. 3.7).

    Mirrors :func:`repro.core.symbolize.threshold_symbols`: value < cuts[0]
    -> labels[0], ..., value >= cuts[-1] -> labels[-1], and a NULL or NaN
    value -> a NULL symbol, a missing instant (Spark orders NaN above
    every number, so no cut alone keeps it from the top label).
    """
    if sorted(cuts) != list(cuts):
        raise ValueError("cuts must be ascending")
    if len(labels) != len(cuts) + 1:
        raise ValueError("need len(cuts)+1 labels")
    value = F.col("value")
    expr = F.lit(labels[-1])
    for cut, label in zip(reversed(cuts), reversed(labels[:-1])):
        expr = F.when(value < F.lit(cut), F.lit(label)).otherwise(expr)
    return df.withColumn("symbol", F.when(~(value.isNull() | F.isnan(value)), expr))


def with_granule(df: DataFrame, m: int) -> DataFrame:
    """Coarse granule position under the sequence mapping ``g: X_S ->_m H``."""
    return df.withColumn("granule", (F.col("t") / F.lit(m)).cast("long"))


def extract_instances(sym_df: DataFrame, m: int) -> DataFrame:
    """Event instances per (group, series, granule): gaps-and-islands.

    The run rule of :func:`repro.core.sequences.runs`: a NULL symbol is a
    missing instant, and a run ends at a symbol change, a coarse granule
    change or a missing instant (``t != lag(t) + 1``), so runs never span
    granules (Def. 3.12's per-granule grouping). Output: ``(group,
    series, granule, symbol, start, end)`` with inclusive fine endpoints.
    """
    df = with_granule(sym_df.where(F.col("symbol").isNotNull()), m)
    w = Window.partitionBy("group", "series").orderBy("t")
    prev_t = F.lag("t").over(w)
    run_break = (
        prev_t.isNull()
        | (F.col("t") != prev_t + 1)
        | (F.col("symbol") != F.lag("symbol").over(w))
        | (F.col("granule") != F.lag("granule").over(w))
    ).cast("int")
    df = df.withColumn("run_break", run_break)
    df = df.withColumn(
        "run_id", F.sum("run_break").over(w.rowsBetween(Window.unboundedPreceding, 0))
    )
    return (
        df.groupBy("group", "series", "granule", "symbol", "run_id")
        .agg(F.min("t").alias("start"), F.max("t").alias("end"))
        .drop("run_id")
    )


def dseq_stats(instances: DataFrame) -> DataFrame:
    """Table-V style characteristics per group.

    ``n_seq`` = granules with at least one instance, ``n_series`` /
    ``n_events`` = distinct counts, ``ins_per_seq`` = average instances
    per sequence (the paper's #ins./seq.).
    """
    return (
        instances.withColumn("event", F.concat_ws(":", "series", "symbol"))
        .groupBy("group")
        .agg(
            F.countDistinct("granule").alias("n_seq"),
            F.countDistinct("series").alias("n_series"),
            F.countDistinct("event").alias("n_events"),
            (F.count(F.lit(1)) / F.countDistinct("granule")).alias("ins_per_seq"),
        )
    )
