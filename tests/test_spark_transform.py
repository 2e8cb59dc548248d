"""Phase-1 DataFrame transforms, oracle-checked against DuckDB SQL."""
import math
import random

import pandas as pd
import pytest
from pyspark.sql import types as T

from repro.core.sequences import runs
from repro.core.symbolize import threshold_symbols
from repro.datasets import CUT, gen_values_pdf
from repro.experiments.jobs_util import symbols_long_pdf
from repro.oracle import assert_equivalent
from repro.sparkio.transform import (
    dseq_stats,
    extract_instances,
    symbolize_threshold,
    with_granule,
)

from .spark_helpers import SYM_SCHEMA, tiny_profile

pytestmark = pytest.mark.spark


#: the long-format value frame, stated so NULL values need no inference
VALUE_SCHEMA = T.StructType(
    [
        T.StructField("group", T.LongType()),
        T.StructField("series", T.StringType()),
        T.StructField("t", T.LongType()),
        T.StructField("value", T.DoubleType()),
    ]
)

#: missing values put into the generated frame: NaN, and None (NULL on Spark)
MISSING_VALUES = {
    (0, "drv", 3): math.nan,
    (0, "drv", 4): None,
    (1, "nz", 0): None,
    (1, "con", 7): math.nan,
}


@pytest.fixture(scope="module")
def values_rows():
    """``(group, series, t, value)`` rows in ``t`` order per series."""
    return [
        (g, s, t, MISSING_VALUES.get((g, s, t), v))
        for g, s, t, v in gen_values_pdf(tiny_profile(), n_groups=2)
        .sort_values(["group", "series", "t"])
        .itertuples(index=False)
    ]


@pytest.fixture(scope="module")
def values_df(spark, values_rows):
    return spark.createDataFrame(values_rows, VALUE_SCHEMA).cache()


@pytest.fixture(scope="module")
def sym_df(spark):
    pdf = symbols_long_pdf(tiny_profile(), n_groups=2)
    return spark.createDataFrame(pdf).cache()


class TestSymbolize:
    def test_matches_duckdb(self, values_df):
        out = symbolize_threshold(values_df, [CUT], ["0", "1"])
        assert_equivalent(
            out.select("group", "series", "t", "symbol"),
            f"""
            SELECT "group", series, t,
                   CASE WHEN value IS NULL OR isnan(value) THEN NULL
                        WHEN value < {CUT} THEN '0' ELSE '1' END AS symbol
            FROM vals
            """,
            vals=values_df,
        )

    def test_matches_pure_python(self, values_df, values_rows):
        out = (
            symbolize_threshold(values_df, [CUT], ["0", "1"])
            .select("group", "series", "t", "symbol")
            .toPandas()
            .sort_values(["group", "series", "t"])
        )
        for (g, s), sub in out.groupby(["group", "series"]):
            values = [v for g2, s2, _, v in values_rows if (g2, s2) == (g, s)]
            expect = threshold_symbols(values, [CUT], alphabet=["0", "1"])
            assert sub["symbol"].tolist() == expect
        assert out["symbol"].isna().sum() == len(MISSING_VALUES)

    def test_multilevel_cuts(self, spark):
        pdf = pd.DataFrame(
            {"group": [0] * 3, "series": ["a"] * 3, "t": [0, 1, 2], "value": [0.0, 5.0, 9.0]}
        )
        out = symbolize_threshold(
            spark.createDataFrame(pdf), [2.0, 8.0], ["L", "M", "H"]
        )
        got = [r.symbol for r in out.orderBy("t").collect()]
        assert got == ["L", "M", "H"]

    def test_label_count_validation(self, values_df):
        with pytest.raises(ValueError):
            symbolize_threshold(values_df, [1.0], ["only"])

    def test_descending_cuts_rejected_like_pure_python(self, spark):
        """Cuts [5, 3] would map 1, 4, 6 to lo, lo, hi; both paths refuse them."""
        pdf = pd.DataFrame(
            {"group": [0] * 3, "series": ["a"] * 3, "t": [0, 1, 2], "value": [1.0, 4.0, 6.0]}
        )
        labels = ["lo", "mid", "hi"]
        with pytest.raises(ValueError, match="cuts must be ascending"):
            threshold_symbols(pdf["value"].tolist(), [5.0, 3.0], alphabet=labels)
        with pytest.raises(ValueError, match="cuts must be ascending"):
            symbolize_threshold(spark.createDataFrame(pdf), [5.0, 3.0], labels)


class TestGranule:
    def test_with_granule(self, sym_df):
        out = with_granule(sym_df, 4).select("t", "granule").distinct().toPandas()
        assert (out["granule"] == out["t"] // 4).all()


class TestExtractInstances:
    def test_matches_duckdb_gaps_and_islands(self, sym_df):
        out = extract_instances(sym_df, 4)
        pdf = sym_df.toPandas()
        assert_equivalent(
            out,
            """
            WITH runs AS (
              SELECT "group", series, t, symbol, t // 4 AS granule,
                     CASE WHEN lag(t) OVER w IS NULL
                            OR lag(t) OVER w <> t - 1
                            OR lag(symbol) OVER w <> symbol
                            OR lag(t // 4) OVER w <> t // 4
                          THEN 1 ELSE 0 END AS brk
              FROM sym
              WHERE symbol IS NOT NULL
              WINDOW w AS (PARTITION BY "group", series ORDER BY t)
            ), numbered AS (
              SELECT *, SUM(brk) OVER
                    (PARTITION BY "group", series ORDER BY t) AS run_id
              FROM runs
            )
            SELECT "group", series, granule, symbol,
                   MIN(t) AS start, MAX(t) AS "end"
            FROM numbered
            GROUP BY "group", series, granule, symbol, run_id
            """,
            sym=pdf,
        )

    def test_matches_pure_python_rle(self, sym_df):
        from repro.core.sequences import build_dseq

        out = extract_instances(sym_df, 4).toPandas()
        pdf = sym_df.toPandas()
        for g, sub in pdf.groupby("group"):
            symbols = {
                s: ss.sort_values("t")["symbol"].tolist()
                for s, ss in sub.groupby("series")
            }
            dseq = build_dseq(symbols, 4)
            expect = {
                (i.series, h, i.symbol, i.start, i.end)
                for h in range(dseq.n_granules)
                for i in dseq.instances(h)
            }
            got = {
                (r.series, r.granule, r.symbol, r.start, r.end)
                for r in out[out["group"] == g].itertuples(index=False)
            }
            assert got == expect

    @staticmethod
    def _instances(spark, rows, m):
        pdf = pd.DataFrame(rows, columns=["group", "series", "t", "symbol"])
        out = extract_instances(spark.createDataFrame(pdf, SYM_SCHEMA), m).toPandas()
        return sorted(
            (r.series, r.symbol, r.start, r.end) for r in out.itertuples(index=False)
        )

    def test_missing_instant_splits_run(self, spark):
        rows = [(0, "a", t, "1") for t in (0, 1, 3, 4)]
        assert self._instances(spark, rows, 100) == [("a", "1", 0, 1), ("a", "1", 3, 4)]

    def test_null_symbol_is_a_missing_instant(self, spark):
        assert self._instances(spark, [(0, "a", 0, None)], 4) == []
        rows = [(0, "a", t, None if t == 2 else "1") for t in range(5)]
        assert self._instances(spark, rows, 100) == [("a", "1", 0, 1), ("a", "1", 3, 4)]

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_holed_shuffled_frames_match_python_runs(self, spark, m):
        syms = {
            "a": ["1", "1", None, "1", "0", "0", "0", "1", None, None, "1", "1"],
            "b": [None, "0", "0", "0", "0", "1", "1", "1", "1", "0", "0", None],
        }
        missing = {("a", 8), ("b", 0), ("b", 6)}  # absent rows; the rest are NULL
        rows = [
            (0, s, t, sym)
            for s, seq in syms.items()
            for t, sym in enumerate(seq)
            if (s, t) not in missing
        ]
        random.Random(m).shuffle(rows)
        expect = sorted(
            (s, sym, start, end)
            for s, seq in syms.items()
            for start, end, sym in runs(
                [None if (s, t) in missing else x for t, x in enumerate(seq)], m
            )
        )
        assert self._instances(spark, rows, m) == expect

    def test_runs_never_span_granules(self, sym_df):
        out = extract_instances(sym_df, 4).toPandas()
        assert ((out["start"] // 4) == (out["end"] // 4)).all()
        assert (out["granule"] == out["start"] // 4).all()


class TestSupportsAndStats:
    def test_dseq_stats_shape(self, sym_df):
        stats = dseq_stats(extract_instances(sym_df, 4)).toPandas()
        assert len(stats) == 2  # one row per group
        row = stats[stats["group"] == 0].iloc[0]
        assert row["n_series"] == 6
        assert 6 <= row["n_events"] <= 12
        assert row["n_seq"] <= 48
        assert row["ins_per_seq"] > 1
