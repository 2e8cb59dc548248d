"""Shared helpers for the Spark-layer tests: a tiny profile, the symbol schema."""
from pyspark.sql import types as T

from repro.datasets import DatasetProfile, Family, SeriesSpec

#: the long-format symbol frame, stated so NULL symbols need no inference
SYM_SCHEMA = T.StructType(
    [
        T.StructField("group", T.LongType()),
        T.StructField("series", T.StringType()),
        T.StructField("t", T.LongType()),
        T.StructField("symbol", T.StringType()),
    ]
)


def tiny_profile(seed: int = 0, n_granules: int = 48) -> DatasetProfile:
    """A 6-series, 48-granule profile small enough for fast Spark tests."""
    fam = Family("A", cycle=12, window=4, p_active=0.95)
    series = [
        SeriesSpec("drv", "driver", "A"),
        SeriesSpec("cpy", "copy", "A", flip=0.0),
        SeriesSpec("con", "contains", "A", p_active=0.9),
        SeriesSpec("ovl", "overlaps", "A", p_active=0.85),
        SeriesSpec("fol", "follows", "A", p_active=0.8),
        SeriesSpec("nz", "noise", None, p_stray=0.15),
    ]
    return DatasetProfile(
        name="tiny",
        n_granules=n_granules,
        m=4,
        dist_min=3,
        dist_max=15,
        families={"A": fam},
        series=series,
        seed=seed,
    )
