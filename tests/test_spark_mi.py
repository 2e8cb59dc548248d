"""DataFrame-side MI vs DuckDB (joint counts) and core.mi (NMI values)."""
import pytest

from repro.core.mi import nmi
from repro.datasets import gen_symbols
from repro.oracle import assert_equivalent
from repro.sparkio.mi_spark import nmi_table, pair_joint_counts

from .spark_helpers import SYM_SCHEMA, symbols_long_pdf, tiny_profile

pytestmark = pytest.mark.spark

PROFILE = tiny_profile()


@pytest.fixture(scope="module")
def sym_df(spark):
    return spark.createDataFrame(symbols_long_pdf(PROFILE, n_groups=2)).cache()


def test_joint_counts_match_duckdb(sym_df):
    out = pair_joint_counts(sym_df)
    assert_equivalent(
        out,
        """
        SELECT a."group", a.series AS sx, b.series AS sy,
               a.symbol AS symx, b.symbol AS symy, COUNT(*) AS n
        FROM sym a JOIN sym b
          ON a."group" = b."group" AND a.t = b.t AND a.series < b.series
        GROUP BY a."group", sx, sy, symx, symy
        """,
        sym=sym_df.toPandas(),
    )


def test_nmi_matches_core(sym_df):
    table = nmi_table(sym_df)
    for g in range(2):
        symbols = gen_symbols(PROFILE, g)
        sub = table[table["group"] == g]
        assert len(sub) == 6 * 5 // 2
        for row in sub.itertuples(index=False):
            expect_xy = nmi(symbols[row.sx], symbols[row.sy])
            expect_yx = nmi(symbols[row.sy], symbols[row.sx])
            assert row.nmi_xy == pytest.approx(expect_xy, abs=1e-9)
            assert row.nmi_yx == pytest.approx(expect_yx, abs=1e-9)
            assert row.min_nmi == pytest.approx(min(expect_xy, expect_yx), abs=1e-9)


def test_copy_pair_high_noise_pair_low(sym_df):
    table = nmi_table(sym_df)
    sub = table[table["group"] == 0].set_index(["sx", "sy"])
    assert sub.loc[("cpy", "drv")]["min_nmi"] > 0.9
    assert sub.loc[("drv", "nz")]["min_nmi"] < 0.2


def _holed_frame(spark, *, absent: bool):
    """a = 0,1,0,1,0,1 and b = a with t=2 missing: a NULL symbol, or no row."""
    a = ["0", "1", "0", "1", "0", "1"]
    rows = [(0, "a", t, s) for t, s in enumerate(a)]
    rows += [(0, "b", t, None if t == 2 else s) for t, s in enumerate(a) if not (absent and t == 2)]
    return spark.createDataFrame(rows, SYM_SCHEMA)


@pytest.mark.parametrize("absent", [False, True], ids=["null", "absent"])
def test_holed_series_is_rejected_by_name(spark, absent):
    """As ``pair_min_nmis`` does, a series missing an instant is refused
    rather than counted (a NULL used to overwrite the last symbol's count)."""
    with pytest.raises(ValueError, match=r"series b\b"):
        nmi_table(_holed_frame(spark, absent=absent))
