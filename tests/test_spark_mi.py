"""DataFrame-side MI vs core.mi, and A-STPM's input contract on Spark."""
import pytest

from repro.core.mi import pair_min_nmis
from repro.core.seasonal import STPMParams
from repro.datasets import gen_symbols
from repro.experiments.jobs_util import symbols_long_pdf
from repro.sparkio.mi_spark import nmi_table
from repro.sparkio.mining import mine_groups

from .mi_oracle import nmi
from .spark_helpers import SYM_SCHEMA, tiny_profile

pytestmark = pytest.mark.spark

PROFILE = tiny_profile()


@pytest.fixture(scope="module")
def sym_df(spark):
    return spark.createDataFrame(symbols_long_pdf(PROFILE, n_groups=2)).cache()


def test_nmi_matches_core(sym_df):
    table = nmi_table(sym_df)
    for g in range(2):
        symbols = gen_symbols(PROFILE, g)
        min_nmis = pair_min_nmis(symbols)
        sub = table[table["group"] == g]
        assert len(sub) == 6 * 5 // 2
        for row in sub.itertuples(index=False):
            expect_xy = nmi(symbols[row.sx], symbols[row.sy])
            expect_yx = nmi(symbols[row.sy], symbols[row.sx])
            assert row.nmi_xy == pytest.approx(expect_xy, abs=1e-9)
            assert row.nmi_yx == pytest.approx(expect_yx, abs=1e-9)
            assert row.min_nmi == pytest.approx(min(expect_xy, expect_yx), abs=1e-9)
            assert row.min_nmi == min_nmis[frozenset((row.sx, row.sy))]


def test_copy_pair_high_noise_pair_low(sym_df):
    table = nmi_table(sym_df)
    sub = table[table["group"] == 0].set_index(["sx", "sy"])
    assert sub.loc[("cpy", "drv")]["min_nmi"] > 0.9
    assert sub.loc[("drv", "nz")]["min_nmi"] < 0.2


def test_three_symbols_with_a_lacking_series(spark):
    """Joint counts are padded per series: ``b`` lacks ``z`` and ``c`` is
    constant, and Spark still equals ``pair_min_nmis`` bit for bit."""
    sym = {
        "a": list("xyzxyzzyxx"),
        "b": list("xyyxyxxyxy"),
        "c": list("zzzzzzzzzz"),
    }
    rows = [(0, s, t, v) for s, seq in sym.items() for t, v in enumerate(seq)]
    table = nmi_table(spark.createDataFrame(rows, SYM_SCHEMA))
    min_nmis = pair_min_nmis(sym)
    assert len(table) == 3
    for row in table.itertuples(index=False):
        assert row.min_nmi == min_nmis[frozenset((row.sx, row.sy))]
        assert row.min_nmi == min(row.nmi_xy, row.nmi_yx)
        assert row.nmi_xy == pytest.approx(nmi(sym[row.sx], sym[row.sy]), abs=1e-12)
        assert row.nmi_yx == pytest.approx(nmi(sym[row.sy], sym[row.sx]), abs=1e-12)
    assert table.set_index(["sx", "sy"]).loc[("a", "b"), "min_nmi"] > 0


def _holed_frame(spark, *, absent: bool):
    """a = 0,1,0,1,0,1 and b = a with t=2 missing: a NULL symbol, or no row."""
    a = ["0", "1", "0", "1", "0", "1"]
    rows = [(0, "a", t, s) for t, s in enumerate(a)]
    rows += [(0, "b", t, None if t == 2 else s) for t, s in enumerate(a) if not (absent and t == 2)]
    return spark.createDataFrame(rows, SYM_SCHEMA)


PARAMS = STPMParams(max_period=1, min_density=1, dist_min=1, dist_max=4, min_season=1)

#: every A-STPM entry point on Spark, run to the end
ASTPM_ENTRY_POINTS = {
    "nmi_table": nmi_table,
    "mine_groups": lambda df: mine_groups(df, PARAMS, 2, miner="astpm").toPandas(),
}


@pytest.mark.parametrize("entry", list(ASTPM_ENTRY_POINTS))
@pytest.mark.parametrize("absent", [False, True], ids=["null", "absent"])
def test_holed_series_is_rejected_by_name(spark, absent, entry):
    """As ``pair_min_nmis`` does, a series missing an instant is refused on
    the driver with a ``ValueError`` naming it, not counted (a NULL used to
    overwrite the last symbol's count) nor left to fail inside a task."""
    with pytest.raises(ValueError, match=r"series b\b"):
        ASTPM_ENTRY_POINTS[entry](_holed_frame(spark, absent=absent))
