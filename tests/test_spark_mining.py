"""Per-partition mining through applyInPandas vs the pure-Python miners."""
import json

import pytest

from repro.baseline.aps import mine_aps
from repro.core.astpm import mine_approx
from repro.core.estpm import mine
from repro.core.hlh import render_pattern
from repro.core.seasonal import STPMParams
from repro.core.sequences import build_dseq
from repro.datasets import gen_symbols
from repro.experiments.jobs_util import symbols_long_pdf
from repro.sparkio.mining import mine_groups

from .spark_helpers import SYM_SCHEMA, tiny_profile

pytestmark = pytest.mark.spark

PARAMS = STPMParams(
    max_period=3, min_density=3, dist_min=3, dist_max=15, min_season=2, max_k=3
)
PROFILE = tiny_profile()


@pytest.fixture(scope="module")
def sym_df(spark):
    return spark.createDataFrame(symbols_long_pdf(PROFILE, n_groups=3)).cache()


def pure_result(group: int, miner: str):
    symbols = gen_symbols(PROFILE, group)
    dseq = build_dseq(symbols, PROFILE.m)
    if miner == "estpm":
        return mine(dseq, PARAMS)
    if miner == "astpm":
        return mine_approx(symbols, dseq, PARAMS).mining
    return mine_aps(dseq, PARAMS)


def rows_to_sets(pdf, group):
    sub = pdf[pdf["group"] == group]
    singles = set(sub[sub["kind"] == "single"]["pattern"])
    patterns = set(sub[sub["kind"] == "pattern"]["pattern"])
    return singles, patterns


@pytest.mark.parametrize("miner", ["estpm", "astpm", "aps"])
def test_spark_matches_pure_python(sym_df, miner):
    out = mine_groups(sym_df, PARAMS, PROFILE.m, miner=miner).toPandas()
    for group in range(3):
        res = pure_result(group, miner)
        singles, patterns = rows_to_sets(out, group)
        assert singles == set(res.singles), f"group {group} singles"
        expect_patterns = {render_pattern(p) for p in res.patterns}
        assert patterns == expect_patterns, f"group {group} patterns"


def test_result_metadata_consistent(sym_df):
    out = mine_groups(sym_df, PARAMS, PROFILE.m).toPandas()
    res = pure_result(0, "estpm")
    sub = out[(out["group"] == 0) & (out["kind"] == "pattern")]
    rendered = {render_pattern(p): (p, v) for p, v in res.patterns.items()}
    assert set(sub["pattern"]) == set(rendered)
    for row in sub.itertuples(index=False):
        pattern, v = rendered[row.pattern]
        assert row.sup_size == len(v.sup)
        assert row.n_seasons == v.n_seasons
        starts = json.loads(row.season_starts)
        assert starts == [s[0] for s in v.seasons]
        assert row.k * (row.k - 1) // 2 == len(pattern)


def test_groups_are_independent(sym_df):
    """Each group mines only its own data (partition isolation)."""
    out = mine_groups(sym_df, PARAMS, PROFILE.m).toPandas()
    per_group = out.groupby("group").size()
    assert len(per_group) == 3
    assert (per_group > 0).all()


def test_invalid_miner_rejected(sym_df):
    with pytest.raises(ValueError):
        mine_groups(sym_df, PARAMS, PROFILE.m, miner="nope")


def test_ignore_symbols_drops_background(sym_df):
    out = mine_groups(
        sym_df, PARAMS, PROFILE.m, ignore_symbols=frozenset({"0"})
    ).toPandas()
    assert not out["pattern"].str.contains(":0").any()


def _holed(pdf, symbols, hole):
    """Drop (``"missing"``) or NULL (``"null"``) some rows of group 0."""
    if hole == "missing":
        mask = (pdf["series"] == "drv") & (pdf["t"] == 5)
        symbols["drv"][5] = None
        return pdf[~mask]
    mask = (pdf["series"] == "nz") & (pdf["symbol"] == "0")
    symbols["nz"] = [None if x == "0" else x for x in symbols["nz"]]
    return pdf.assign(symbol=pdf["symbol"].where(~mask, None))


@pytest.mark.parametrize("hole", ["missing", "null"])
@pytest.mark.parametrize("miner", ["estpm", "aps"])
def test_positions_come_from_t(spark, miner, hole):
    """A missing instant shifts nothing and a NULL symbol is no event."""
    symbols = gen_symbols(PROFILE, 0)
    pdf = _holed(symbols_long_pdf(PROFILE), symbols, hole)
    out = mine_groups(
        spark.createDataFrame(pdf, SYM_SCHEMA), PARAMS, PROFILE.m, miner=miner
    ).toPandas()
    dseq = build_dseq(symbols, PROFILE.m)
    res = mine(dseq, PARAMS) if miner == "estpm" else mine_aps(dseq, PARAMS)
    singles, patterns = rows_to_sets(out, 0)
    assert singles == set(res.singles)
    assert patterns == {render_pattern(p) for p in res.patterns}
