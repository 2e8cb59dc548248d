"""Per-partition mining through applyInPandas vs the pure-Python miners."""
import json

import pytest

from repro.baseline.aps import mine_aps
from repro.core.astpm import mine_approx
from repro.core.estpm import mine
from repro.core.seasonal import STPMParams
from repro.core.sequences import build_dseq
from repro.datasets import gen_symbols
from repro.sparkio.mining import mine_groups, screen_stats

from .spark_helpers import SYM_SCHEMA, symbols_long_pdf, tiny_profile

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
        expect_patterns = {
            " ; ".join(f"{a} {r} {b}" for r, a, b in p) for p in res.patterns
        }
        assert patterns == expect_patterns, f"group {group} patterns"


def test_result_metadata_consistent(sym_df):
    out = mine_groups(sym_df, PARAMS, PROFILE.m).toPandas()
    res = pure_result(0, "estpm")
    sub = out[(out["group"] == 0) & (out["kind"] == "pattern")]
    for row in sub.itertuples(index=False):
        key = tuple(
            tuple(part.split(" ")[i] for i in (1, 0, 2))
            for part in row.pattern.split(" ; ")
        )
        # rebuild (rel, a, b) triples from the rendered string
        key = tuple(
            (rel, a, b)
            for part in row.pattern.split(" ; ")
            for a, rel, b in [part.split(" ")]
        )
        v = res.patterns[key]
        assert row.sup_size == len(v.sup)
        assert row.n_seasons == v.n_seasons
        starts = json.loads(row.season_starts)
        assert starts == [s[0] for s in v.seasons]
        assert row.k * (row.k - 1) // 2 == len(key)


def test_groups_are_independent(sym_df):
    """Each group mines only its own data (partition isolation)."""
    out = mine_groups(sym_df, PARAMS, PROFILE.m).toPandas()
    per_group = out.groupby("group").size()
    assert len(per_group) == 3
    assert (per_group > 0).all()


def test_invalid_miner_rejected(sym_df):
    with pytest.raises(ValueError):
        mine_groups(sym_df, PARAMS, PROFILE.m, miner="nope")


def test_screen_stats(sym_df):
    out = screen_stats(sym_df, PARAMS, PROFILE.m).toPandas()
    assert len(out) == 3
    for row in out.itertuples(index=False):
        assert row.n_series == 6
        assert 0 <= row.pct_series_pruned <= 100
        assert 0 <= row.pct_events_pruned <= 100
        # the noise series must be screened out by MI
        assert row.n_series_pruned >= 1


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
    assert patterns == {" ; ".join(f"{a} {r} {b}" for r, a, b in p) for p in res.patterns}
