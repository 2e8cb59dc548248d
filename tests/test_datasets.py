"""Synthetic dataset generators: determinism, structure, profile shapes."""
import numpy as np
import pytest

from repro.core.estpm import mine
from repro.core.hlh import render_pattern
from repro.core.seasonal import STPMParams
from repro.core.sequences import build_dseq
from repro.datasets import (
    CUT,
    OFF_MEAN,
    ON_MEAN,
    SHAPES,
    gen_symbols,
    gen_values_pdf,
    profile,
    scaled_profile,
    series_activity,
)


class TestProfiles:
    @pytest.mark.parametrize(
        "name,n_granules,n_series,dist",
        [
            ("re", 1460, 20, (90, 270)),
            ("sc", 1249, 14, (90, 270)),
            ("inf", 608, 25, (30, 90)),
            ("hfm", 730, 24, (30, 90)),
        ],
    )
    def test_shapes_match_paper_table_v(self, name, n_granules, n_series, dist):
        p = profile(name)
        assert p.n_granules == n_granules
        assert p.n_series == n_series
        assert (p.dist_min, p.dist_max) == dist

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            profile("nope")

    def test_season_gap_geometry_fits_dist_interval(self):
        """Every family's inter-season gap must fall inside distInterval."""
        for name in ("re", "sc", "inf", "hfm"):
            p = profile(name)
            for fam in p.families.values():
                gap = fam.cycle - fam.window
                assert p.dist_min <= gap <= p.dist_max, (name, fam)


class TestGeneration:
    def test_deterministic(self):
        p = profile("inf")
        assert gen_symbols(p, 0) == gen_symbols(p, 0)

    def test_groups_differ(self):
        p = profile("inf")
        assert gen_symbols(p, 0) != gen_symbols(p, 1)

    def test_symbol_length(self):
        p = profile("sc")
        syms = gen_symbols(p)
        assert all(len(s) == p.n_granules * p.m for s in syms.values())
        assert all(set(s) <= {"0", "1"} for s in syms.values())

    def test_driver_shape_in_active_granules(self):
        p = profile("re")
        act = series_activity(p)
        syms = gen_symbols(p)
        drv = syms["wind_drv"]
        lo, hi = SHAPES["driver"]
        h = int(np.nonzero(act["wind_drv"])[0][0])
        block = drv[h * p.m : (h + 1) * p.m]
        assert block == ["1" if lo <= t <= hi else "0" for t in range(p.m)]

    def test_copy_tracks_driver(self):
        p = profile("re")
        act = series_activity(p)
        agree = (act["wind_drv"] == act["wind_cpy"]).mean()
        assert agree > 0.98

    def test_values_separate_on_off(self):
        p = profile("inf")
        pdf = gen_values_pdf(p, n_groups=1)
        sub = pdf[pdf["series"] == "flu_drv"].sort_values("t")
        syms = gen_symbols(p)["flu_drv"]
        on_vals = sub["value"].to_numpy()[np.array(syms) == "1"]
        off_vals = sub["value"].to_numpy()[np.array(syms) == "0"]
        assert abs(on_vals.mean() - ON_MEAN) < 0.5
        assert abs(off_vals.mean() - OFF_MEAN) < 0.5
        # thresholding recovers symbols almost everywhere
        recovered = np.where(sub["value"].to_numpy() >= CUT, "1", "0")
        assert (recovered == np.array(syms)).mean() > 0.995


class TestScaled:
    def test_series_count(self):
        p = scaled_profile("re", 40)
        assert p.n_series == 40

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            scaled_profile("re", 5)

    def test_prunable_share_declines_with_scale(self):
        prunable_kinds = ("noise", "weak", "contains", "follows", "overlaps")

        def share(n):
            p = scaled_profile("inf", n)
            prunable = sum(1 for s in p.series if s.kind in prunable_kinds)
            return prunable / n

        assert share(100) < share(50) < share(30)


class TestMinability:
    def test_re_family_yields_seasonal_patterns(self):
        """The injected structure must be minable at paper-style thresholds."""
        p = profile("re")
        syms = gen_symbols(p)
        sub = {k: syms[k] for k in ("wind_drv", "wind_cpy", "wind_con", "wind_fol")}
        dseq = build_dseq(sub, p.m, ignore_symbols={"0"})
        params = STPMParams(
            max_period=9, min_density=3, dist_min=p.dist_min, dist_max=p.dist_max,
            min_season=6, max_k=2,
        )
        res = mine(dseq, params)
        assert len(res.singles) >= 3
        pats = {render_pattern(p) for p in res.patterns}
        assert "wind_drv:1 >= wind_con:1" in pats
        assert "wind_drv:1 -> wind_fol:1" in pats
