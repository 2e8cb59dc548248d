"""Table VIII: qualitative seasonal patterns with named series.

The paper lists domain patterns like "Strong Wind >= High Wind Power
Generation (December-February)". This harness injects the same semantic
structure into month-aligned synthetic series (365-day cycles, windows
anchored to the paper's reported months), mines them, and reports each
expected pattern with the months its seasons actually cover — the
reproduction succeeds when every named pattern is found with the
expected seasonal occurrence.

Granule 0 is January 1 of a 365-day year (no leap days).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from ..core.estpm import mine
from ..core.hlh import render_pattern
from ..core.seasonal import STPMParams
from ..core.sequences import build_dseq
from ..datasets import DatasetProfile, Family, SeriesSpec, gen_symbols

_MONTH_DAYS = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


def month_of(day: int) -> str:
    d = day % 365
    for name, n in zip(_MONTHS, _MONTH_DAYS):
        if d < n:
            return name
        d -= n
    return _MONTHS[-1]


def season_months(season_positions: list[int]) -> list[str]:
    """Distinct months covered by a season's granules, calendar order."""
    seen = {month_of(g) for g in season_positions}
    return [m for m in _MONTHS if m in seen]


@dataclass(frozen=True)
class ExpectedPattern:
    dataset: str
    pattern: str  # render_pattern's text, e.g. "StrongWind:1 >= HighWindPower:1"
    months: tuple[str, ...]


def _qual_profile(name: str, groups: list[tuple[str, int, int, list[tuple[str, str]]]]) -> DatasetProfile:
    """Build a month-anchored profile.

    ``groups``: (family_name, window_start_day, window_days, [(series, kind)]).
    Each family gets a 365-day cycle whose active window opens on the
    cycle's first day, so the series are generated unshifted and
    ``window_start_day`` is not used here: :func:`table08_qualitative`
    adds it to a pattern's granule positions when it maps them to months.
    """
    fams: dict[str, Family] = {}
    series: list[SeriesSpec] = []
    for fam_name, _start, window, members in groups:
        fams[fam_name] = Family(fam_name, 365, window, 0.95)
        for s_name, kind in members:
            kw = {}
            if kind == "jcopy":
                kw = dict(jitter=0.08)
            elif kind in ("contains", "overlaps", "follows"):
                kw = dict(p_active=0.9)
            series.append(SeriesSpec(s_name, kind, fam_name, **kw))
    return DatasetProfile(
        name=f"qual-{name}", n_granules=_N_GRANULES, m=4,
        dist_min=200, dist_max=330, families=fams, series=series,
    )


#: every dataset spans four 365-day years
_N_GRANULES = 4 * 365

#: per dataset: the families (window start day-of-year, for month
#: mapping) and the patterns expected from them
_QUAL_SPECS: dict[str, tuple[list[tuple[str, int, int, list[tuple[str, str]]]], list[ExpectedPattern]]] = {
    "re": (
        [
            ("winter", 334, 90, [("StrongWind", "driver"), ("HighWindPower", "contains"),
                                 ("LowTemperature", "contains"), ("HighEnergyConsumption", "follows")]),
            ("summer", 181, 62, [("VeryFewClouds", "driver"), ("VeryHighTemperature", "contains"),
                                 ("HighSolarPower", "overlaps")]),
        ],
        [
            ExpectedPattern("re", "StrongWind:1 >= HighWindPower:1", ("Dec", "Jan", "Feb")),
            ExpectedPattern("re", "StrongWind:1 >= LowTemperature:1", ("Dec", "Jan", "Feb")),
            ExpectedPattern("re", "StrongWind:1 -> HighEnergyConsumption:1", ("Dec", "Jan", "Feb")),
            ExpectedPattern("re", "VeryFewClouds:1 >= VeryHighTemperature:1", ("Jul", "Aug")),
            ExpectedPattern("re", "VeryFewClouds:1 ~ HighSolarPower:1", ("Jul", "Aug")),
        ],
    ),
    "inf": (
        [
            ("flu", 0, 59, [("HighHumidity", "driver"), ("VeryLowTemperature", "contains"),
                            ("VeryHighInfluenzaCases", "follows")]),
        ],
        [
            ExpectedPattern("inf", "HighHumidity:1 >= VeryLowTemperature:1", ("Jan", "Feb")),
            ExpectedPattern("inf", "HighHumidity:1 -> VeryHighInfluenzaCases:1", ("Jan", "Feb")),
        ],
    ),
    "sc": (
        [
            ("storm", 181, 62, [("HighTemperature", "driver"), ("StrongWind", "contains"),
                                ("HighCongestion", "follows")]),
        ],
        [
            ExpectedPattern("sc", "HighTemperature:1 >= StrongWind:1", ("Jul", "Aug")),
            ExpectedPattern("sc", "HighTemperature:1 -> HighCongestion:1", ("Jul", "Aug")),
        ],
    ),
    "hfm": (
        [
            ("spring", 120, 61, [("LowHumidity", "driver"), ("HighTemperature", "contains"),
                                 ("VeryHighHFMCases", "follows")]),
        ],
        [
            ExpectedPattern("hfm", "LowHumidity:1 >= HighTemperature:1", ("May", "Jun")),
            ExpectedPattern("hfm", "LowHumidity:1 -> VeryHighHFMCases:1", ("May", "Jun")),
        ],
    ),
}


def table08_qualitative(datasets=("re", "inf", "sc", "hfm")) -> pd.DataFrame:
    """Mine the month-anchored datasets and report the expected patterns.

    Returns one row per expected pattern: found?, number of seasons, and
    the months covered by its seasons (should equal the paper's
    "Seasonal occurrence" column up to window-boundary spill).
    """
    rows = []
    for name in datasets:
        groups, expected = _QUAL_SPECS[name]
        p = _qual_profile(name, groups)
        offsets = {fam: start for fam, start, _, _ in groups}
        fam_of = {s.name: s.family for s in p.series}
        symbols = gen_symbols(p)
        dseq = build_dseq(symbols, p.m, ignore_symbols={"0"})
        params = STPMParams(
            max_period=5, min_density=10, dist_min=p.dist_min, dist_max=p.dist_max,
            min_season=3, max_k=3,
        )
        res = mine(dseq, params)
        rendered = {render_pattern(pat): v for pat, v in res.patterns.items()}
        for exp in expected:
            hit = rendered.get(exp.pattern)
            months: list[str] = []
            if hit is not None:
                first = exp.pattern.split(":")[0]
                off = offsets[fam_of[first]]
                months = season_months([g + off for s in hit.seasons for g in s])
            rows.append(
                dict(
                    dataset=name, pattern=exp.pattern,
                    found=hit is not None,
                    n_seasons=0 if hit is None else hit.n_seasons,
                    months=",".join(months),
                    expected_months=",".join(exp.months),
                )
            )
    return pd.DataFrame(rows)
