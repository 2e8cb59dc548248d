"""Seasonality measures (Defs. 3.14-3.17) and the maxSeason bound (Eq. 1).

Granule positions here are 0-indexed ints; a support set is a sorted
tuple of positions (:func:`evaluate_seasonality` also takes the bitset
form E-STPM keeps, bit ``h`` set iff granule ``h`` is in).
``maxPeriod``/``minDensity`` are absolute granule counts (use
:func:`repro.core.granularity.pct_to_count` to convert the
paper's percentage parameters).

Season counting (Def. 3.17): the paper requires every pair of
*consecutive* seasons to be within ``distInterval``. Its Algorithm 1
phrases this as "find PS that adheres to distInterval", which we realize
as the longest run of consecutive density-qualified near support sets
whose pairwise distances all fall inside the interval — for regularly
seasonal data both readings coincide; the chain reading degrades
gracefully on noisy season spacing. DESIGN.md discusses this choice and
the paper's (internally inconsistent) M:1>=N:1 worked example.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterable, Sequence


@dataclass(frozen=True)
class STPMParams:
    """All user thresholds of the FreqSTPfTS problem, in absolute units."""

    max_period: int
    min_density: int
    dist_min: int
    dist_max: int
    min_season: int
    epsilon: int = 0
    d_o: int = 1
    max_k: int = 3

    def __post_init__(self) -> None:
        if self.max_period < 1:
            raise ValueError("max_period must be >= 1")
        if self.min_density < 1:
            raise ValueError("min_density must be >= 1")
        if self.dist_min < 0:
            raise ValueError("dist_min must be >= 0")
        if self.dist_min > self.dist_max:
            raise ValueError("dist_min > dist_max")
        if self.min_season < 1:
            raise ValueError("min_season must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.d_o < 1:
            raise ValueError("d_o must be >= 1")
        if self.max_k < 1:
            raise ValueError("max_k must be >= 1")

    def with_(self, **kw) -> "STPMParams":
        return replace(self, **kw)


def max_season(sup_size: int, min_density: int) -> float:
    """Maximum seasonal occurrence bound (Eq. 1): |SUP| / minDensity."""
    return sup_size / min_density


def near_support_sets(sup: Sequence[int], max_period: int) -> list[tuple[int, ...]]:
    """Maximal near support sets: split SUP where consecutive period > maxPeriod."""
    if not sup:
        return []
    out: list[tuple[int, ...]] = []
    cur = [sup[0]]
    for p in sup[1:]:
        if p - cur[-1] <= max_period:
            cur.append(p)
        else:
            out.append(tuple(cur))
            cur = [p]
    out.append(tuple(cur))
    return out


def season_sets(sup: Sequence[int], max_period: int, min_density: int) -> list[tuple[int, ...]]:
    """Near support sets dense enough to be seasons (Def. 3.16)."""
    return [s for s in near_support_sets(sup, max_period) if len(s) >= min_density]


def season_distance(s1: Sequence[int], s2: Sequence[int]) -> int:
    """dist(S_i, S_j) = |p(last of S_i) - p(first of S_j)| (Def. 3.16)."""
    return abs(s1[-1] - s2[0])


def count_seasons(seasons: Sequence[Sequence[int]], dist_min: int, dist_max: int) -> int:
    """Longest run of consecutive seasons with pairwise distances in the interval."""
    if not seasons:
        return 0
    best = cur = 1
    for prev, nxt in zip(seasons, seasons[1:]):
        d = season_distance(prev, nxt)
        cur = cur + 1 if dist_min <= d <= dist_max else 1
        best = max(best, cur)
    return best


@dataclass(frozen=True)
class SeasonalVerdict:
    """Outcome of the full seasonal check for one event/pattern."""

    sup: tuple[int, ...]
    seasons: tuple[tuple[int, ...], ...]
    n_seasons: int
    frequent: bool


def bit_positions(bits: int) -> tuple[int, ...]:
    """Set positions of a bitset (bit ``h`` set iff granule ``h`` is in), ascending."""
    # bit 0 first, cut after every set bit: each piece's length is the
    # step from the previous set position to the next
    steps = bin(bits)[:1:-1].replace("1", "1,").split(",")[:-1]
    return tuple(accumulate(map(len, steps), initial=-1))[1:]


def evaluate_seasonality(sup: Iterable[int] | int, params: STPMParams) -> SeasonalVerdict:
    """Full Def. 3.17 check: seasons + distInterval chain + minSeason.

    ``sup`` is a collection of granule positions or a bitset of them.
    """
    s = bit_positions(sup) if isinstance(sup, int) else tuple(sorted(sup))
    seasons = tuple(season_sets(s, params.max_period, params.min_density))
    n = count_seasons(seasons, params.dist_min, params.dist_max)
    return SeasonalVerdict(sup=s, seasons=seasons, n_seasons=n, frequent=n >= params.min_season)


def is_candidate(sup_size: int, params: STPMParams) -> bool:
    """Apriori-style gate: maxSeason(P) >= minSeason (Section IV-B).

    ``sup_size / minDensity >= minSeason`` as one integer compare.
    """
    return sup_size >= params.min_season * params.min_density
