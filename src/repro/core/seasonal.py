"""Seasonality (Defs. 3.14-3.17) and the maxSeason gate (Eq. 1).

Granule positions here are 0-indexed ints; a support set is a sorted
tuple of positions (:func:`evaluate_seasonality` also takes the bitset
form E-STPM keeps, bit ``h`` set iff granule ``h`` is in).
``maxPeriod``/``minDensity`` are absolute granule counts (use
:func:`repro.core.granularity.pct_to_count` to convert the
paper's percentage parameters).

:func:`evaluate_seasonality` is the one copy of Defs. 3.15-3.17, and
:attr:`STPMParams.min_support` the one copy of Eq. 1's gate.

Season counting (Def. 3.17): the paper requires every pair of
*consecutive* seasons to be within ``distInterval``. Its Algorithm 1
phrases this as "find PS that adheres to distInterval", which we realize
as the longest run of consecutive seasons (density-qualified near
support sets) whose pairwise distances all fall inside the interval —
for regularly seasonal data both readings coincide; the chain reading
degrades gracefully on noisy season spacing. DESIGN.md discusses this
choice and the paper's (internally inconsistent) M:1>=N:1 worked example.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterable


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

    @property
    def min_support(self) -> int:
        """The maxSeason gate (Eq. 1, Section IV-B) as a floor on |SUP|.

        ``|SUP| / minDensity >= minSeason`` iff ``|SUP| >= min_support``:
        no support set smaller than this can hold minSeason seasons.
        """
        return self.min_season * self.min_density


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
    One pass over the sorted positions: a period above maxPeriod (or the
    end of SUP) closes a near support set (Def. 3.15); a closed set of at
    least minDensity granules is a season (Def. 3.16); each season's
    distance to the previous season, ``p(first of S) - p(last of S_prev)``,
    extends the distInterval chain or restarts it. ``n_seasons`` is the
    longest chain.
    """
    s = bit_positions(sup) if isinstance(sup, int) else tuple(sorted(sup))
    max_period, min_density = params.max_period, params.min_density
    dist_min, dist_max = params.dist_min, params.dist_max
    seasons: list[tuple[int, ...]] = []
    best = chain = first = 0  # first: index where the open near support set starts
    for i in range(1, len(s) + 1):
        if i < len(s) and s[i] - s[i - 1] <= max_period:
            continue
        if i - first >= min_density:
            if seasons and dist_min <= s[first] - seasons[-1][-1] <= dist_max:
                chain += 1
            else:
                chain = 1
            best = max(best, chain)
            seasons.append(s[first:i])
        first = i
    return SeasonalVerdict(
        sup=s, seasons=tuple(seasons), n_seasons=best, frequent=best >= params.min_season
    )
