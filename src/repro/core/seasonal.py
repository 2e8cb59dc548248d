"""Seasonality (Defs. 3.14-3.17) and the maxSeason gates (Eq. 1 and a tighter one).

Granule positions here are 0-indexed ints. A support set is a bitset
(bit ``h`` set iff granule ``h`` is in); a verdict holds that bitset and
its season count, and decodes its positions only when they are read.
``maxPeriod``/``minDensity`` are absolute granule counts (use
:func:`repro.core.granularity.pct_to_count` to convert the paper's
percentage parameters).

:func:`count_seasons` is the one copy of Defs. 3.15-3.17: it counts the
seasons of a bitset with a few big-int operations per near support set.
Every miner calls :func:`evaluate_seasonality` once per candidate, which
is that count wrapped in a verdict, and keeps the frequent ones.
:attr:`STPMParams.min_support` is the one copy of Eq. 1's gate.
:func:`can_hold_seasons` tightens it with distInterval's lower end
(beyond the paper): a greedy walk over the bitset that counts blocks of
minDensity granules spaced ``max(dist_min, 1)`` apart. It passes every
support Def. 3.17 finds frequent and is anti-monotone, so it prunes as
losslessly as Lemmas 1-2; DESIGN.md ("The maxSeason gate, with distInterval") has the
argument.

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
from itertools import compress, count


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


def can_hold_seasons(bits: int, params: STPMParams) -> bool:
    """The maxSeason gate with distInterval's lower end: a bound on Def. 3.17.

    Walks ``bits`` greedily: a block is the earliest minDensity set bits,
    and the next block starts at ``last + max(dist_min, 1)``. True iff
    minSeason blocks fit. Each block ends no later than the matching
    season of any distInterval chain (seasons are disjoint and at least
    dist_min apart), so a support with ``count_seasons >= minSeason``
    passes; a chain of blocks in a subset is one in the superset, so the
    gate is anti-monotone like Eq. 1, which it implies. It ignores
    maxPeriod and dist_max.
    """
    need, step = params.min_density - 1, max(params.dist_min, 1)
    for _ in range(params.min_season):
        for _ in range(need):
            bits &= bits - 1
        if not bits:
            return False
        # the next block starts max(dist_min, 1) after this one's last granule
        bits >>= (bits & -bits).bit_length() - 1 + step
    return True


_BIT = bytes.maketrans(b"01", b"\0\1")


def bit_positions(bits: int) -> tuple[int, ...]:
    """Set positions of a bitset (bit ``h`` set iff granule ``h`` is in), ascending."""
    # one selector byte per bit, bit 0 first
    return tuple(compress(count(), bin(bits)[:1:-1].encode().translate(_BIT)))


def count_seasons(
    bits: int, params: STPMParams, seasons: list[int] | None = None
) -> int:
    """Def. 3.17's season count of the support bitset ``bits``.

    Shifting ``bits`` left by 1 .. maxPeriod-1 and OR-ing closes every
    period of at most maxPeriod, so each run of set bits in ``closed`` is
    one near support set (Def. 3.15) and ``bits & run`` its granules.
    Runs are peeled off lowest first. A run holding at least minDensity
    granules is a season (Def. 3.16); its distance to the previous
    season, ``p(first of S) - p(last of S_prev)``, extends the
    distInterval chain or restarts it. Returns the longest chain;
    ``seasons``, when given, receives each season's granules as a bitset.
    """
    if bits < 0:
        raise ValueError("a support bitset cannot be negative")
    max_period, min_density = params.max_period, params.min_density
    dist_min, dist_max = params.dist_min, params.dist_max
    closed = bits
    for shift in range(1, max_period):
        closed |= bits << shift
    best = chain = 0
    last = None  # last granule of the previous season
    while closed:
        low = closed & -closed
        run = (closed ^ (closed + low)) & closed
        closed ^= run
        held = bits & run
        size = held.bit_count()
        if size < min_density:
            continue
        first = low.bit_length() - 1
        if last is not None and dist_min <= first - last <= dist_max:
            chain += 1
        else:
            chain = 1
        if chain > best:
            best = chain
        last = held.bit_length() - 1
        if seasons is not None:
            seasons.append(held)
    return best


@dataclass(frozen=True, slots=True)
class SeasonalVerdict:
    """Def. 3.17's verdict on one support bitset ``bits``.

    ``bits`` is the miner's own bitset, not a copy; the granule positions
    of the support and of each season are decoded when read.
    """

    bits: int
    n_seasons: int
    params: STPMParams

    @property
    def sup(self) -> tuple[int, ...]:
        return bit_positions(self.bits)

    @property
    def seasons(self) -> tuple[tuple[int, ...], ...]:
        found: list[int] = []
        count_seasons(self.bits, self.params, found)
        return tuple(map(bit_positions, found))

    @property
    def frequent(self) -> bool:
        return self.n_seasons >= self.params.min_season


def evaluate_seasonality(bits: int, params: STPMParams) -> SeasonalVerdict:
    """Full Def. 3.17 check: seasons + distInterval chain + minSeason."""
    return SeasonalVerdict(bits, count_seasons(bits, params), params)
