"""Time granularity arithmetic (paper Section III-A).

The time domain is isomorphic to the natural numbers, so a granule of the
finest granularity G is just an integer position ``0..n-1`` (the paper is
1-indexed; we use 0-indexed positions internally and only shift when
rendering paper-style labels like ``G_1``/``H_1``).

A coarser granularity H with ``G <=_m H`` groups ``m`` adjacent fine
granules into one coarse granule: fine position ``t`` belongs to coarse
granule ``t // m`` (applied in :mod:`repro.core.sequences` and in
``sparkio.transform.with_granule``). This module holds the conversion of
percentage thresholds to granule counts.
"""
from __future__ import annotations


def pct_to_count(pct: float, n_granules: int) -> int:
    """Convert a percentage-of-|D_SEQ| threshold to an absolute granule count.

    The paper expresses maxPeriod and minDensity as percentages of the
    temporal sequence database size (Table VI); the mining definitions use
    absolute counts. ``max(1, round(...))`` keeps tiny test databases
    from degenerating to zero.
    """
    if pct < 0:
        raise ValueError(f"percentage must be >= 0, got {pct}")
    return max(1, round(pct / 100.0 * n_granules))
