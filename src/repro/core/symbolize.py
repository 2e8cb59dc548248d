"""Symbolic representation of time series (Defs. 3.7-3.8).

The mapping function ``f: X -> Sigma_X`` is ``threshold_symbols``: fixed
ascending cut points, one label per bin. One cut gives the ON/OFF binary
alphabet of the paper's running example; several cuts give multi-symbol
alphabets (SAX [39], which the paper cites, is such a cut set applied to
z-normalised values). The
Spark path uses the same rule, ``sparkio.transform.symbolize_threshold``,
which the DuckDB oracle cross-checks.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

DEFAULT_ALPHABET = "0123456789"


def threshold_symbols(
    values: Sequence[float], cuts: Sequence[float], *, alphabet: Sequence[str] | None = None
) -> list[str]:
    """Map each value to the bin index given ascending cut points.

    ``value < cuts[0] -> label 0``; ``value >= cuts[-1] -> last label``.
    """
    cuts = list(cuts)
    if sorted(cuts) != cuts:
        raise ValueError("cuts must be ascending")
    n_bins = len(cuts) + 1
    labels = list(alphabet) if alphabet is not None else list(DEFAULT_ALPHABET[:n_bins])
    if len(labels) != n_bins:
        raise ValueError(f"need {n_bins} labels, got {len(labels)}")
    return [labels[bisect_right(cuts, v)] for v in values]
