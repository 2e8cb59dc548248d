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


def threshold_symbols(
    values: Sequence[float | None], cuts: Sequence[float], *, alphabet: Sequence[str]
) -> list[str | None]:
    """Map each value to the bin index given ascending cut points.

    ``value < cuts[0] -> alphabet[0]``; ``value >= cuts[-1] -> alphabet[-1]``.
    A missing value (NaN or ``None``) maps to ``None``, a missing instant.
    """
    cuts = list(cuts)
    if sorted(cuts) != cuts:
        raise ValueError("cuts must be ascending")
    labels = list(alphabet)
    if len(labels) != len(cuts) + 1:
        raise ValueError(f"need {len(cuts) + 1} labels, got {len(labels)}")
    # v != v holds for NaN alone
    return [None if v is None or v != v else labels[bisect_right(cuts, v)] for v in values]
