"""DataFrame-side mutual information (Section V): one task per group.

``nmi_table`` runs the kernel of :func:`repro.core.mi.pair_min_nmis`
(``encode``, then ``directional_nmis``) on each replica group's symbols
inside ``applyInPandas``, so the Spark and pure-Python paths give
bitwise-equal values.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from ..core.mi import directional_nmis, encode
from .mining import _reject_holes, _symbols_from_pdf


def nmi_table(sym_df: DataFrame) -> pd.DataFrame:
    """Per-pair NMI in both directions, computed per group on the workers.

    Returns a pandas frame ``(group, sx, sy, nmi_xy, nmi_yx, min_nmi)``
    with ``sx < sy``, sorted by ``(group, sx, sy)``.

    As in :func:`repro.core.mi.pair_min_nmis`, every series must be
    complete: a NULL symbol or an absent row at any instant ``0..max(t)``
    of its group raises a ``ValueError`` naming the series.
    """
    _reject_holes(sym_df)
    schema = T.StructType(
        [sym_df.schema["group"]]
        + [T.StructField(c, T.StringType()) for c in ("sx", "sy")]
        + [T.StructField(c, T.DoubleType()) for c in ("nmi_xy", "nmi_yx", "min_nmi")]
    )

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        enc = encode(_symbols_from_pdf(pdf))
        nmi_xy, nmi_yx = directional_nmis(enc)
        pairs = list(combinations(enc.names, 2))
        return pd.DataFrame(
            {
                "group": pdf["group"].iloc[0],
                "sx": [x for x, _ in pairs],
                "sy": [y for _, y in pairs],
                "nmi_xy": nmi_xy,
                "nmi_yx": nmi_yx,
                "min_nmi": np.minimum(nmi_xy, nmi_yx),
            }
        )

    out = sym_df.groupBy("group").applyInPandas(fn, schema).toPandas()
    return out.sort_values(["group", "sx", "sy"], ignore_index=True)
