"""Shared spark-submit plumbing for the per-table jobs.

Each job builds (or reuses) a local SparkSession configured like the
test fixture in ``conftest.py``, runs one table harness, prints the
resulting frame, and optionally writes it as CSV next to the repo root.
Run as e.g.::

    spark-submit jobs/table09_patterns_re.py
    python jobs/run_all.py          # everything, pure-Python fast paths
"""
from __future__ import annotations

import os
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)


def get_spark(app: str):
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        # the Python workers import repro too (applyInPandas tasks)
        .config("spark.executorEnv.PYTHONPATH", SRC)
        .getOrCreate()
    )


def emit(df, name: str) -> None:
    print(f"== {name} ==")
    print(df.to_string(index=False))
    out = os.environ.get("REPRO_OUT_DIR")
    if out:
        os.makedirs(out, exist_ok=True)
        df.to_csv(os.path.join(out, f"{name}.csv"), index=False)
