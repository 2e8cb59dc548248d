"""Spark layers of a traced ``wide-k2`` run.

The workload's values go through Spark Phase 1 (``sparkio.transform``)
and Phase 2 per replica group (``sparkio.mining.mine_groups`` over
``applyInPandas``). :func:`configure` must run before ``pyspark`` is
imported, because the driver's JVM options are read when the JVM starts.
Every file Spark, the JVM and Python write goes under ``work``, inside
the checkout.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import sys

from pure import BINARY, IGNORE, Inputs

#: task slots of local mode; Phase 2 of one replica group is one task
SLOTS = min(2, os.cpu_count() or 1)


def configure(src: str, work: str) -> None:
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    # no JVM, not even spark-submit's launcher, may write to the system's
    # temporary directory (-XX:-UsePerfData: no hsperfdata files)
    jvm_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{SLOTS}]",
            "--driver-memory 1g",
            "--driver-java-options", shlex.quote(jvm_opts),
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf spark.driver.host=127.0.0.1",
            "--conf", shlex.quote(f"spark.local.dir={tmp}"),
            "--conf", shlex.quote(f"spark.sql.warehouse.dir={os.path.join(work, 'warehouse')}"),
            "pyspark-shell",
        ]
    )


def start_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(2 * SLOTS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until its JVM has exited.

    ``SparkSession.stop`` leaves the JVM running until this interpreter
    exits; the JVM exits on its own once its standard input is closed.
    """
    proc = spark.sparkContext._gateway.proc
    try:
        spark.stop()
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def load_values(spark, path: str):
    """The values DataFrame, read from parquet and held in Spark's cache."""
    df = spark.read.parquet(path).cache()
    df.count()
    return df


def _symbolized(values_df):
    from repro.datasets import CUT
    from repro.sparkio.transform import symbolize_threshold

    return symbolize_threshold(values_df, [CUT], BINARY)


def collect(miner: str, values_df, inp: Inputs):
    """Raw values to frequent patterns on Spark: the ``mine_groups`` collect."""
    from repro.sparkio.mining import mine_groups

    return mine_groups(
        _symbolized(values_df), inp.params, inp.profile.m,
        miner=miner, ignore_symbols=IGNORE,
    ).toPandas()


def spark_rows(pdf) -> set[tuple]:
    return {
        (int(r.group), r.kind, r.pattern, int(r.sup_size), int(r.n_seasons))
        for r in pdf.itertuples(index=False)
    }


def pure_rows(results) -> set[tuple]:
    """The rows ``mine_groups`` must return, built from pure-Python results."""
    out = set()
    for g, res in enumerate(results):
        for ev, v in res.singles.items():
            out.add((g, "single", ev, len(v.sup), v.n_seasons))
        for p, v in res.patterns.items():
            text = " ; ".join(f"{a} {r} {b}" for r, a, b in p)
            out.add((g, "pattern", text, len(v.sup), v.n_seasons))
    return out


def layer_round(values_df, inp: Inputs, span, run: int) -> int:
    """Traced Phase-1 and MI calls; returns the rows Phase 2 receives.

    Phase-1 plans are lazy, so each is timed around an action that
    materialises every row without collecting it (the ``noop`` sink).
    """
    from repro.sparkio.mi_spark import nmi_table
    from repro.sparkio.transform import extract_instances

    sym = _symbolized(values_df)
    with span("sparkio.transform.symbolize_threshold", run):
        sym.write.format("noop").mode("overwrite").save()
    with span("sparkio.transform.extract_instances", run):
        extract_instances(sym, inp.profile.m).write.format("noop").mode("overwrite").save()
    with span("sparkio.mi_spark.nmi_table", run):
        nmi_table(sym)
    return sym.count()
