"""End-to-end benchmark of the FreqSTPfTS miners.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wide-k2 --seed 0 --seconds 50 --trace 0

Workloads: ``wide-k2`` and ``deep-k3``. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it has the per-layer metrics (on ``wide-k2`` including the
Spark layers), and the spans are written under ``.bench_build/perfbench/``.
README.md in this directory defines every metric and records how steady
each one is.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
from contextlib import ExitStack

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

#: when the fresh-process set-up probes run, as fractions of the timed
#: window (0: before it opens, 1: after it closes)
SETUP_PROBES = tuple(i / 10 for i in range(11))


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # load comes from this process alone, on one core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [HERE, SRC]
    from harness import become_subreaper, reap_children

    # No process this run starts may outlive it, on any path out of it:
    # orphans of the JVM are adopted here and waited for at the end.
    become_subreaper()
    import pure

    if args.workload not in pure.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(pure.WORKLOADS)}")
    w = pure.WORKLOADS[args.workload]
    work = os.path.join(BUILD, f"{w.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)

    def terminate(signum, frame):
        # An exception raised here could land inside a Py4J call and be
        # swallowed there, so kill every descendant and leave at once.
        reap_children(grace=0.0)
        shutil.rmtree(work, ignore_errors=True)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)
    try:
        with ExitStack() as cleanup:
            result = run(args, w, work, cleanup)
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, w, work: str, cleanup: ExitStack) -> dict:
    import pure
    from harness import Task, Tracer, no_span, peak_rss_growth_mb, probe_setup, round_robin

    t_start = time.perf_counter()
    inp = pure.make_inputs(w, args.seed)
    parts = pure.split_groups(inp)
    attempted = failed = 0
    errors: list[str] = []

    def record(err: str | None) -> None:
        nonlocal attempted, failed
        attempted += 1
        if err is not None:
            failed += 1
            errors.append(err)

    # Peak memory first, before any mining call has left freed memory
    # behind (and before Spark starts threads): each miner mines each
    # replica group alone in a forked child, and the groups' peaks add up,
    # as when every group is its own task.
    peaks = {
        m: sum(
            peak_rss_growth_mb(lambda m=m, part=part: pure.end_to_end(m, part, no_span, -1))
            for part in parts
        )
        for m in pure.MINERS
    }
    attempted += len(pure.MINERS) * len(parts)

    # warm-up: one untimed call per miner; its outputs are the reference
    ref = {m: pure.end_to_end(m, inp, no_span, -1) for m in pure.MINERS}
    attempted += len(pure.MINERS)
    ref_digest = {(m, g): pure.digest([r]) for m, rs in ref.items() for g, r in enumerate(rs)}
    exact_sets = [set(r.patterns) for r in ref["estpm"]]
    record(pure.subset_error(ref["astpm"], exact_sets))
    record(pure.pruning_error(inp, ref["estpm"]))
    quality = pure.quality(ref["estpm"], ref["astpm"], ref["aps"])

    def check(m: str, g: int):
        def check_output(out):
            if pure.digest(out) != ref_digest[(m, g)]:
                return "output differs from the first call"
            return pure.subset_error(out, [exact_sets[g]]) if m == "astpm" else None
        return check_output

    # One timed call site per miner and replica group; a miner's time is
    # the sum over its groups. Listed group by group, miners round-robin.
    e2e = {
        m: [
            Task(f"{m}/{g}", lambda run, m=m, part=part: pure.end_to_end(m, part, no_span, run),
                 check(m, g))
            for g, part in enumerate(parts)
        ]
        for m in pure.MINERS
    }
    tasks = [t for ts in zip(*e2e.values()) for t in ts]

    tracer = Tracer() if args.trace else None
    layer_counts: dict = {}
    spark = None
    if tracer is not None:
        span = tracer.span
        for m in pure.MINERS:
            for g, part in enumerate(parts):
                def call(run, m=m, part=part, root=f"{m}/{g}"):
                    with span(root, run):
                        return pure.end_to_end(m, part, span, run)
                tasks.append(Task(f"{m}/{g}+trace", call, check(m, g)))

        if w.trace_spark:
            import sparkside

            values_path = os.path.join(work, "values.parquet")
            inp.values_pdf.to_parquet(values_path, index=False)
            sparkside.configure(SRC, work)
            spark = sparkside.start_session()
            cleanup.callback(sparkside.stop_session, spark)
            values_df = sparkside.load_values(spark, values_path)
            want_rows = sparkside.pure_rows(ref["estpm"])

            def spark_call(run):
                with span("spark", run), span("sparkio.mining.mine_groups", run):
                    return sparkside.collect("estpm", values_df, inp)

            def spark_check(pdf):
                got = sparkside.spark_rows(pdf)
                if got != want_rows:
                    return (f"Spark rows differ from the pure-Python path: "
                            f"{len(got - want_rows)} extra, {len(want_rows - got)} missing")
                return None

            record(spark_check(spark_call(-1)))  # warm-up
            tasks.append(Task("estpm+spark", spark_call, spark_check))

        def layers(run):
            with span("layers", run):
                layer_counts.update(pure.layer_round(inp, span, run))
                if spark is not None:
                    layer_counts["arrow_rows"] = sparkside.layer_round(values_df, inp, span, run)
        tasks.append(Task("layers", layers, lambda out: None))
    del ref  # keep only what the checks need, so the heap is the miners' own

    setup: list[float] = []
    probe = ["-u", os.path.join(HERE, "probe.py")]
    interludes = [(at, lambda: setup.append(probe_setup(probe))) for at in SETUP_PROBES]
    log(f"[perfbench] inputs, peaks, reference calls and checks took "
        f"{time.perf_counter() - t_start:.1f} s")

    # The harness's own objects are not the miners' garbage: keep them out
    # of the collector's full passes, which would otherwise scan them.
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    rounds = round_robin(tasks, args.seconds, interludes)
    log(f"[perfbench] {w.name} seed={args.seed}: {rounds} rounds in "
        f"{time.perf_counter() - t0:.1f} s, set-up samples {[round(s, 3) for s in setup]}")
    attempted += len(setup)

    for t in tasks:
        attempted += t.attempted
        failed += t.failed
        errors += t.errors
        if t.times:
            log(f"[perfbench]   {t.name}: {len(t.times)} calls, first "
                f"{t.times[0]:.4f} s, fastest {t.best():.4f} s, "
                f"median {t.p50():.4f} s")
    for e in errors[:10]:
        log(f"[perfbench] FAILED {e}")

    def best(m: str) -> float:
        return sum(t.best() for t in e2e[m])

    if tracer is None:
        metrics = {"setup_s": (statistics.median(setup), "s")}
        for m in pure.MINERS:
            metrics[f"{m}_s"] = (best(m), "s")
        for m in pure.MINERS:
            metrics[f"{m}_peak_mb"] = (peaks[m], "MiB")
        metrics["astpm_accuracy_pct"] = (quality["astpm_accuracy_pct"], "%")
        metrics["estpm_aps_agreement_pct"] = (quality["estpm_aps_agreement_pct"], "%")
    else:
        tracer.write(os.path.join(BUILD, f"trace-{w.name}-{args.seed}.jsonl"))
        metrics = layer_metrics(tracer, w, layer_counts, quality)
        glue = tracer.fastest("spark") - best("estpm") if spark is not None else 0.0
        metrics["spark_glue_s"] = (glue, "s")
        untraced = traced = 0.0
        for m in pure.MINERS:
            metrics[f"{m}_calls"] = (sum(len(t.times) for t in e2e[m]), "count")
            metrics[f"{m}_p50_s"] = (sum(t.p50() for t in e2e[m]), "s")
            untraced += best(m)
            traced += sum(tracer.fastest(f"{m}/{g}") for g in range(len(parts)))
        metrics["trace_overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    return dict(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )


def layer_metrics(tracer, w, counts: dict, quality: dict) -> dict:
    """Per-layer metrics: span times from the layer round, and its counts.

    Layers that a workload does not run (k=3 on ``wide-k2``, Spark on
    ``deep-k3``) read 0.
    """
    def layer(name: str) -> float:
        return tracer.fastest("layers", name)

    k1, k2 = layer("core.estpm.mine[k=1]"), layer("core.estpm.mine[k=2]")
    k3 = layer("core.estpm.mine[k=3]") if w.max_k >= 3 else k2
    ps = layer("baseline.psgrowth.ps_growth")
    m: dict[str, tuple[float, str]] = {
        "symbolize_s": (layer("core.symbolize"), "s"),
        "dseq_s": (layer("core.sequences"), "s"),
        "dseq_instances": (counts["dseq_instances"], "count"),
        "hlh1_s": (k1, "s"),
        "estpm_k2_s": (k2 - k1, "s"),
        "estpm_k3_s": (k3 - k2, "s"),
    }
    for key in ("estpm_pairs_considered", "estpm_groups_k2", "estpm_groups_k3",
                "estpm_candidates", "estpm_frequent"):
        m[key] = (counts[key], "count")
    m["estpm_yield"] = (counts["estpm_frequent"] / max(1, counts["estpm_candidates"]), "ratio")
    m["season_check_s"] = (layer("core.seasonal.evaluate_seasonality"), "s")
    m["season_checks"] = (counts["season_checks"], "count")
    m["nmi_s"] = (layer("core.mi.pair_min_nmis"), "s")
    m["nmi_pairs"] = (counts["nmi_pairs"], "count")
    m["screen_s"] = (layer("core.astpm.screen_correlated"), "s")
    m["screen_keep_ratio"] = (counts["screen_kept"] / max(1, counts["nmi_pairs"]), "ratio")
    m["astpm_mine_s"] = (layer("core.astpm.mine[screened]"), "s")
    m["psgrowth_s"] = (ps, "s")
    m["psgrowth_itemsets"] = (counts["psgrowth_itemsets"], "count")
    m["aps_phase2_s"] = (layer("baseline.aps.mine_aps") - ps, "s")
    m["spark_symbolize_s"] = (layer("sparkio.transform.symbolize_threshold"), "s")
    m["spark_instances_s"] = (layer("sparkio.transform.extract_instances"), "s")
    m["arrow_rows"] = (counts.get("arrow_rows", 0), "count")
    m["spark_nmi_s"] = (layer("sparkio.mi_spark.nmi_table"), "s")
    m["estpm_aps_mismatch"] = (quality["estpm_aps_mismatch"], "count")
    return m


if __name__ == "__main__":
    sys.exit(main())
