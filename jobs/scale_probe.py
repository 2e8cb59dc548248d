"""Scale probe: one E-STPM run on the series-count axis, as one JSON line.

Mines ``scaled_profile("inf", n, seed=seed)`` at maxPeriod 0.4 %,
minDensity 0.5 %, minSeason 12 and prints the D_SEQ build time, the
``mine`` time, the peak RSS growth across ``mine`` (``ru_maxrss``, MiB),
and the candidate and frequent pattern counts. Run as e.g.::

    python jobs/scale_probe.py --n 1000 --k 2 [--seed 100]
"""
import argparse
import json
import resource
import time

import _common  # noqa: F401  (puts src/ on sys.path)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True, help="number of series")
    ap.add_argument("--k", type=int, required=True, help="max_k")
    ap.add_argument("--seed", type=int, default=100)
    args = ap.parse_args()

    from repro.core.estpm import mine
    from repro.core.sequences import build_dseq
    from repro.datasets import gen_symbols, scaled_profile
    from repro.experiments.tables import IGNORE_BACKGROUND, params_for

    p = scaled_profile("inf", args.n, seed=args.seed)
    params = params_for(p, max_period_pct=0.4, min_density_pct=0.5, min_season=12, max_k=args.k)
    symbols = gen_symbols(p)
    t0 = time.perf_counter()
    dseq = build_dseq(symbols, p.m, ignore_symbols=IGNORE_BACKGROUND)
    t1 = time.perf_counter()
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    res = mine(dseq, params)
    t2 = time.perf_counter()
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(dict(
        n=args.n, k=args.k, seed=args.seed,
        dseq_s=round(t1 - t0, 3), mine_s=round(t2 - t1, 3),
        rss_growth_mib=round((rss1 - rss0) / 1024, 1),  # ru_maxrss is in KiB
        candidates=res.stats["n_candidate_patterns"],
        frequent=res.stats["n_frequent_patterns"],
    )))


if __name__ == "__main__":
    main()
