"""Core STPM implementation (the paper's primary contribution).

Layout
------
``granularity``   pct -> absolute granule-count thresholds
``symbolize``     raw values -> symbol alphabet (threshold cuts)
``events``        temporal events, instances, Allen-style relations with epsilon
``sequences``     symbolic series -> temporal sequence database (D_SEQ)
``seasonal``      support sets, near support sets, seasons, maxSeason
``hlh``           hierarchical lookup hash structures HLH_1 / HLH_k
``estpm``         exact seasonal temporal pattern mining (E-STPM)
``mi``            entropy, (normalized) mutual information, Lambert W, mu bound
``astpm``         approximate STPM (A-STPM) via MI pruning
``brute``         brute-force pattern enumerator (APS-growth's phase 2) and
                  the reference miner used by the test oracle
"""
