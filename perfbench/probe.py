"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports what the miner calls need, prints ``ready <seconds>`` with the
time taken since this file's first statement, then waits for its
standard input to close and exits.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> None:
    import repro.baseline.aps  # noqa: F401
    import repro.core.astpm  # noqa: F401
    import repro.core.estpm  # noqa: F401
    import repro.core.sequences  # noqa: F401
    import repro.core.symbolize  # noqa: F401

    print(f"ready {time.perf_counter() - T0}", flush=True)
    sys.stdin.read()


if __name__ == "__main__":
    main()
