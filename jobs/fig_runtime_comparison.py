"""Figs. 7-10 shape: runtime + peak memory of A-STPM / E-STPM / baseline."""
from _common import emit


def main() -> None:
    from repro.experiments.tables import runtime_comparison

    for ds in ("re", "sc", "inf", "hfm"):
        emit(runtime_comparison(ds, repeats=21), f"fig_runtime_{ds}")


if __name__ == "__main__":
    main()
