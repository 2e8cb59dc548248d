"""Regenerate every table (pure-Python fast paths; no Spark session).

Use REPRO_OUT_DIR=results python jobs/run_all.py to also write CSVs.
"""
from _common import emit


def main() -> None:
    from repro.experiments.qualitative import table08_qualitative
    from repro.experiments.tables import (
        accuracy_synthetic_table,
        accuracy_table,
        epsilon_table,
        pattern_count_table,
        pruning_ablation,
        pruning_table,
        runtime_comparison,
        table05_characteristics,
    )

    emit(table05_characteristics(), "table05_characteristics")
    for ds in ("re", "inf"):
        emit(accuracy_table(ds), f"table07_accuracy_{ds}")
    emit(table08_qualitative(), "table08_qualitative")
    emit(pattern_count_table("re"), "table09_patterns_re")
    emit(pattern_count_table("inf"), "table10_patterns_inf")
    for ds in ("re", "inf"):
        emit(pruning_table(ds), f"table11_pruning_{ds}")
        emit(accuracy_synthetic_table(ds), f"table12_accuracy_{ds}")
    emit(epsilon_table(), "table19_epsilon")
    for ds in ("re", "sc", "inf", "hfm"):
        emit(runtime_comparison(ds, repeats=21), f"fig_runtime_{ds}")
    for ds in ("re", "inf"):
        emit(pruning_ablation(ds), f"fig_pruning_{ds}")


if __name__ == "__main__":
    main()
