"""Symbolization (Def. 3.7): threshold mappings with one or several cuts."""
import math

import pytest

from repro.core.symbolize import threshold_symbols


class TestThreshold:
    def test_paper_on_off_example(self):
        """X = 1.82, 1.25, 0.46, 0.0 with an ON/OFF alphabet -> 1,1,1,0."""
        x = [1.82, 1.25, 0.46, 0.0]
        assert threshold_symbols(x, [0.1], alphabet=["0", "1"]) == ["1", "1", "1", "0"]

    def test_multi_cut(self):
        out = threshold_symbols([0, 5, 10], [2, 8], alphabet=list("LMH"))
        assert out == ["L", "M", "H"]

    def test_boundary_goes_up(self):
        assert threshold_symbols([2.0], [2.0], alphabet=["a", "b"]) == ["b"]

    def test_rejects_unsorted_cuts(self):
        with pytest.raises(ValueError):
            threshold_symbols([1], [3, 2], alphabet=list("abc"))

    def test_rejects_wrong_label_count(self):
        with pytest.raises(ValueError):
            threshold_symbols([1], [0.5], alphabet=["only-one"])

    def test_missing_value_is_a_missing_instant(self):
        """NaN and None map to ``None``, never to a label, so they make no event."""
        out = threshold_symbols([0.0, math.nan, None, 5.0], [2.0], alphabet=["0", "1"])
        assert out == ["0", None, None, "1"]
