"""End-to-end checks against the paper's worked example (Tables II & IV).

Every expected value here is stated in the paper's Sections III-C
through IV-D, so these tests pin the reproduction to the authors' own
walk-through. One documented deviation: the paper's PS^P listing for
M:1 >= N:1 omits granule H_9 even though H_9 and H_10 are identical
rows of Table IV — we include H_9 (see DESIGN.md "Worked example
discrepancy") and assert the self-consistent outcome.
"""
from repro.core.estpm import build_event_supports, mine
from repro.core.events import CONTAINS
from repro.core.seasonal import bit_positions, evaluate_seasonality
from repro.core.sequences import build_dseq

from .paper_example import EXAMPLE_PARAMS, example_dseq, example_symbolic


def test_dseq_has_14_granules():
    dseq = example_dseq()
    assert dseq.n_granules == 14


def test_sequence_mapping_matches_table_iv_row1():
    """Seq_1 = <(C:1,[G1,G2]), (C:0,[G3,G3])> for series C at H_1."""
    dseq = example_dseq()
    c_insts = [i for i in dseq.instances(0) if i.series == "C"]
    assert [(i.symbol, i.start, i.end) for i in c_insts] == [("1", 0, 1), ("0", 2, 2)]


def test_table_iv_granule_h5_all_full_span():
    """H_5: every series has one full-span instance (Table IV row 5)."""
    dseq = example_dseq()
    insts = dseq.instances(4)
    assert len(insts) == 5
    assert all(i.start == 12 and i.end == 14 for i in insts)


def test_candidate_single_events_match_paper():
    """Eight candidates; M:0 and N:0 fail the maxSeason gate (Fig. 6)."""
    res = mine(example_dseq(), EXAMPLE_PARAMS)
    assert set(res.hlh1) == {
        "C:1", "C:0", "D:1", "D:0", "F:1", "F:0", "M:1", "N:1"
    }


def test_event_supports_match_paper_counts():
    hlh = build_event_supports(example_dseq())
    sizes = {ev: e.sup.bit_count() for ev, e in hlh.items()}
    assert sizes["C:1"] == 8
    assert sizes["M:0"] == 5 and sizes["N:0"] == 5  # below |SUP| >= 6 gate
    assert sizes["M:1"] == 11 and sizes["N:1"] == 11


def test_m1_has_single_season_so_not_frequent():
    """Section IV-B: PS^{M:1} is one big near support set -> 1 season."""
    hlh = build_event_supports(example_dseq())
    verdict = evaluate_seasonality(hlh["M:1"].sup, EXAMPLE_PARAMS)
    assert len(verdict.seasons) == 1
    assert verdict.n_seasons == 1
    assert not verdict.frequent
    assert "M:1" not in mine(example_dseq(), EXAMPLE_PARAMS).singles


def test_c1_contains_d1_support_and_near_sets():
    """Fig. 3: SUP^P = {H1,H2,H3,H7,H8,H11,H12,H14}, three near sets."""
    res = mine(example_dseq(), EXAMPLE_PARAMS)
    pattern = ((CONTAINS, "C:1", "D:1"),)
    group = res.hlhk[2].groups[("C:1", "D:1")]
    sup = group.patterns[pattern]
    assert bit_positions(sup) == (0, 1, 2, 6, 7, 10, 11, 13)
    near = evaluate_seasonality(sup, EXAMPLE_PARAMS.with_(min_density=1)).seasons
    assert near == ((0, 1, 2), (6, 7), (10, 11, 13))
    # densities 3, 2, 3 -> two seasons, distance |p(H3)-p(H11)| = 8 in [4,10]
    verdict = res.patterns[pattern]
    assert verdict.seasons == ((0, 1, 2), (10, 11, 13))
    assert verdict.n_seasons == 2 and verdict.frequent


def test_m1_contains_n1_documented_deviation():
    """With H_9 included (identical to H_10), season distance is 3 < 4.

    The paper's example claims 2 seasons by omitting H_9; including it
    (the only self-consistent reading) the distInterval check fails and
    the pattern is not frequent under these thresholds.
    """
    res = mine(example_dseq(), EXAMPLE_PARAMS)
    pattern = ((CONTAINS, "M:1", "N:1"),)
    group = res.hlhk[2].groups[("M:1", "N:1")]
    assert bit_positions(group.patterns[pattern]) == (0, 2, 3, 4, 5, 8, 9, 10, 12)
    assert pattern not in res.patterns


def test_f0_transitivity_example():
    """Section IV-D: (C:1, D:1, F:0) forms no candidate 3-event pattern."""
    res = mine(example_dseq(), EXAMPLE_PARAMS)
    assert ("C:1", "D:1", "F:0") not in res.hlhk.get(3, type("x", (), {"groups": {}})).groups


def test_symbolic_lengths():
    sym = example_symbolic()
    assert all(len(v) == 42 for v in sym.values())
