"""Figure 8 — % of faster codes vs PLuTo."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_fig8_faster_vs_pluto():
    result = ALL_EXPERIMENTS["fig8"]()
    print("\n" + render_table(result))
    for row in result.rows:
        # LOOPRAG's advantage is clearly smaller on PolyBench than on
        # TSVC/LORE (the paper's crossover; our per-kernel win rate on
        # PolyBench is higher than the paper's because LOOPRAG adds SIMD
        # on top of PLuTo-style recipes)
        assert row[1] < row[2]
        assert row[1] < row[3]
        # LOOPRAG produces more faster codes on TSVC and LORE
        assert row[2] > 40.0
        assert row[3] > 40.0
