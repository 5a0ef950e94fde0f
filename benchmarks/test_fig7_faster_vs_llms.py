"""Figure 7 — % of faster codes vs base LLMs."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_fig7_faster_vs_llms():
    result = ALL_EXPERIMENTS["fig7"]()
    print("\n" + render_table(result))
    for row in result.rows:
        # LOOPRAG improves a substantial fraction of codes on PolyBench
        assert row[1] > 30.0
