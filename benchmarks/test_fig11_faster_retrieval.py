"""Figure 11 — % faster codes, loop-aware retrieval vs alternatives."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_fig11_faster_retrieval():
    result = ALL_EXPERIMENTS["fig11"]()
    print("\n" + render_table(result))
    assert len(result.rows) == 4  # 2 comparisons x 2 personas
