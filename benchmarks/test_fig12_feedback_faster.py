"""Figure 12 — % of codes made faster by test+rank feedback."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_fig12_feedback_faster():
    result = ALL_EXPERIMENTS["fig12"]()
    print("\n" + render_table(result))
    # a visible fraction of benchmarks end faster than their step-2 best
    assert any(cell > 15.0 for row in result.rows for cell in row[1:])
