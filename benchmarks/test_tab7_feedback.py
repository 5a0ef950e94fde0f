"""Table 7 — pass@k improvement per feedback round."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_tab7_feedback():
    result = ALL_EXPERIMENTS["tab7"]()
    print("\n" + render_table(result))
    first = [r for r in result.rows if r[0].startswith("First")]
    second = [r for r in result.rows if r[0].startswith("Second")]
    # the first round of compilation feedback is the largest gain
    first_poly = sum(r[2] for r in first) / len(first)
    second_poly = sum(r[2] for r in second) / len(second)
    assert first_poly > 5.0
    assert first_poly > second_poly
    # every feedback round helps (no negative improvements)
    for row in result.rows:
        for cell in row[2:]:
            assert cell >= 0.0
