"""Figure 10 — % of faster codes vs the COLA-Gen corpus."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_fig10_faster_vs_colagen():
    result = ALL_EXPERIMENTS["fig10"]()
    print("\n" + render_table(result))
    assert result.rows
    # some fraction of codes must improve thanks to the richer corpus
    assert any(cell > 10.0 for row in result.rows for cell in row[1:])
