"""Figure 1 — motivation: GPT-4 vs PLuTo on PolyBench and TSVC."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_fig1_motivation():
    result = ALL_EXPERIMENTS["fig1"]()
    print("\n" + render_table(result))
    rows = {r[0]: r for r in result.rows}
    # GPT-4 alone loses to PLuTo on most PolyBench kernels and produces a
    # visible non-equivalent fraction
    _suite, faster, slower, neq = rows["polybench"]
    assert slower > faster
    assert neq > 5.0
