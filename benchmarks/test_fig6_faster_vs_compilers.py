"""Figure 6 — % of faster codes vs the four compilers."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_fig6_faster_vs_compilers():
    result = ALL_EXPERIMENTS["fig6"]()
    print("\n" + render_table(result))
    rows = {r[0]: r for r in result.rows}
    # LOOPRAG produces >40% faster codes than graphite/icx/perspective on
    # PolyBench, and dominates icx/perspective on LORE.  (Deviation from
    # the paper: our Graphite parallelizes the dependence-free LORE
    # copies, so its LORE column is weaker than the paper's ~80%.)
    assert rows["graphite"][1] > 40.0
    assert rows["icx"][1] > 40.0
    assert rows["perspective"][1] > 40.0
    assert rows["icx"][3] > 40.0
    assert rows["perspective"][3] > 40.0
