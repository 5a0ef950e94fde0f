"""Table 1 — LOOPRAG configurations vs baseline compilers."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_tab1_compilers():
    result = ALL_EXPERIMENTS["tab1"]()
    print("\n" + render_table(result))
    rows = {r[0]: r for r in result.rows}
    ld = rows["LD-GCC"]
    graphite = rows["graphite"]
    polly = rows["polly"]
    perspective = rows["perspective"]
    # LOOPRAG decisively beats Graphite (≈1x) on PolyBench and LORE
    # (columns: system, poly_pass, poly_speedup, tsvc_pass, tsvc_speedup,
    # lore_pass, lore_speedup)
    assert ld[2] > 5 * graphite[2]
    assert ld[6] > 2 * graphite[6]
    # Graphite is excluded from TSVC (Appendix C)
    assert graphite[3] is None
    # Perspective has by far the lowest pass@k
    assert perspective[1] < ld[1]
    # Polly is competitive on PolyBench but LOOPRAG leads on LORE
    assert ld[6] > polly[6]
