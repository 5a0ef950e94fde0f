"""Table 3 — can LOOPRAG surpass its demonstration source PLuTo?"""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_tab3_pluto():
    result = ALL_EXPERIMENTS["tab3"]()
    print("\n" + render_table(result))
    looprag = [r for r in result.rows if r[0] == "LOOPRAG"]
    pluto = [r for r in result.rows if r[0] == "PLuTo"][0]
    # the paper's headline crossover (speedup columns): PLuTo leads on
    # PolyBench, LOOPRAG leads on TSVC and LORE
    best_poly = max(r[3] for r in looprag)
    best_tsvc = max(r[5] for r in looprag)
    best_lore = max(r[7] for r in looprag)
    assert pluto[3] > best_poly
    assert best_tsvc > pluto[5]
    assert best_lore > pluto[7]
