"""Table 5 — pipeline with LOOPRAG's corpus vs COLA-Gen's corpus."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_tab5_colagen():
    result = ALL_EXPERIMENTS["tab5"]()
    print("\n" + render_table(result))
    loop_rows = [r for r in result.rows if r[0] == "looprag"]
    cola_rows = [r for r in result.rows if r[0] == "colagen"]
    # parameter-driven demonstrations lead on PolyBench speedup
    loop_poly = sum(r[3] for r in loop_rows) / len(loop_rows)
    cola_poly = sum(r[3] for r in cola_rows) / len(cola_rows)
    assert loop_poly > cola_poly
