"""Table 2 — LOOPRAG vs base LLMs (and quoted LLM-method rows)."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_tab2_llms():
    result = ALL_EXPERIMENTS["tab2"]()
    print("\n" + render_table(result))
    looprag = [r for r in result.rows if r[0] == "LOOPRAG"]
    base = [r for r in result.rows if r[0] == "BaseLLM"]
    # LOOPRAG dominates base LLMs on speedup for every suite
    for lr, bl in zip(looprag, base):
        assert lr[3] > 2 * bl[3]   # polybench speedup
        assert lr[7] > bl[7]       # lore speedup
    # pass@k stays in the same ballpark as the base LLMs
    for lr, bl in zip(looprag, base):
        assert abs(lr[2] - bl[2]) < 35
