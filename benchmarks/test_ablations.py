"""Ablation benches over the design choices the paper fixes."""

from repro.evaluation.ablations import (ablation_candidates,
                                        ablation_corpus_size,
                                        ablation_personas,
                                        ablation_tile_size)
from repro.evaluation.reporting import render_table


def test_ablation_tile_size():
    result = ablation_tile_size()
    print("\n" + render_table(result))
    by_size = dict(result.rows)
    # the default 32 sits on the plateau: within 25% of the best size
    best = max(by_size.values())
    assert by_size[32] > 0.75 * best


def test_ablation_corpus_size():
    result = ablation_corpus_size()
    print("\n" + render_table(result))
    rows = list(result.rows)
    # a tiny corpus must not beat the full one by much (retrieval value)
    assert rows[-1][2] > 0.6 * max(r[2] for r in rows)


def test_ablation_candidates():
    result = ablation_candidates()
    print("\n" + render_table(result))
    by_k = {r[0]: r for r in result.rows}
    # more candidates never hurt pass@k
    assert by_k[7][1] >= by_k[1][1]


def test_ablation_personas():
    result = ablation_personas()
    print("\n" + render_table(result))
    by_model = {r[0]: r for r in result.rows}
    # §6.2.2's ordering: the older deepseek-v2.5 passes fewer kernels
    # than the newer deepseek-v3
    assert by_model["deepseek-v2.5"][1] <= by_model["deepseek-v3-0324"][1]
