"""Table 6 — retrieval ablation: loop-aware vs BM25 vs weighted score."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_tab6_retrieval():
    result = ALL_EXPERIMENTS["tab6"]()
    print("\n" + render_table(result))
    by_method = {}
    for row in result.rows:
        by_method.setdefault(row[0], []).append(row)
    # similar pass@k across the three retrieval methods (±25 points)
    averages = {m: sum(r[2] for r in rows) / len(rows)
                for m, rows in by_method.items()}
    spread = max(averages.values()) - min(averages.values())
    assert spread < 25.0
