"""Table 4 — loop transformations triggered per generator corpus."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_tab4_transform_kinds():
    result = ALL_EXPERIMENTS["tab4"]()
    print("\n" + render_table(result))
    rows = {r[0]: dict(zip(result.columns[1:], r[1:]))
            for r in result.rows}
    # LOOPRAG's corpus triggers all six transformation kinds
    assert all(v == "yes" for v in rows["looprag"].values())
    # COLA-Gen cannot trigger fusion/distribution/shifting
    # (single-statement perfect nests)
    assert rows["colagen"]["fusion"] == "no"
    assert rows["colagen"]["distribution"] == "no"
    assert rows["colagen"]["shifting"] == "no"
    assert rows["colagen"]["tiling"] == "yes"
