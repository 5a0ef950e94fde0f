"""Figure 9 — loop property distributions: LOOPRAG vs COLA-Gen corpora."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_fig9_property_distribution():
    result = ALL_EXPERIMENTS["fig9"]()
    print("\n" + render_table(result))
    by_gen = {}
    for generator, prop, a, b, c, d in result.rows:
        by_gen.setdefault(generator, {})[prop] = (a, b, c, d)
    # COLA-Gen collapses into 1-2 clusters on the structural properties;
    # LOOPRAG spreads across all four
    for prop in ("NStmts", "Depth", "Schedule", "NDeps"):
        cola_top = max(by_gen["colagen"][prop])
        loop_top = max(by_gen["looprag"][prop])
        assert cola_top >= 99.0 or cola_top > loop_top
    spread_props = sum(
        1 for prop, buckets in by_gen["looprag"].items()
        if max(buckets) < 90.0)
    assert spread_props >= 6
