"""Figure 14 / Appendix F — per-benchmark speedups vs base LLMs."""

from repro.evaluation import ALL_EXPERIMENTS, render_table


def test_fig14_per_benchmark():
    result = ALL_EXPERIMENTS["fig14"]()
    print("\n" + render_table(result))
    rows = {r[1]: r for r in result.rows
            if r[2] is not None}  # tolerate REPRO_SUITE_LIMIT subsampling
    # the gemm/syrk case studies: LOOPRAG floors the base LLMs
    for kernel in ("gemm", "syrk"):
        if kernel not in rows:
            continue
        lr = max(rows[kernel][2] or 0, rows[kernel][3] or 0)
        bl = max(rows[kernel][4] or 0, rows[kernel][5] or 0)
        assert lr > 4 * max(bl, 1.0)
    # the TSVC outlier kernels answer to LOOPRAG, not the base LLMs
    for kernel in ("s233", "s319"):
        if kernel not in rows:
            continue
        lr = max(rows[kernel][2] or 0, rows[kernel][3] or 0)
        bl = max(rows[kernel][4] or 0, rows[kernel][5] or 0)
        assert lr > bl
