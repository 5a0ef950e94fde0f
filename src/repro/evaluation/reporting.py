"""Rendering of experiment results: text tables and JSON bench reports."""

from __future__ import annotations

import json
from typing import List, Sequence, Tuple

from .experiments import ExperimentResult
from .harness import BenchResult
from .metrics import average_speedup, pass_at_k


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_table(result: ExperimentResult) -> str:
    """Render one experiment as an aligned text table."""
    header = list(result.columns)
    body = [[_fmt(cell) for cell in row] for row in result.rows]
    widths = [len(h) for h in header]
    for row in body:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [result.title, "=" * len(result.title), line(header),
           line(["-" * w for w in widths])]
    out += [line(row) for row in body]
    for note in result.notes:
        out.append(f"note: {note}")
    return "\n".join(out)


def render_all(results: Sequence[ExperimentResult]) -> str:
    return "\n\n".join(render_table(r) for r in results)


# ----------------------------------------------------------------------
# `repro bench` reports
# ----------------------------------------------------------------------
def bench_report(runs: Sequence[Tuple[str, str, Sequence[BenchResult]]]
                 ) -> dict:
    """Structured report for a batch of (system, suite, results) runs.

    The payload is a pure function of the results — no timestamps, no
    cache statistics — so a warm rerun (or a parallel run) of the same
    plans serializes byte-identically to the cold serial run.
    """
    report_runs = []
    for system, suite, results in runs:
        report_runs.append({
            "system": system,
            "suite": suite,
            "n": len(results),
            "pass_at_k": pass_at_k([r.passed for r in results]),
            "avg_speedup": average_speedup([r.speedup for r in results]),
            "benchmarks": [{"name": r.benchmark,
                            "passed": r.passed,
                            "speedup": r.speedup,
                            "failure": r.failure}
                           for r in results],
        })
    return {"report": "bench", "runs": report_runs}


def render_json(report: dict) -> str:
    """Canonical JSON text (sorted keys, stable float repr)."""
    return json.dumps(report, indent=2, sort_keys=True)


def render_bench(report: dict) -> str:
    """Aligned text summary of a bench report."""
    rows: List[Tuple] = [(run["system"], run["suite"], run["n"],
                          run["pass_at_k"], run["avg_speedup"])
                         for run in report["runs"]]
    table = ExperimentResult(
        experiment="bench",
        title="repro bench",
        columns=("system", "suite", "n", "pass_at_k", "avg_speedup"),
        rows=tuple(rows))
    return render_table(table)


# ----------------------------------------------------------------------
# `repro perf` reports
# ----------------------------------------------------------------------
def render_perf(report: dict) -> str:
    """Aligned text summary of an engine micro-benchmark report."""
    def status(row) -> str:
        if not row["identical"]:
            return "DIFF!"
        return row.get("error") or "="

    rows: List[Tuple] = [
        (row["kernel"], row["instances"], row["reference_ms"],
         row["vectorized_ms"], row["speedup"], status(row))
        for row in report["kernels"]]
    table = ExperimentResult(
        experiment="perf",
        title=f"repro perf ({report['suite']}, param={report['param']})",
        columns=("kernel", "instances", "reference_ms", "vectorized_ms",
                 "speedup", "identical"),
        rows=tuple(rows),
        notes=(f"total {report['total_reference_s']:.2f}s -> "
               f"{report['total_vectorized_s']:.2f}s, aggregate "
               f"{report['aggregate_speedup']:.1f}x, bit-identical: "
               f"{report['bit_identical']}",))
    return render_table(table)


def render_analysis_perf(report: dict) -> str:
    """Aligned text summary of an analysis-engine micro-benchmark."""
    def status(row) -> str:
        if not row["identical"]:
            return "DIFF!"
        return row.get("error") or "="

    rows: List[Tuple] = [
        (row["kernel"], row["deps"], row["queries"],
         row["reference_dep_ms"], row["vectorized_dep_ms"],
         row["reference_legality_ms"], row["vectorized_legality_ms"],
         row["speedup"], status(row))
        for row in report["kernels"]]
    table = ExperimentResult(
        experiment="perf-analysis",
        title=f"repro perf --target analysis ({report['suite']})",
        columns=("kernel", "deps", "queries", "ref_dep_ms", "vec_dep_ms",
                 "ref_leg_ms", "vec_leg_ms", "speedup", "identical"),
        rows=tuple(rows),
        notes=(f"total {report['total_reference_s']:.2f}s -> "
               f"{report['total_vectorized_s']:.2f}s, aggregate "
               f"{report['aggregate_speedup']:.1f}x, bit-identical: "
               f"{report['bit_identical']}",))
    return render_table(table)
