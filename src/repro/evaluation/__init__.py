"""Evaluation: metrics, harness, store and reporting."""

from ..api.session import default_jobs
from .experiments import ALL_EXPERIMENTS, ExperimentResult
from .harness import (BenchResult, RunPlan, base_llm_plan, compiler_plan,
                      evaluate_suite, looprag_plan, results_for, run_plans,
                      shared_retriever, speedups_by_benchmark, suites)
from .metrics import (OUTLIER_CAP, average_speedup, pass_at_k,
                      percent_faster, speedup_ratio)
from .reporting import (bench_report, render_all, render_bench,
                        render_json, render_table)
from .store import ResultStore, active_store, cache_stats

__all__ = [
    "ALL_EXPERIMENTS", "ExperimentResult",
    "BenchResult", "RunPlan", "base_llm_plan", "compiler_plan",
    "evaluate_suite", "looprag_plan", "results_for", "run_plans",
    "shared_retriever", "speedups_by_benchmark", "suites",
    "OUTLIER_CAP", "average_speedup", "pass_at_k", "percent_faster",
    "speedup_ratio",
    "default_jobs",
    "bench_report", "render_all", "render_bench", "render_json",
    "render_table",
    "ResultStore", "active_store", "cache_stats",
]
