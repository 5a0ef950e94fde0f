"""Ablations over the design choices the paper fixes.

These are not paper artifacts; they probe the knobs the paper fixes
(tile size 32, K = 7 candidates, 135k-example corpus, the base-LLM
generation) over fixed value lists and check that the fixed values
sit in sensible regimes.
"""

from __future__ import annotations

from typing import List

from ..api.session import OptimizationRequest, shared_session
from ..compilers.base import BASE_COMPILERS
from ..compilers.pluto import Pluto
from ..llm.personas import DEEPSEEK_V25, DEEPSEEK_V3, GPT_4O
from ..machine.analytical import estimate_cached
from ..machine.model import DEFAULT_MACHINE
from .experiments import ExperimentResult
from .harness import looprag_plan, run_plans, suites
from .metrics import average_speedup, pass_at_k

#: the swept values of each design choice; the paper's sits inside each
TILE_SIZES = (8, 16, 32, 64, 128)
CORPUS_SIZES = (30, 100, 300)
CANDIDATE_KS = (1, 3, 7)


def ablation_tile_size() -> ExperimentResult:
    """PLuTo's PolyBench speedup as a function of tile size.

    The paper (and PLuTo's default) uses 32; the sweep should show a
    plateau around 16-64 with degradation at the extremes (too small:
    per-tile overhead; too large: tiles exceed the cache share).
    """
    suite = suites()["polybench"]
    base = BASE_COMPILERS["gcc"]
    rows: List = []
    for size in TILE_SIZES:
        pluto = Pluto(tile_size=size)
        speedups = []
        for bench in suite:
            baseline = estimate_cached(base.finalize(bench.program),
                                       bench.perf, DEFAULT_MACHINE).seconds
            result = pluto.optimize(bench.program, bench.perf)
            seconds = estimate_cached(base.finalize(result.program),
                                      bench.perf, DEFAULT_MACHINE).seconds
            speedups.append(baseline / seconds if seconds > 0 else 0.0)
        rows.append((size, average_speedup(speedups)))
    return ExperimentResult(
        experiment="abl-tile",
        title="Ablation: PLuTo tile size on PolyBench",
        columns=("tile_size", "avg_speedup"),
        rows=tuple(rows),
        notes=("design choice: 32 (the paper's and PLuTo's default)",))


def ablation_corpus_size() -> ExperimentResult:
    """LOOPRAG quality as a function of demonstration-corpus size."""
    runs = run_plans([looprag_plan("polybench", DEEPSEEK_V3,
                                   dataset_size=size)
                      for size in CORPUS_SIZES])
    rows: List = []
    for size, results in zip(CORPUS_SIZES, runs):
        rows.append((size, pass_at_k([r.passed for r in results]),
                     average_speedup([r.speedup for r in results])))
    return ExperimentResult(
        experiment="abl-corpus",
        title="Ablation: demonstration corpus size (PolyBench)",
        columns=("corpus_size", "pass_at_k", "avg_speedup"),
        rows=tuple(rows),
        notes=("the paper synthesizes 135,364 examples; retrieval quality "
               "saturates far earlier at our target count",))


def ablation_candidates() -> ExperimentResult:
    """Pass@k / speedup as a function of the candidate count K (§5: 7)."""
    rows: List = []
    requests = [OptimizationRequest.make(bench.program, bench.perf,
                                         bench.test, persona=DEEPSEEK_V3)
                for bench in suites()["polybench"]]
    for k in CANDIDATE_KS:
        session = shared_session(k=k)
        results = [session.optimize(request) for request in requests]
        rows.append((k, pass_at_k([r.passed for r in results]),
                     average_speedup([r.speedup for r in results])))
    return ExperimentResult(
        experiment="abl-k",
        title="Ablation: number of generated candidates K (PolyBench)",
        columns=("k", "pass_at_k", "avg_speedup"),
        rows=tuple(rows),
        notes=("the paper sets K = 7",))


def ablation_personas() -> ExperimentResult:
    """LLM generation ablation (§6.2.2): deepseek-v2.5 trails GPT-4o,
    which trails deepseek-v3 — the paper's release-time observation."""
    personas = (DEEPSEEK_V3, GPT_4O, DEEPSEEK_V25)
    runs = run_plans([looprag_plan("polybench", persona)
                      for persona in personas])
    rows: List = []
    for persona, results in zip(personas, runs):
        rows.append((persona.model_id,
                     pass_at_k([r.passed for r in results]),
                     average_speedup([r.speedup for r in results])))
    return ExperimentResult(
        experiment="abl-personas",
        title="Ablation: base-LLM generation (PolyBench)",
        columns=("model", "pass_at_k", "avg_speedup"),
        rows=tuple(rows),
        notes=("§6.2.2: deepseek-v2.5 delivers lower speedups than GPT-4 "
               "on PolyBench; v3 leads",))


ABLATIONS = {
    "abl-tile": ablation_tile_size,
    "abl-corpus": ablation_corpus_size,
    "abl-k": ablation_candidates,
    "abl-personas": ablation_personas,
}
