"""One function per evaluation artifact (every table and figure).

Each function returns an :class:`ExperimentResult` whose rows mirror the
paper's table rows / figure series; ``repro.evaluation.reporting`` renders
them.

Experiments declare every (system, suite) run they need as one batch of
:class:`~repro.evaluation.harness.RunPlan` and read each plan's results
from what that one ``run_plans`` call returns — the harness turns the
whole batch into one request per benchmark, resolves every request
against the session result store and fans the misses across one worker
pool (``REPRO_JOBS``), instead of executing one run at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..analysis.properties import FIG9_PROPERTIES, cluster_distribution
from ..compilers import OPTIMIZERS
from ..llm.personas import DEEPSEEK_V3, GPT_4O
from ..suites import FIG14_KERNELS
from ..synthesis.dataset import cached_dataset, transformation_kinds
from ..transforms.recipe import LOOP_KINDS
from ..api.session import DEFAULT_SEED
from .harness import (BenchResult, RunPlan, base_llm_plan, compiler_plan,
                      looprag_plan, run_plans, speedups_by_benchmark)
from .metrics import average_speedup, pass_at_k, percent_faster

SUITE_NAMES = ("polybench", "tsvc", "lore")
PERSONAS = (DEEPSEEK_V3, GPT_4O)


def _run(plans: Sequence[RunPlan]) -> Dict[RunPlan, List[BenchResult]]:
    """Each plan's results, from one ``run_plans`` batch."""
    return dict(zip(plans, run_plans(plans)))


def _looprag_gcc_plans(suites=SUITE_NAMES, generators=("looprag",),
                       methods=("loop-aware",)):
    """The standard persona-sweep plan batch most experiments share."""
    return [looprag_plan(suite, persona, "gcc", retrieval_method=method,
                         generator=generator)
            for generator in generators for method in methods
            for persona in PERSONAS for suite in suites]


def _base_llm_gcc_plans(suites=SUITE_NAMES):
    return [base_llm_plan(suite, persona, "gcc")
            for persona in PERSONAS for suite in suites]


@dataclass(frozen=True)
class ExperimentResult:
    """Structured result of one table/figure reproduction."""

    experiment: str
    title: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple, ...]
    notes: Tuple[str, ...] = ()


def _row_stats(results) -> Tuple[float, float]:
    return (pass_at_k([r.passed for r in results]),
            average_speedup([r.speedup for r in results]))


def _stat_cells(runs, plan_for: Callable[[str], RunPlan]) -> List:
    """pass@k and average speedup of ``plan_for(suite)`` per suite."""
    return [stat for suite in SUITE_NAMES
            for stat in _row_stats(runs[plan_for(suite)])]


def _faster_cells(runs, ours: Callable[[str], RunPlan],
                  theirs: Callable[[str], RunPlan]) -> List:
    """% of benchmarks where ``ours(suite)`` beats ``theirs(suite)``."""
    return [percent_faster(speedups_by_benchmark(runs[ours(suite)]),
                           speedups_by_benchmark(runs[theirs(suite)]))
            for suite in SUITE_NAMES]


# ----------------------------------------------------------------------
# Figure 1 — motivation: GPT-4 vs PLuTo
# ----------------------------------------------------------------------
def fig1_motivation() -> ExperimentResult:
    """% of GPT-4 codes faster (↑), slower (↓) or non-equivalent (≠)
    than PLuTo's, on PolyBench and TSVC."""
    runs = _run([base_llm_plan(suite, GPT_4O)
                 for suite in ("polybench", "tsvc")]
                + [compiler_plan(suite, "pluto")
                   for suite in ("polybench", "tsvc")])
    rows = []
    for suite in ("polybench", "tsvc"):
        gpt = runs[base_llm_plan(suite, GPT_4O)]
        pluto = runs[compiler_plan(suite, "pluto")]
        pluto_speed = speedups_by_benchmark(pluto)
        up = down = neq = 0
        for r in gpt:
            if not r.passed:
                neq += 1
            elif r.speedup > pluto_speed.get(r.benchmark, 0.0):
                up += 1
            else:
                down += 1
        total = max(1, len(gpt))
        rows.append((suite, 100.0 * up / total, 100.0 * down / total,
                     100.0 * neq / total))
    return ExperimentResult(
        experiment="fig1",
        title="Figure 1: GPT-4 vs PLuTo on PolyBench/TSVC",
        columns=("suite", "faster_pct", "slower_pct", "not_equiv_pct"),
        rows=tuple(rows),
        notes=("expected shape: GPT-4 mostly slower than PLuTo, with a "
               "visible non-equivalent fraction",))


# ----------------------------------------------------------------------
# Table 1 / Figure 6 — against compilers
# ----------------------------------------------------------------------
_LOOPRAG_CONFIGS = (
    ("LD-GCC", DEEPSEEK_V3, "gcc"), ("LG-GCC", GPT_4O, "gcc"),
    ("LD-Clang", DEEPSEEK_V3, "clang"), ("LG-Clang", GPT_4O, "clang"),
    ("LD-ICX", DEEPSEEK_V3, "icx"), ("LG-ICX", GPT_4O, "icx"),
)

#: Graphite cannot run TSVC (Appendix C); Perspective's profiling times
#: out on TSVC's iteration counts (§6.2.1)
_COMPILER_SUITES = {
    "graphite": ("polybench", "lore"),
    "polly": SUITE_NAMES,
    "perspective": ("polybench", "lore"),
    "icx": SUITE_NAMES,
}


def tab1_compilers() -> ExperimentResult:
    """Pass@k and speedups: LOOPRAG configurations vs four compilers."""
    runs = _run([looprag_plan(suite, persona, base)
                 for _, persona, base in _LOOPRAG_CONFIGS
                 for suite in SUITE_NAMES]
                + [compiler_plan(suite, compiler)
                   for compiler, allowed in _COMPILER_SUITES.items()
                   for suite in allowed])
    rows = [tuple([label] + _stat_cells(
                runs, lambda suite: looprag_plan(suite, persona, base)))
            for label, persona, base in _LOOPRAG_CONFIGS]
    for compiler in ("graphite", "polly", "perspective", "icx"):
        cells: List = [compiler]
        for suite in SUITE_NAMES:
            cells += (_row_stats(runs[compiler_plan(suite, compiler)])
                      if suite in _COMPILER_SUITES[compiler]
                      else (None, None))
        rows.append(tuple(cells))
    return ExperimentResult(
        experiment="tab1",
        title="Table 1: LOOPRAG vs baseline compilers",
        columns=("system", "poly_pass", "poly_speedup", "tsvc_pass",
                 "tsvc_speedup", "lore_pass", "lore_speedup"),
        rows=tuple(rows),
        notes=("expected shape: LOOPRAG >> Graphite/ICX everywhere; "
               "Polly strong on PolyBench/TSVC; Perspective low pass@k",))


def fig6_faster_vs_compilers() -> ExperimentResult:
    """% of benchmarks where LOOPRAG(DeepSeek) beats each compiler
    (matched base compiler)."""
    runs = _run([looprag_plan(suite, DEEPSEEK_V3,
                              OPTIMIZERS[compiler].base_compiler)
                 for compiler, allowed in _COMPILER_SUITES.items()
                 for suite in allowed]
                + [compiler_plan(suite, compiler)
                   for compiler, allowed in _COMPILER_SUITES.items()
                   for suite in allowed])
    rows = []
    for compiler in ("graphite", "polly", "perspective", "icx"):
        base = OPTIMIZERS[compiler].base_compiler
        cells: List = [compiler]
        for suite in SUITE_NAMES:
            if suite not in _COMPILER_SUITES[compiler]:
                cells.append(None)
                continue
            ours = speedups_by_benchmark(
                runs[looprag_plan(suite, DEEPSEEK_V3, base)])
            theirs = speedups_by_benchmark(
                runs[compiler_plan(suite, compiler)])
            cells.append(percent_faster(ours, theirs))
        rows.append(tuple(cells))
    return ExperimentResult(
        experiment="fig6",
        title="Figure 6: % faster codes vs compilers",
        columns=("compiler", "polybench", "tsvc", "lore"),
        rows=tuple(rows),
        notes=("expected shape: >40% vs graphite/icx/perspective, "
               "strongest on LORE",))


# ----------------------------------------------------------------------
# Table 2 / Figure 7 — against LLM-based methods
# ----------------------------------------------------------------------
#: literature rows quoted from the paper (neither system is released)
_PCAOT_ROWS = (("PCAOT", "GPT-4", 65.35, 1.80, None, None, None, None),
               ("PCAOT", "CLLama-70B", 63.35, 2.26, None, None, None, None))
_LLMVEC_ROW = ("LLM-Vectorizer", "GPT-4", None, None, 68.00, 5.25,
               None, None)


def tab2_llms() -> ExperimentResult:
    """LOOPRAG vs base LLMs, plus PCAOT / LLM-Vectorizer as reported."""
    runs = _run(_looprag_gcc_plans() + _base_llm_gcc_plans())
    rows = [tuple(["LOOPRAG", persona.model_id] + _stat_cells(
                runs, lambda suite: looprag_plan(suite, persona, "gcc")))
            for persona in PERSONAS]
    rows += [tuple(["BaseLLM", persona.model_id] + _stat_cells(
                 runs, lambda suite: base_llm_plan(suite, persona, "gcc")))
             for persona in PERSONAS]
    rows.extend(_PCAOT_ROWS)
    rows.append(_LLMVEC_ROW)
    return ExperimentResult(
        experiment="tab2",
        title="Table 2: LOOPRAG vs LLM-based methods",
        columns=("method", "llm", "poly_pass", "poly_speedup",
                 "tsvc_pass", "tsvc_speedup", "lore_pass", "lore_speedup"),
        rows=tuple(rows),
        notes=("PCAOT / LLM-Vectorizer rows are quoted from their papers "
               "(no released software, §6.1)",
               "expected shape: comparable pass@k, ~5-12x speedup gain "
               "over base LLMs"))


def fig7_faster_vs_llms() -> ExperimentResult:
    """% of benchmarks where LOOPRAG beats its own base LLM."""
    runs = _run(_looprag_gcc_plans() + _base_llm_gcc_plans())
    rows = [tuple([persona.model_id] + _faster_cells(
                runs, lambda suite: looprag_plan(suite, persona, "gcc"),
                lambda suite: base_llm_plan(suite, persona, "gcc")))
            for persona in PERSONAS]
    return ExperimentResult(
        experiment="fig7",
        title="Figure 7: % faster codes vs base LLMs",
        columns=("llm", "polybench", "tsvc", "lore"),
        rows=tuple(rows),
        notes=("expected shape: ~50-60% of codes faster",))


# ----------------------------------------------------------------------
# Table 3 / Figure 8 — against PLuTo
# ----------------------------------------------------------------------
def tab3_pluto() -> ExperimentResult:
    """Can LOOPRAG surpass its demonstration source?"""
    runs = _run(_looprag_gcc_plans()
                + [compiler_plan(suite, "pluto") for suite in SUITE_NAMES])
    rows = [tuple(["LOOPRAG", persona.model_id] + _stat_cells(
                runs, lambda suite: looprag_plan(suite, persona, "gcc")))
            for persona in PERSONAS]
    rows.append(tuple(["PLuTo", "-"] + _stat_cells(
        runs, lambda suite: compiler_plan(suite, "pluto"))))
    return ExperimentResult(
        experiment="tab3",
        title="Table 3: LOOPRAG vs PLuTo",
        columns=("method", "llm", "poly_pass", "poly_speedup",
                 "tsvc_pass", "tsvc_speedup", "lore_pass", "lore_speedup"),
        rows=tuple(rows),
        notes=("expected shape: PLuTo wins on PolyBench; LOOPRAG wins on "
               "TSVC and LORE (unprofitable tiling + timeouts hurt "
               "PLuTo there)",))


def fig8_faster_vs_pluto() -> ExperimentResult:
    runs = _run(_looprag_gcc_plans()
                + [compiler_plan(suite, "pluto") for suite in SUITE_NAMES])
    rows = [tuple([persona.model_id] + _faster_cells(
                runs, lambda suite: looprag_plan(suite, persona, "gcc"),
                lambda suite: compiler_plan(suite, "pluto")))
            for persona in PERSONAS]
    return ExperimentResult(
        experiment="fig8",
        title="Figure 8: % faster codes vs PLuTo",
        columns=("llm", "polybench", "tsvc", "lore"),
        rows=tuple(rows),
        notes=("expected shape: PLuTo ahead on PolyBench (<40% faster), "
               "LOOPRAG ahead (~60%) on TSVC/LORE",))


# ----------------------------------------------------------------------
# Figure 9 / Table 4 / Table 5 / Figure 10 — synthesis ablation
# ----------------------------------------------------------------------
#: corpus studies use a larger corpus than the pipeline's retrieval set so
#: the rare transformation triggers (distribution) are represented — the
#: paper's corpus is 135,364 examples
CORPUS_STUDY_SIZE = 1000


def fig9_property_distribution() -> ExperimentResult:
    """Cluster distributions of loop properties for both generators."""
    rows = []
    for generator in ("looprag", "colagen"):
        dataset = cached_dataset(CORPUS_STUDY_SIZE, DEFAULT_SEED, generator)
        dist = cluster_distribution([e.example for e in dataset])
        for prop in FIG9_PROPERTIES:
            buckets = dist[prop]
            rows.append((generator, prop, buckets["A"], buckets["B"],
                         buckets["C"], buckets["D"]))
    return ExperimentResult(
        experiment="fig9",
        title="Figure 9: loop property distribution (LOOPRAG vs COLA-Gen)",
        columns=("generator", "property", "A", "B", "C", "D"),
        rows=tuple(rows),
        notes=("expected shape: COLA-Gen concentrated in 1-2 clusters per "
               "property; LOOPRAG spread over all four",))


def tab4_transform_kinds() -> ExperimentResult:
    """Transformation kinds triggered in each generator's corpus."""
    rows = []
    for generator in ("looprag", "colagen"):
        dataset = cached_dataset(CORPUS_STUDY_SIZE, DEFAULT_SEED, generator)
        kinds = transformation_kinds(dataset)
        rows.append(tuple([generator] + [
            "yes" if kinds.get(kind, 0) > 0 else "no"
            for kind in LOOP_KINDS]))
    return ExperimentResult(
        experiment="tab4",
        title="Table 4: triggered loop transformations per generator",
        columns=("generator",) + LOOP_KINDS,
        rows=tuple(rows),
        notes=("expected shape: LOOPRAG triggers all six; COLA-Gen only "
               "tiling/interchange/skewing",))


def tab5_colagen() -> ExperimentResult:
    """Full pipeline backed by COLA-Gen demonstrations vs LOOPRAG's."""
    runs = _run(_looprag_gcc_plans(generators=("looprag", "colagen")))
    rows = [tuple([generator, persona.model_id] + _stat_cells(
                runs, lambda suite: looprag_plan(suite, persona, "gcc",
                                                 generator=generator)))
            for generator in ("looprag", "colagen")
            for persona in PERSONAS]
    return ExperimentResult(
        experiment="tab5",
        title="Table 5: LOOPRAG vs COLA-Gen demonstration corpora",
        columns=("corpus", "llm", "poly_pass", "poly_speedup",
                 "tsvc_pass", "tsvc_speedup", "lore_pass", "lore_speedup"),
        rows=tuple(rows),
        notes=("expected shape: LOOPRAG corpus ahead, most clearly on "
               "PolyBench",))


def fig10_faster_vs_colagen() -> ExperimentResult:
    runs = _run(_looprag_gcc_plans(generators=("looprag", "colagen")))
    rows = [tuple([persona.model_id] + _faster_cells(
                runs, lambda suite: looprag_plan(suite, persona, "gcc"),
                lambda suite: looprag_plan(suite, persona, "gcc",
                                           generator="colagen")))
            for persona in PERSONAS]
    return ExperimentResult(
        experiment="fig10",
        title="Figure 10: % faster codes vs COLA-Gen corpus",
        columns=("llm", "polybench", "tsvc", "lore"),
        rows=tuple(rows))


# ----------------------------------------------------------------------
# Table 6 / Figure 11 — retrieval ablation
# ----------------------------------------------------------------------
_TAB6_METHODS = (("Loop-aware", "loop-aware"), ("BM25", "bm25"),
                 ("Weighted Score", "weighted"))


def tab6_retrieval() -> ExperimentResult:
    runs = _run(_looprag_gcc_plans(
        methods=[m for _, m in _TAB6_METHODS]))
    rows = [tuple([label, persona.model_id] + _stat_cells(
                runs, lambda suite: looprag_plan(suite, persona, "gcc",
                                                 retrieval_method=method)))
            for label, method in _TAB6_METHODS for persona in PERSONAS]
    return ExperimentResult(
        experiment="tab6",
        title="Table 6: retrieval ablation (LAScore vs BM25 vs weighted)",
        columns=("method", "llm", "poly_pass", "poly_speedup",
                 "tsvc_pass", "tsvc_speedup", "lore_pass", "lore_speedup"),
        rows=tuple(rows),
        notes=("expected shape: similar pass@k across methods; loop-aware "
               "ahead on balance",))


def fig11_faster_retrieval() -> ExperimentResult:
    runs = _run(_looprag_gcc_plans(
        methods=[m for _, m in _TAB6_METHODS]))
    rows = [tuple([f"loop-aware vs {label}", persona.model_id]
                  + _faster_cells(
                      runs, lambda suite: looprag_plan(suite, persona, "gcc"),
                      lambda suite: looprag_plan(suite, persona, "gcc",
                                                 retrieval_method=method)))
            for label, method in _TAB6_METHODS[1:] for persona in PERSONAS]
    return ExperimentResult(
        experiment="fig11",
        title="Figure 11: % faster codes, loop-aware vs other retrieval",
        columns=("comparison", "llm", "polybench", "tsvc", "lore"),
        rows=tuple(rows))


# ----------------------------------------------------------------------
# Table 7 / Figure 12 — feedback ablation
# ----------------------------------------------------------------------
def tab7_feedback() -> ExperimentResult:
    """Pass@k improvements per feedback round (stage snapshots)."""
    runs = _run(_looprag_gcc_plans())
    rows = []
    for persona in PERSONAS:
        first = ["First round of compilation", persona.model_id]
        second = ["Second round of compilation", persona.model_id]
        testrank = ["Testing results + rankings", persona.model_id]
        for suite in SUITE_NAMES:
            results = runs[looprag_plan(suite, persona, "gcc")]
            s1 = pass_at_k([r.stage("step1") for r in results])
            s2 = pass_at_k([r.stage("step2") for r in results])
            s3 = pass_at_k([r.stage("step3") for r in results])
            s4p = pass_at_k([r.stage("step4_prefix") for r in results])
            s4 = pass_at_k([r.stage("step4") for r in results])
            first.append(s2 - s1)
            second.append(s4 - s4p)
            testrank.append(s3 - s2)
        rows += [tuple(first), tuple(second), tuple(testrank)]
    return ExperimentResult(
        experiment="tab7",
        title="Table 7: pass@k improvement per feedback round",
        columns=("feedback", "llm", "polybench", "tsvc", "lore"),
        rows=tuple(rows),
        notes=("expected shape: first compilation round largest; second "
               "round and test/rank feedback moderate",))


def fig12_feedback_faster() -> ExperimentResult:
    """% of benchmarks whose final code beats the step-2 best (the gain
    attributable to testing-results + ranking feedback)."""
    runs = _run(_looprag_gcc_plans())
    rows = []
    for persona in PERSONAS:
        cells: List = [persona.model_id]
        for suite in SUITE_NAMES:
            results = runs[looprag_plan(suite, persona, "gcc")]
            improved = [r.speedup_at("step4") > r.speedup_at("step2")
                        for r in results]
            cells.append(100.0 * sum(improved) / max(1, len(improved)))
        rows.append(tuple(cells))
    return ExperimentResult(
        experiment="fig12",
        title="Figure 12: % faster codes from test+rank feedback",
        columns=("llm", "polybench", "tsvc", "lore"),
        rows=tuple(rows),
        notes=("expected shape: ~40-45% of codes improve",))


# ----------------------------------------------------------------------
# Figure 14 — per-benchmark speedups (Appendix F)
# ----------------------------------------------------------------------
def fig14_per_benchmark() -> ExperimentResult:
    runs = _run(_looprag_gcc_plans(suites=("polybench", "tsvc"))
                + _base_llm_gcc_plans(suites=("polybench", "tsvc")))
    rows = []
    poly_lr = {p.name: speedups_by_benchmark(
        runs[looprag_plan("polybench", p, "gcc")]) for p in PERSONAS}
    poly_bl = {p.name: speedups_by_benchmark(
        runs[base_llm_plan("polybench", p, "gcc")]) for p in PERSONAS}
    tsvc_lr = {p.name: speedups_by_benchmark(
        runs[looprag_plan("tsvc", p, "gcc")]) for p in PERSONAS}
    tsvc_bl = {p.name: speedups_by_benchmark(
        runs[base_llm_plan("tsvc", p, "gcc")]) for p in PERSONAS}
    for name in FIG14_KERNELS:
        rows.append(("polybench", name,
                     poly_lr["deepseek"].get(name),
                     poly_lr["gpt4"].get(name),
                     poly_bl["deepseek"].get(name),
                     poly_bl["gpt4"].get(name)))
    for name in ("s233", "s319", "s000", "s1119", "s231", "vdotr"):
        rows.append(("tsvc", name,
                     tsvc_lr["deepseek"].get(name),
                     tsvc_lr["gpt4"].get(name),
                     tsvc_bl["deepseek"].get(name),
                     tsvc_bl["gpt4"].get(name)))
    return ExperimentResult(
        experiment="fig14",
        title="Figure 14: per-benchmark speedups, LOOPRAG vs base LLMs",
        columns=("suite", "benchmark", "looprag_deepseek", "looprag_gpt4",
                 "base_deepseek", "base_gpt4"),
        rows=tuple(rows),
        notes=("expected shape: LOOPRAG far ahead on gemm/syrk and the "
               "s233/s319 interchange outliers; stencils (jacobi-2d, "
               "fdtd-2d, heat-3d) remain weak (Appendix H)",))


ALL_EXPERIMENTS = {
    "fig1": fig1_motivation,
    "tab1": tab1_compilers,
    "fig6": fig6_faster_vs_compilers,
    "tab2": tab2_llms,
    "fig7": fig7_faster_vs_llms,
    "tab3": tab3_pluto,
    "fig8": fig8_faster_vs_pluto,
    "fig9": fig9_property_distribution,
    "tab4": tab4_transform_kinds,
    "tab5": tab5_colagen,
    "fig10": fig10_faster_vs_colagen,
    "tab6": tab6_retrieval,
    "fig11": fig11_faster_retrieval,
    "tab7": tab7_feedback,
    "fig12": fig12_feedback_faster,
    "fig14": fig14_per_benchmark,
}
