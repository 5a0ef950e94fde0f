"""Experiment harness: run systems over suites through the session.

Most tables and figures reuse the same underlying runs (Table 1 and
Figure 6 share every LOOPRAG/compiler execution; Table 2 and Figure 7
share the base-LLM runs...).  Execution is organized around
:class:`RunPlan` — one (system, suite) description — and
:func:`run_plans`, which turns a batch of plans into one
``(session, request)`` pair per benchmark and serves them all with
one :func:`repro.api.session.optimize_batch` call.  The sessions'
request-keyed result store (``.repro_cache/`` by default) is the one
persisted record, so ``repro bench`` shares records with
``OptimizerSession.optimize``, ``serve-batch`` and ``repro serve``
whenever they share a request and a session spec; the driver's pool
is the one fan-out path.  Plans take their sessions from the
process-wide registry (:func:`repro.api.session.shared_session`), one
per session spec, so every plan over one corpus shares its pipelines
and its retriever.  There is no memo above the store: a caller reads
each plan's results from what :func:`run_plans` returns, and a plan
that several tables share is a store hit after its first run (with
the store off, ``REPRO_NO_CACHE``, it is recomputed).
:func:`results_for` runs one plan.  Plans carry no seed: every plan
runs at the session's default seed, and each pipeline run seeds its
RNG from ``(that seed, program fingerprint)``, so parallel results
are bit-identical to serial ones.

Environment switches: ``REPRO_SUITE_LIMIT=<n>`` subsamples suites for
quick iteration (benches run the full suites); ``REPRO_JOBS=<n>`` sets
the default pool width; ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``
control the persistent store.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..api.session import (DEFAULT_DATASET_SIZE, OptimizationRequest,
                           OptimizerSession, optimize_batch,
                           shared_session)
from ..llm.personas import Persona, registered_name
from ..pipeline.generation import (BASELINE_TIME_LIMIT,
                                   LOOPRAG_TIME_LIMIT)
from ..suites import Suite, lore, polybench, tsvc


@dataclass(frozen=True)
class BenchResult:
    """One benchmark under one system."""

    suite: str
    benchmark: str
    system: str
    passed: bool
    speedup: float
    stage_pass: Tuple[Tuple[str, bool], ...] = ()
    stage_speedup: Tuple[Tuple[str, float], ...] = ()
    failure: Optional[str] = None

    def stage(self, name: str) -> bool:
        return dict(self.stage_pass).get(name, self.passed)

    def speedup_at(self, name: str) -> float:
        return dict(self.stage_speedup).get(name, self.speedup)


def _limited(suite: Suite) -> Suite:
    limit = os.environ.get("REPRO_SUITE_LIMIT")
    if not limit:
        return suite
    return Suite(suite.name, suite.benchmarks[:int(limit)])


def suites() -> Dict[str, Suite]:
    return {"polybench": _limited(polybench()),
            "tsvc": _limited(tsvc()),
            "lore": _limited(lore())}


# ----------------------------------------------------------------------
# plans: one (system, suite) work description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunPlan:
    """Everything needed to run one system over one suite.

    Plans are plain hashable value objects (persona/optimizer by name,
    not by object), so they dedupe and key a caller's results.
    """

    kind: str                       # "looprag" | "basellm" | "compiler"
    suite: str
    persona: Optional[str] = None   # llm kinds
    base: str = "gcc"
    retrieval_method: str = "loop-aware"
    generator: str = "looprag"
    dataset_size: int = DEFAULT_DATASET_SIZE
    optimizer: Optional[str] = None  # compiler kind
    #: None -> the paper's default for the kind (120 s for LOOPRAG
    #: candidates, 600 s for baselines, §6.1)
    time_limit: Optional[float] = None

    def label(self) -> str:
        """The ``system`` string stamped on every BenchResult."""
        if self.kind == "looprag":
            return f"looprag-{self.persona}-{self.base}"
        if self.kind == "basellm":
            return f"base-{self.persona}-{self.base}"
        return self.optimizer or "?"


def looprag_plan(suite_name: str, persona: Union[Persona, str],
                 base: str = "gcc", retrieval_method: str = "loop-aware",
                 generator: str = "looprag",
                 dataset_size: int = DEFAULT_DATASET_SIZE) -> RunPlan:
    return RunPlan(kind="looprag", suite=suite_name,
                   persona=registered_name(persona), base=base,
                   retrieval_method=retrieval_method, generator=generator,
                   dataset_size=dataset_size,
                   time_limit=LOOPRAG_TIME_LIMIT)


def base_llm_plan(suite_name: str, persona: Union[Persona, str],
                  base: str = "gcc") -> RunPlan:
    return RunPlan(kind="basellm", suite=suite_name,
                   persona=registered_name(persona), base=base)


def compiler_plan(suite_name: str, optimizer_name: str) -> RunPlan:
    return RunPlan(kind="compiler", suite=suite_name,
                   optimizer=optimizer_name, time_limit=BASELINE_TIME_LIMIT)


# ----------------------------------------------------------------------
# plans -> (session, request) batches
# ----------------------------------------------------------------------
def _plan_session(plan: RunPlan) -> OptimizerSession:
    """The store-backed session a plan's benchmarks run through (at the
    session's default seed)."""
    spec: Dict[str, Any]
    if plan.kind == "looprag":
        spec = {"dataset_size": plan.dataset_size,
                "generator": plan.generator,
                "retrieval_method": plan.retrieval_method,
                "base_compiler": plan.base}
    elif plan.kind in ("basellm", "compiler"):
        spec = {"base_compiler": plan.base}
    else:
        raise ValueError(f"unknown plan kind {plan.kind!r}")
    return shared_session(**spec)


def _plan_request(plan: RunPlan, bench) -> OptimizationRequest:
    if plan.kind == "compiler":
        return OptimizationRequest.make(
            bench.program, bench.perf, system="compiler",
            optimizer=plan.optimizer, time_limit=plan.time_limit)
    return OptimizationRequest.make(
        bench.program, bench.perf, bench.test,
        system=("looprag" if plan.kind == "looprag" else "basellm"),
        persona=plan.persona, time_limit=plan.time_limit)


def run_plans(plans: Sequence[RunPlan], jobs: Optional[int] = None
              ) -> List[List[BenchResult]]:
    """Run a batch of plans; returns results aligned with ``plans``.

    Each distinct plan becomes one request per benchmark, all served
    by one :func:`optimize_batch` call (store hits first, misses across
    one ``jobs``-wide pool, ``REPRO_JOBS``, default serial), and is
    reassembled in suite order, so every path yields identical lists.
    """
    by_plan: Dict[RunPlan, List[BenchResult]] = {
        plan: [] for plan in plans}
    named = suites()
    runs = [(plan, bench) for plan in by_plan
            for bench in named[plan.suite]]
    results = optimize_batch(
        [(_plan_session(plan), _plan_request(plan, bench))
         for plan, bench in runs], jobs)
    for (plan, bench), result in zip(runs, results):
        by_plan[plan].append(BenchResult(
            suite=plan.suite, benchmark=bench.name, system=plan.label(),
            passed=result.passed, speedup=result.speedup,
            stage_pass=result.stage_pass,
            stage_speedup=result.stage_speedup,
            failure=result.failure))
    return [by_plan[plan] for plan in plans]


def results_for(plan: RunPlan) -> List[BenchResult]:
    """Results of one plan (store-backed)."""
    return run_plans([plan])[0]


# ----------------------------------------------------------------------
# convenience aggregations
# ----------------------------------------------------------------------
def speedups_by_benchmark(results: Sequence[BenchResult]
                          ) -> Dict[str, float]:
    return {r.benchmark: r.speedup for r in results}
