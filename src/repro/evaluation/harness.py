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
is the one fan-out path.  An in-process ``_RUN_CACHE``
memoizes each plan's results per ``REPRO_SUITE_LIMIT``, so an
experiment run with the store off still computes a plan that several
tables share once.  :func:`results_for` runs one plan.  Each pipeline
run seeds its RNG from ``(seed, program fingerprint)``, so parallel
results are bit-identical to serial ones.

Environment switches: ``REPRO_SUITE_LIMIT=<n>`` subsamples suites for
quick iteration (benches run the full suites); ``REPRO_JOBS=<n>`` sets
the default pool width; ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``
control the persistent store.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..api.session import (DEFAULT_DATASET_SIZE, DEFAULT_SEED,
                           OptimizationRequest, OptimizerSession,
                           optimize_batch)
from ..compilers import OPTIMIZER_BASE
from ..llm.personas import PERSONAS, Persona
from ..pipeline.generation import (BASELINE_TIME_LIMIT,
                                   LOOPRAG_TIME_LIMIT)
from ..retrieval.retriever import Retriever
from ..suites import Suite, lore, polybench, tsvc
from ..synthesis.dataset import cached_dataset


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


#: in-process memo per (plan, REPRO_SUITE_LIMIT); no code signature —
#: code cannot change inside one process
_RUN_CACHE: Dict[Tuple["RunPlan", Optional[str]], List[BenchResult]] = {}
_RETRIEVER_CACHE: Dict[Tuple, Retriever] = {}
_RETRIEVER_LOCK = threading.Lock()
_SUITE_CACHE: Dict[Tuple, Suite] = {}


def shared_retriever(size: int = DEFAULT_DATASET_SIZE,
                     seed: int = DEFAULT_SEED,
                     generator: str = "looprag",
                     method: str = "loop-aware") -> Retriever:
    """Memoized retriever per (dataset_size, seed, generator, method).

    The index itself is method-agnostic (``method`` is a per-``rank``
    argument), so method keys over the same corpus alias one instance
    instead of re-indexing; the lock keeps concurrent threads (the
    serve daemon's request handlers, overlapping batches) from
    constructing the same retriever twice.
    """
    key = (size, seed, generator, method)
    got = _RETRIEVER_CACHE.get(key)
    if got is not None:
        return got
    with _RETRIEVER_LOCK:
        got = _RETRIEVER_CACHE.get(key)
        if got is None:
            got = next((r for k, r in _RETRIEVER_CACHE.items()
                        if k[:3] == key[:3]), None)
            if got is None:
                got = Retriever(cached_dataset(size, seed, generator))
            _RETRIEVER_CACHE[key] = got
    return got


def _plan_suite(name: str) -> Suite:
    key = (name, os.environ.get("REPRO_SUITE_LIMIT"))
    if key not in _SUITE_CACHE:
        _SUITE_CACHE[key] = suites()[name]
    return _SUITE_CACHE[key]


# ----------------------------------------------------------------------
# plans: one (system, suite) work description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunPlan:
    """Everything needed to run one system over one suite.

    Plans are plain hashable value objects (persona/optimizer by name,
    not by object) so they dedupe and key the in-process memo.
    """

    kind: str                       # "looprag" | "basellm" | "compiler"
    suite: str
    persona: Optional[str] = None   # llm kinds
    base: str = "gcc"
    retrieval_method: str = "loop-aware"
    generator: str = "looprag"
    dataset_size: int = DEFAULT_DATASET_SIZE
    seed: int = DEFAULT_SEED
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


def _persona_name(persona: Union[Persona, str]) -> str:
    name = persona.name if isinstance(persona, Persona) else persona
    if name not in PERSONAS:
        raise ValueError(f"unknown persona {name!r}; "
                         f"expected one of {tuple(PERSONAS)}")
    return name


def looprag_plan(suite_name: str, persona: Union[Persona, str],
                 base: str = "gcc", retrieval_method: str = "loop-aware",
                 generator: str = "looprag",
                 dataset_size: int = DEFAULT_DATASET_SIZE,
                 seed: int = DEFAULT_SEED) -> RunPlan:
    return RunPlan(kind="looprag", suite=suite_name,
                   persona=_persona_name(persona), base=base,
                   retrieval_method=retrieval_method, generator=generator,
                   dataset_size=dataset_size, seed=seed,
                   time_limit=LOOPRAG_TIME_LIMIT)


def base_llm_plan(suite_name: str, persona: Union[Persona, str],
                  base: str = "gcc", seed: int = DEFAULT_SEED) -> RunPlan:
    return RunPlan(kind="basellm", suite=suite_name,
                   persona=_persona_name(persona), base=base, seed=seed)


def compiler_plan(suite_name: str, optimizer_name: str,
                  time_limit: float = BASELINE_TIME_LIMIT) -> RunPlan:
    return RunPlan(kind="compiler", suite=suite_name,
                   optimizer=optimizer_name, time_limit=time_limit)


# ----------------------------------------------------------------------
# plans -> (session, request) batches
# ----------------------------------------------------------------------
#: plan sessions, one per session spec, so every plan over one corpus
#: shares its pipelines
_SESSION_CACHE: Dict[Tuple, OptimizerSession] = {}


def _plan_session(plan: RunPlan) -> OptimizerSession:
    """The store-backed session a plan's benchmarks run through."""
    spec: Dict[str, Any]
    if plan.kind == "looprag":
        spec = {"dataset_size": plan.dataset_size, "seed": plan.seed,
                "generator": plan.generator,
                "retrieval_method": plan.retrieval_method,
                "base_compiler": plan.base}
    elif plan.kind in ("basellm", "compiler"):
        spec = {"seed": plan.seed, "base_compiler": plan.base}
    else:
        raise ValueError(f"unknown plan kind {plan.kind!r}")
    key = tuple(sorted(spec.items()))
    if key not in _SESSION_CACHE:
        _SESSION_CACHE[key] = OptimizerSession(**spec)
    return _SESSION_CACHE[key]


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

    Plans not yet memoized in this process become one request per
    benchmark, all served by one :func:`optimize_batch` call (store
    hits first, misses across one ``jobs``-wide pool, ``REPRO_JOBS``,
    default serial), and are reassembled in suite order, so every path
    yields identical lists.
    """
    limit = os.environ.get("REPRO_SUITE_LIMIT")
    todo = [plan for plan in dict.fromkeys(plans)
            if (plan, limit) not in _RUN_CACHE]
    runs = [(plan, bench) for plan in todo
            for bench in _plan_suite(plan.suite)]
    results = optimize_batch(
        [(_plan_session(plan), _plan_request(plan, bench))
         for plan, bench in runs], jobs)
    for plan in todo:
        _RUN_CACHE[(plan, limit)] = []
    for (plan, bench), result in zip(runs, results):
        _RUN_CACHE[(plan, limit)].append(BenchResult(
            suite=plan.suite, benchmark=bench.name, system=plan.label(),
            passed=result.passed, speedup=result.speedup,
            stage_pass=result.stage_pass,
            stage_speedup=result.stage_speedup,
            failure=result.failure))
    return [_RUN_CACHE[(plan, limit)] for plan in plans]


def results_for(plan: RunPlan, jobs: Optional[int] = None
                ) -> List[BenchResult]:
    """Results of one plan (store-backed)."""
    return run_plans([plan], jobs=jobs)[0]


def evaluate_suite(optimize: Callable, suite_name: str,
                   system_label: str) -> List[BenchResult]:
    """Run an ad-hoc per-benchmark callable over a suite.

    ``optimize`` returns an :class:`OptimizationResult`.  Uncached — for
    one-off configurations (the ablations) that don't correspond to a
    stable :class:`RunPlan`.
    """
    results = []
    for bench in _plan_suite(suite_name):
        outcome = optimize(bench)
        results.append(BenchResult(
            suite=suite_name, benchmark=bench.name, system=system_label,
            passed=outcome.passed, speedup=outcome.speedup,
            stage_pass=outcome.stage_pass,
            stage_speedup=outcome.stage_speedup))
    return results


# ----------------------------------------------------------------------
# convenience aggregations
# ----------------------------------------------------------------------
def speedups_by_benchmark(results: Sequence[BenchResult]
                          ) -> Dict[str, float]:
    return {r.benchmark: r.speedup for r in results}
