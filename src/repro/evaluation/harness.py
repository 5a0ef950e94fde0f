"""Experiment harness: run systems over suites, cached and parallel.

Most tables and figures reuse the same underlying runs (Table 1 and
Figure 6 share every LOOPRAG/compiler execution; Table 2 and Figure 7
share the base-LLM runs...), so the harness memoizes per plan at two
levels:

* an in-process ``_RUN_CACHE`` (same tuples as before), and
* the persistent, content-keyed :mod:`repro.evaluation.store`
  (``.repro_cache/`` by default), which survives across processes and
  turns warm benchmark reruns into near-no-ops.

Execution is organized around :class:`RunPlan` — one (system, suite)
description — and the generic driver :func:`run_plans`, which consults
store → pool → store.  Each plan's benchmarks run through a
:class:`repro.api.OptimizerSession` (one per plan, request-level store
off — the plan-level store is authoritative here); :func:`results_for`
runs one plan.  Cache misses fan out per-benchmark across a
:mod:`repro.evaluation.parallel` pool; each pipeline run seeds its RNG
from ``(seed, program fingerprint)``, so parallel results are
bit-identical to serial ones.

Environment switches: ``REPRO_SUITE_LIMIT=<n>`` subsamples suites for
quick iteration (benches run the full suites); ``REPRO_JOBS=<n>`` sets
the default pool width; ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``
control the persistent store.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..api.session import (DEFAULT_DATASET_SIZE, DEFAULT_SEED,
                           OptimizationRequest, OptimizerSession)
from ..compilers import OPTIMIZER_BASE
from ..llm.personas import PERSONAS, Persona
from ..pipeline.generation import (BASELINE_TIME_LIMIT,
                                   LOOPRAG_TIME_LIMIT)
from ..retrieval.retriever import Retriever
from ..suites import Suite, lore, polybench, tsvc
from ..synthesis.dataset import cached_dataset
from .parallel import default_jobs, make_executor
from .store import active_store, code_signature


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


def result_to_dict(result: BenchResult) -> dict:
    """Serialize for the persistent store."""
    return {"suite": result.suite, "benchmark": result.benchmark,
            "system": result.system, "passed": result.passed,
            "speedup": result.speedup,
            "stage_pass": [list(p) for p in result.stage_pass],
            "stage_speedup": [list(p) for p in result.stage_speedup],
            "failure": result.failure}


def result_from_dict(payload: dict) -> BenchResult:
    return BenchResult(
        suite=payload["suite"], benchmark=payload["benchmark"],
        system=payload["system"], passed=bool(payload["passed"]),
        speedup=float(payload["speedup"]),
        stage_pass=tuple((str(n), bool(v))
                         for n, v in payload["stage_pass"]),
        stage_speedup=tuple((str(n), float(v))
                            for n, v in payload["stage_speedup"]),
        failure=payload["failure"])


def _limited(suite: Suite) -> Suite:
    limit = os.environ.get("REPRO_SUITE_LIMIT")
    if not limit:
        return suite
    return Suite(suite.name, suite.benchmarks[:int(limit)])


def suites() -> Dict[str, Suite]:
    return {"polybench": _limited(polybench()),
            "tsvc": _limited(tsvc()),
            "lore": _limited(lore())}


_RUN_CACHE: Dict[Tuple, List[BenchResult]] = {}
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
    instead of re-indexing; the lock keeps concurrent thread-pool
    workers from constructing the same retriever twice.
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
    not by object) so they pickle cleanly into process pools and key
    both cache levels.
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

    def effective_time_limit(self) -> float:
        if self.time_limit is not None:
            return self.time_limit
        return (LOOPRAG_TIME_LIMIT if self.kind == "looprag"
                else BASELINE_TIME_LIMIT)

    def key(self) -> Tuple:
        """Cache key: the run-determining fields plus the environment's
        suite subsampling and the code signature."""
        if self.kind == "looprag":
            core: Tuple = ("looprag", self.suite, self.persona, self.base,
                           self.retrieval_method, self.generator,
                           self.dataset_size, self.seed,
                           self.effective_time_limit())
        elif self.kind == "basellm":
            core = ("basellm", self.suite, self.persona, self.base,
                    self.seed, self.effective_time_limit())
        elif self.kind == "compiler":
            core = ("compiler", self.suite, self.optimizer,
                    self.effective_time_limit())
        else:
            raise ValueError(f"unknown plan kind {self.kind!r}")
        return core + (os.environ.get("REPRO_SUITE_LIMIT"),
                       code_signature())

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
# per-benchmark execution (plans -> session requests)
# ----------------------------------------------------------------------
def _plan_session(plan: RunPlan) -> OptimizerSession:
    """The session a plan's benchmarks run through.

    Plan-level caching lives in ``run_plans``'s store, so the session's
    own request-level store is disabled — every result is computed (or
    plan-cached) exactly once, never double-keyed.
    """
    if plan.kind == "looprag":
        return OptimizerSession(
            dataset_size=plan.dataset_size, seed=plan.seed,
            generator=plan.generator,
            retrieval_method=plan.retrieval_method,
            base_compiler=plan.base,
            retriever=shared_retriever(plan.dataset_size, plan.seed,
                                       plan.generator,
                                       plan.retrieval_method),
            use_store=False)
    if plan.kind in ("basellm", "compiler"):
        return OptimizerSession(seed=plan.seed,
                                base_compiler=plan.base,
                                use_store=False)
    raise ValueError(f"unknown plan kind {plan.kind!r}")


def _plan_request(plan: RunPlan, bench) -> OptimizationRequest:
    if plan.kind == "compiler":
        return OptimizationRequest.make(
            bench.program, bench.perf, system="compiler",
            optimizer=plan.optimizer,
            time_limit=plan.effective_time_limit())
    return OptimizationRequest.make(
        bench.program, bench.perf, bench.test,
        system=("looprag" if plan.kind == "looprag" else "basellm"),
        persona=plan.persona, time_limit=plan.effective_time_limit())


#: per-plan sessions are memoized so pool workers build each system
#: once, not once per benchmark
_RUNNER_CACHE: Dict[RunPlan, Callable] = {}


def _plan_runner(plan: RunPlan) -> Callable:
    """A ``bench -> BenchResult`` callable for one plan."""
    if plan in _RUNNER_CACHE:
        return _RUNNER_CACHE[plan]
    session = _plan_session(plan)

    def run(bench):
        result = session.optimize(_plan_request(plan, bench),
                                  use_store=False)
        return BenchResult(
            suite=plan.suite, benchmark=bench.name, system=plan.label(),
            passed=result.passed, speedup=result.speedup,
            stage_pass=result.stage_pass,
            stage_speedup=result.stage_speedup,
            failure=result.failure)
    _RUNNER_CACHE[plan] = run
    return run


def _execute_item(item: Tuple[RunPlan, str]) -> BenchResult:
    """Pool entry point: run one benchmark of one plan (picklable)."""
    plan, bench_name = item
    return _plan_runner(plan)(_plan_suite(plan.suite).get(bench_name))


def _execute_plan(plan: RunPlan) -> List[BenchResult]:
    run = _plan_runner(plan)
    return [run(bench) for bench in _plan_suite(plan.suite)]


def _warm_shared_state(plans: Sequence[RunPlan]) -> None:
    """Build every dataset/retriever/suite a plan set needs, once, in
    this process — pool workers then inherit them (fork) or share them
    (threads) instead of racing to rebuild."""
    for plan in plans:
        _plan_suite(plan.suite)
        if plan.kind == "looprag":
            shared_retriever(plan.dataset_size, plan.seed, plan.generator,
                             plan.retrieval_method)


# ----------------------------------------------------------------------
# the generic driver: store -> pool -> store
# ----------------------------------------------------------------------
def run_plans(plans: Sequence[RunPlan], jobs: Optional[int] = None,
              pool: str = "auto") -> List[List[BenchResult]]:
    """Run a batch of plans; returns results aligned with ``plans``.

    Each plan is resolved in-memory cache → persistent store → executed.
    Misses are fanned out per-benchmark across ``jobs`` workers
    (``REPRO_JOBS``, default serial); results are reassembled in suite
    order, so every path yields identical lists.
    """
    if jobs is None:
        jobs = default_jobs()
    store = active_store()
    pending = set()
    misses: List[Tuple[RunPlan, Tuple]] = []
    for plan in plans:
        key = plan.key()
        if key in _RUN_CACHE or key in pending:
            continue
        payload = store.get(key) if store is not None else None
        if payload is not None:
            try:
                _RUN_CACHE[key] = [result_from_dict(d) for d in payload]
                continue
            except (KeyError, TypeError, ValueError):
                pass  # stale/foreign payload: recompute
        misses.append((plan, key))
        pending.add(key)

    if misses:
        _warm_shared_state([plan for plan, _ in misses])

        def finish(key: Tuple, results: List[BenchResult]) -> None:
            # persist per plan, as soon as it completes, so a failure
            # later in the batch can't discard finished work
            _RUN_CACHE[key] = results
            if store is not None:
                store.put(key, [result_to_dict(r) for r in results])

        items = [(plan, name)
                 for plan, _ in misses
                 for name in _plan_suite(plan.suite).names()]
        if jobs > 1 and len(items) > 1:
            with make_executor(min(jobs, len(items)), pool) as executor:
                futures = [executor.submit(_execute_item, item)
                           for item in items]
                cursor = 0
                first_error: Optional[BaseException] = None
                for plan, key in misses:
                    count = len(_plan_suite(plan.suite))
                    plan_futures = futures[cursor:cursor + count]
                    cursor += count
                    try:
                        finish(key, [f.result() for f in plan_futures])
                    except BaseException as exc:
                        # keep gathering: the other plans' work is done
                        # or in flight, and persisting it bounds the
                        # loss on retry to the failing plan alone
                        if first_error is None:
                            first_error = exc
                if first_error is not None:
                    raise first_error
        else:
            for plan, key in misses:
                finish(key, _execute_plan(plan))
    return [_RUN_CACHE[plan.key()] for plan in plans]


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


def passed_list(results: Sequence[BenchResult]) -> List[bool]:
    return [r.passed for r in results]


def speedup_list(results: Sequence[BenchResult]) -> List[float]:
    return [r.speedup for r in results]
