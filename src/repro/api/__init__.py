"""The service-grade optimization API.

One :class:`OptimizerSession` owns every piece of expensive shared state
(the synthesized corpus, the retriever index, the dependence and
compiled-kernel caches, the machine model) exactly once, and serves
typed :class:`OptimizationRequest` → :class:`OptimizationResult`
objects — one at a time (:meth:`OptimizerSession.optimize`) or in
store-backed parallel batches (:meth:`OptimizerSession.optimize_many`,
or :func:`~repro.api.session.optimize_batch` over
``(session, request)`` pairs), whose misses run on the same supervised
worker pool as ``repro serve --workers`` (:mod:`repro.serve.supervisor`).

Components are assembled from *registries* (:mod:`repro.api.registry`):
LLM backends, base compilers, optimizing compilers and transformations
are all named, pluggable parts.

Progress streams through a structured event bus
(:mod:`repro.api.events`): retrieval, per-candidate generation /
compilation / testing, round transitions, cache hits.  Subscribe with
``session.events.subscribe(print)`` or read ``result.events`` after the
fact; ``repro optimize --json`` and ``repro serve-batch`` expose the
same records on the command line.

Whole suites run through :mod:`repro.evaluation.harness`: build a
:class:`~repro.evaluation.harness.RunPlan` and call ``results_for`` /
``run_plans``, which turn each plan into one request per benchmark and
serve the batch through ``optimize_batch`` — the same store records
and the same worker pool as any other batch.
"""

from .events import EventBus, EventLog, SessionEvent
from .registry import (BASE_COMPILER_REGISTRY, LLM_BACKENDS,
                       OPTIMIZER_REGISTRY, TRANSFORMS,
                       DuplicateComponentError, Registry,
                       UnknownComponentError)
from .resilience import (RESILIENCE_BUS, CircuitBreaker,
                         CircuitOpenError, ResilientCall, RetryPolicy,
                         breaker_for, breaker_states, reset_resilience)
from .session import (OptimizationRequest, OptimizationResult,
                      OptimizerSession, shared_session)

__all__ = [
    "EventBus", "EventLog", "SessionEvent",
    "BASE_COMPILER_REGISTRY", "LLM_BACKENDS", "OPTIMIZER_REGISTRY",
    "TRANSFORMS",
    "DuplicateComponentError", "Registry", "UnknownComponentError",
    "RESILIENCE_BUS", "CircuitBreaker", "CircuitOpenError",
    "ResilientCall", "RetryPolicy", "breaker_for", "breaker_states",
    "reset_resilience",
    "OptimizationRequest", "OptimizationResult", "OptimizerSession",
    "shared_session",
]
