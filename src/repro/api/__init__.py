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

Components are named parts looked up in plain tables that live next
to the code they name: :data:`repro.llm.LLM_BACKENDS`,
:data:`repro.compilers.BASE_COMPILERS`, :data:`repro.compilers.OPTIMIZERS`
and :data:`repro.transforms.TRANSFORMS`.  An unknown name raises
:class:`~repro.registry.UnknownComponentError` listing the known ones.

Progress streams through a structured event bus
(:mod:`repro.api.events`): retrieval, per-candidate generation /
compilation / testing, round transitions, cache hits.  Subscribe with
``session.events.subscribe(print)`` or read ``result.events`` after the
fact; ``repro optimize --json`` and ``repro serve-batch`` expose the
same records on the command line.

Whole suites run through :mod:`repro.evaluation.harness`: build a
:class:`~repro.evaluation.harness.RunPlan` and call ``results_for`` /
``run_plans``, which turn each plan into one request per benchmark,
serve the batch through ``optimize_batch`` — the same store records
and the same worker pool as any other batch — and return each plan's
results.  The result store is the only memo: a plan run again is
served from it, not from memory.
"""

from .events import EventBus, EventLog, SessionEvent
from ..compilers import BASE_COMPILERS, OPTIMIZERS
from ..llm import LLM_BACKENDS
from ..registry import UnknownComponentError
from ..transforms import TRANSFORMS
from .resilience import (RESILIENCE_BUS, CircuitBreaker,
                         CircuitOpenError, ResilientCall, RetryPolicy,
                         breaker_for, breaker_states, reset_resilience)
from .session import (OptimizationRequest, OptimizationResult,
                      OptimizerSession, shared_session)

__all__ = [
    "EventBus", "EventLog", "SessionEvent",
    "BASE_COMPILERS", "LLM_BACKENDS", "OPTIMIZERS", "TRANSFORMS",
    "UnknownComponentError",
    "RESILIENCE_BUS", "CircuitBreaker", "CircuitOpenError",
    "ResilientCall", "RetryPolicy", "breaker_for", "breaker_states",
    "reset_resilience",
    "OptimizationRequest", "OptimizationResult", "OptimizerSession",
    "shared_session",
]
