"""The one worker pool behind every batch.

:func:`repro.api.session.optimize_batch` — the driver behind
``OptimizerSession.optimize_many``, ``repro serve-batch`` and the
evaluation harness's ``run_plans`` — fans store misses, one
``(session, request)`` pair each, across the executor
:func:`make_executor` returns.  Requests are independent by
construction — every pipeline run seeds its RNG from ``(seed, program
fingerprint)``, not from call order — so fanning them across a pool
preserves bit-identical results as long as the results are reassembled
in submission order, which the driver does.

Pool selection
--------------
``process``  real parallelism (one interpreter per worker).  Workers are
             forked, so datasets/retrievers warmed in the parent before
             the pool is created are inherited copy-on-write instead of
             being rebuilt per worker.
``thread``   shares every in-process cache; bounded by the GIL but safe
             everywhere and free of pickling/fork constraints.
``auto``     ``process`` when the platform supports the ``fork`` start
             method (Linux/macOS CPython), else ``thread``.

``REPRO_JOBS`` sets the default worker count (1 = serial, the default).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

POOL_KINDS = ("auto", "thread", "process")

ENV_JOBS = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (defaults to 1 = serial)."""
    try:
        return max(1, int(os.environ.get(ENV_JOBS, "1")))
    except ValueError:
        return 1


def resolve_pool(pool: str = "auto") -> str:
    """Pick a concrete pool backend for ``auto``."""
    if pool not in POOL_KINDS:
        raise ValueError(f"unknown pool kind {pool!r}; "
                         f"expected one of {POOL_KINDS}")
    if pool != "auto":
        return pool
    if "fork" in multiprocessing.get_all_start_methods():
        return "process"
    return "thread"


def make_executor(jobs: int, pool: str = "auto"):
    """A ``jobs``-wide executor of the resolved ``pool`` kind.

    Callers keep future-level control, e.g. persisting each result as
    soon as its future completes rather than after the whole batch."""
    kind = resolve_pool(pool)
    if kind == "process":
        context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=jobs, mp_context=context)
    return ThreadPoolExecutor(max_workers=jobs)
