"""Benchmark-suite configuration.

Each file regenerates one table or figure of the paper's evaluation
(``repro.evaluation.ALL_EXPERIMENTS`` is the index) by calling its
experiment function directly.  Results are deterministic (seeded), so
the shape assertions are stable.  Set ``REPRO_SUITE_LIMIT=<n>`` to
subsample benchmark suites for a quick pass; the default runs the full
163 kernels.

Unlike ``tests/``, benchmarks use the *persistent* result store
(``.repro_cache/`` or ``REPRO_CACHE_DIR``): the first run computes and
stores every (system, suite) result, warm reruns replay them from disk.
Entries are keyed on dataset + code signatures, so editing any
result-determining module recomputes instead of serving stale numbers.
``REPRO_NO_CACHE=1`` forces cold runs; ``REPRO_JOBS=<n>`` fans cache
misses across a worker pool.

Run with ``pytest benchmarks/`` and add ``-s`` to see the rendered
tables; ``--durations=0`` lists how long each one took.
"""

import os
import warnings

warnings.filterwarnings("ignore")


def pytest_report_header(config):
    from repro.evaluation.store import cache_dir, store_enabled

    store = (f"store at {cache_dir()}" if store_enabled()
             else "store disabled (REPRO_NO_CACHE)")
    jobs = os.environ.get("REPRO_JOBS", "1")
    limit = os.environ.get("REPRO_SUITE_LIMIT") or "full suites"
    return f"repro harness: {store}, jobs={jobs}, {limit}"
