"""Persistent, content-keyed result store.

The one result memo: every finished optimization request — whether
``repro bench`` and the experiments submitted it as part of a suite
plan (``harness.py``) or ``repro serve``/``serve-batch`` did directly —
persists here through ``OptimizerSession``, so warm reruns are
near-no-ops and duplicate requests are answered without recomputing.

Layout
------
Results live in the ``"results"`` stream of a
:class:`repro.storage.LocalShardedStore` rooted at
``<cache-dir>/store/``.  It shards entries by key digest into per-shard
append-only JSON-lines files with an in-memory key index and per-shard
file locks, so any number of concurrent sessions and worker processes
append whole records safely; ``repro store compact`` reclaims
superseded and corrupt lines.

Each stored record maps an encoded cache key to one payload:

* the key is ``OptimizerSession._request_key``: a JSON-encoded tuple
  of the request's echo (what the result document prints), its
  session spec and a code signature over the result-determining
  modules, so edits to the pipeline/transforms/compilers/corpus
  synthesis invalidate stale entries;
* the payload is one serialized result document
  (``OptimizationResult.to_payload``; the store is payload-agnostic,
  its callers own the (de)serialization).

Corrupt lines (truncated writes, hand edits, non-JSON garbage) are
skipped on load and reported by :meth:`ResultStore.stats` separately
from superseded duplicates.  When the same key appears twice, the last
record wins.

Environment switches
--------------------
``REPRO_CACHE_DIR``       store directory (default ``.repro_cache/``)
``REPRO_NO_CACHE``        any non-empty value disables the store
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Sequence

from ..storage import CompactionReport, LocalShardedStore

DEFAULT_CACHE_DIR = ".repro_cache"
STORE_DIR = "store"                  # artifact-store root, per cache dir
RESULTS_STREAM = "results"

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"


def encode_key(key: Sequence) -> str:
    """Stable string form of a cache-key tuple."""
    return json.dumps(list(key), separators=(",", ":"), sort_keys=False)


class ResultStore:
    """Cache-key -> payload store over the local artifact store."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._artifacts: Optional[LocalShardedStore] = None
        self.hits = 0
        self.misses = 0
        self.writes = 0

    @property
    def store_root(self) -> Path:
        return self.root / STORE_DIR

    def describe(self) -> str:
        return self.artifacts().describe()

    # ------------------------------------------------------------------
    def artifacts(self) -> LocalShardedStore:
        """The backing artifact store (opened on first use).

        Shared with the persistent corpus cache
        (``synthesis.dataset.cached_dataset``), which keeps its
        ``"datasets"`` stream in the same store.
        """
        if self._artifacts is None:
            self._artifacts = LocalShardedStore(str(self.store_root))
        return self._artifacts

    # ------------------------------------------------------------------
    def get(self, key: Sequence) -> Optional[dict]:
        """Payload for ``key``, or None (counts a hit/miss either way)."""
        found = self.artifacts().read(RESULTS_STREAM, encode_key(key))
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def contains(self, key: Sequence) -> bool:
        """Like :meth:`get` but without touching the hit/miss counters."""
        return self.artifacts().contains(RESULTS_STREAM, encode_key(key))

    def put(self, key: Sequence, payload: dict) -> None:
        """Persist one result document.

        The store contract makes this a single atomic append (one
        ``write()`` on an ``O_APPEND`` descriptor under the shard lock),
        so concurrent processes sharing a cache dir interleave whole
        records instead of torn fragments.
        """
        self.artifacts().append(RESULTS_STREAM, encode_key(key), payload)
        self.writes += 1

    def clear(self) -> None:
        """Drop every entry (the ``make clean-cache`` path)."""
        self.artifacts().drop(RESULTS_STREAM)

    def compact(self) -> CompactionReport:
        """Reclaim superseded/tombstoned/corrupt records."""
        return self.artifacts().compact(RESULTS_STREAM)

    def stats(self) -> Dict[str, int]:
        """Session counters + the stream's reclaimable-line breakdown.

        ``superseded`` (duplicate keys shadowed by a later write) and
        ``corrupt`` (undecodable lines skipped on load) are reported
        separately; both drop to zero after :meth:`compact`.
        """
        stream = self.artifacts().stream_stats(RESULTS_STREAM)
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes,
                "superseded": stream.superseded,
                "corrupt": stream.corrupt,
                "entries": stream.entries}


# ----------------------------------------------------------------------
# process-wide store registry (one store per directory, so counters and
# the loaded view survive across harness calls)
# ----------------------------------------------------------------------
_STORES: Dict[str, ResultStore] = {}


def cache_dir() -> Path:
    return Path(os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR)


def store_enabled() -> bool:
    return not os.environ.get(ENV_NO_CACHE)


def active_store() -> Optional[ResultStore]:
    """The store for the configured cache dir, or None when disabled."""
    if not store_enabled():
        return None
    root = str(cache_dir())
    if root not in _STORES:
        _STORES[root] = ResultStore(root)
    return _STORES[root]


def active_artifacts() -> Optional[LocalShardedStore]:
    """The shared artifact store, or None when caching is disabled."""
    store = active_store()
    return None if store is None else store.artifacts()


def cache_stats() -> Dict[str, int]:
    """Aggregate hit/miss/write counters over every store touched."""
    totals = {"hits": 0, "misses": 0, "writes": 0,
              "superseded": 0, "corrupt": 0, "entries": 0}
    for store in _STORES.values():
        for name, value in store.stats().items():
            totals[name] = totals.get(name, 0) + value
    return totals


# ----------------------------------------------------------------------
# code signature: invalidate stored results when the code that produced
# them changes
# ----------------------------------------------------------------------
#: the result-determining sources, relative to the package root: every
#: module whose code can change a result document.  An entry ending in
#: "/" covers every module under that package.  ``api/events.py`` is
#: listed because a document carries its events; ``evaluation/harness.py``
#: because it builds the shared retriever every looprag session ranks
#: with and the requests that suite plans submit.
_RESULT_MODULES = (
    "analysis/",
    "api/events.py",
    "api/registry.py",
    "api/session.py",
    "codegen/",
    "compilers/",
    "evaluation/harness.py",
    "ir/",
    "llm/",
    "machine/",
    "memo.py",
    "pipeline/",
    "registry.py",
    "retrieval/",
    "runtime/",
    "suites/",
    "synthesis/",
    "testing/equivalence.py",
    "testing/inputs.py",
    "transforms/",
)

_CODE_SIGNATURE: Optional[str] = None


def code_signature() -> str:
    """Hash of every result-determining source file under ``repro``.

    Hashes exactly the ``_RESULT_MODULES`` allowlist, so any edit to the
    IR, transforms, analyses, compilers, runtime, testing, pipeline,
    LLM, machine model, suites, retrieval, corpus synthesis, the
    session or the harness's run logic invalidates stored results.
    A module outside it only transports, schedules, guards or presents
    results, and editing it keeps them warm.  These are the non-result
    modules:

    * ``__init__.py``, ``__main__.py``, ``api/__init__.py``,
      ``testing/__init__.py`` (re-exports and entry points);
    * ``cli.py``, ``evaluation/__init__.py``,
      ``evaluation/ablations.py``, ``evaluation/experiments.py``,
      ``evaluation/metrics.py``, ``evaluation/reporting.py``
      (presentation and aggregation over results);
    * ``evaluation/store.py``, ``storage/`` (the store itself);
    * ``serve/`` (the daemon: its defaults reach a result only through
      the echoed request and the session spec, both in the key);
    * ``cancellation.py``, ``api/resilience.py``, ``testing/faults.py``
      (deadlines, retries and fault injection abort or repeat a
      request, and never change a document that completes).
    """
    global _CODE_SIGNATURE
    if _CODE_SIGNATURE is not None:
        return _CODE_SIGNATURE
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        if not rel.startswith(_RESULT_MODULES):
            continue
        digest.update(rel.encode())
        digest.update(path.read_bytes())
    _CODE_SIGNATURE = digest.hexdigest()[:16]
    return _CODE_SIGNATURE
