"""Persistent, content-keyed result store for the evaluation harness.

The session-local ``_RUN_CACHE`` memoization in ``harness.py`` only
lives for one process; every pytest/bench invocation used to recompute
the world from scratch.  This module persists finished runs to disk so
warm reruns are near-no-ops.

Layout
------
Results live in the ``"results"`` stream of a pluggable
:class:`repro.storage.ArtifactStore` rooted at ``<cache-dir>/store/``.
The default backend (:class:`repro.storage.LocalShardedStore`) shards
entries by key digest into per-shard append-only JSON-lines files with
an in-memory key index and per-shard file locks, so any number of
concurrent sessions and fork-pool workers append whole records safely;
``repro store compact`` reclaims superseded and corrupt lines.  Set
``REPRO_STORE_BACKEND`` to swap the backend (every registered backend
passes the same conformance suite).

Each stored record maps an encoded cache key to one completed plan's
payload:

* the key is the JSON-encoded tuple the in-memory cache uses (plan
  kind, suite, system parameters, ``REPRO_SUITE_LIMIT``) plus a dataset
  signature (see ``synthesis.dataset.dataset_signature``) and a code
  signature over the result-determining packages, so edits to the
  pipeline/transforms/compilers invalidate stale entries;
* the payload is the serialized ``BenchResult`` list (the store is
  payload-agnostic; ``harness.py`` owns the (de)serialization).

Corrupt lines (truncated writes, hand edits, non-JSON garbage) are
skipped on load and reported by :meth:`ResultStore.stats` separately
from superseded duplicates.  When the same key appears twice, the last
record wins.

Environment switches
--------------------
``REPRO_CACHE_DIR``       store directory (default ``.repro_cache/``)
``REPRO_NO_CACHE``        any non-empty value disables the store
``REPRO_STORE_BACKEND``   artifact-store backend (default ``local``)
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..storage import (ArtifactStore, CompactionReport, backend_name,
                       open_store)

DEFAULT_CACHE_DIR = ".repro_cache"
STORE_DIR = "store"                  # artifact-store root, per cache dir
RESULTS_STREAM = "results"

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"


def encode_key(key: Sequence) -> str:
    """Stable string form of a cache-key tuple."""
    return json.dumps(list(key), separators=(",", ":"), sort_keys=False)


class ResultStore:
    """Cache-key -> payload store over a pluggable artifact backend."""

    def __init__(self, root, backend: Optional[str] = None) -> None:
        self.root = Path(root)
        self.backend = backend or backend_name()
        self._artifacts: Optional[ArtifactStore] = None
        self.hits = 0
        self.misses = 0
        self.writes = 0

    @property
    def store_root(self) -> Path:
        return self.root / STORE_DIR

    def describe(self) -> str:
        return self.artifacts().describe()

    # ------------------------------------------------------------------
    def artifacts(self) -> ArtifactStore:
        """The backing artifact store (opened on first use).

        Shared with the persistent corpus cache
        (``synthesis.dataset.cached_dataset``), which keeps its
        ``"datasets"`` stream in the same store.
        """
        if self._artifacts is None:
            self._artifacts = open_store(self.store_root, self.backend)
        return self._artifacts

    # ------------------------------------------------------------------
    def get(self, key: Sequence) -> Optional[List[dict]]:
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

    def put(self, key: Sequence, payload: List[dict]) -> None:
        """Persist one plan's payload.

        The backend contract makes this a single atomic append (one
        ``write()`` on an ``O_APPEND`` descriptor under the shard lock
        for the local backend), so concurrent processes sharing a cache
        dir interleave whole records instead of torn fragments.
        """
        self.artifacts().append(RESULTS_STREAM, encode_key(key), payload)
        self.writes += 1

    def delete(self, key: Sequence) -> bool:
        """Tombstone one entry (rarely needed; compaction reclaims it)."""
        return self.artifacts().delete(RESULTS_STREAM, encode_key(key))

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


def active_artifacts() -> Optional[ArtifactStore]:
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
#: modules whose source does NOT affect run results: presentation,
#: batching/aggregation and the store/pool plumbing.  evaluation/harness.py
#: is deliberately NOT listed — it computes the compiler baselines,
#: timeouts and speedups that end up inside stored BenchResults.
_NON_RESULT_MODULES = (
    "cli.py",
    "evaluation/__init__.py",
    "evaluation/ablations.py",
    "evaluation/experiments.py",
    "evaluation/metrics.py",
    "evaluation/parallel.py",
    "evaluation/reporting.py",
    "evaluation/store.py",
    "storage/__init__.py",
    "storage/base.py",
    "storage/local.py",
    "storage/memory.py",
    "storage/mirrored.py",
    "storage/registry.py",
    "storage/scrub.py",
)

_CODE_SIGNATURE: Optional[str] = None


def code_signature() -> str:
    """Hash of every result-determining source file under ``repro``.

    Any edit to the IR, transforms, compilers, pipeline, machine model,
    suites, retrieval, synthesis or the harness's run logic invalidates
    stored results; edits to the reporting/orchestration layer (which
    only reads results) do not.
    """
    global _CODE_SIGNATURE
    if _CODE_SIGNATURE is not None:
        return _CODE_SIGNATURE
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        if rel in _NON_RESULT_MODULES:
            continue
        digest.update(rel.encode())
        digest.update(path.read_bytes())
    _CODE_SIGNATURE = digest.hexdigest()[:16]
    return _CODE_SIGNATURE
