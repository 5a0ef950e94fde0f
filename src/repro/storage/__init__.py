"""Pluggable artifact storage: named streams of keyed JSON payloads.

The service-scale persistence layer (ROADMAP: "Sharded, compacting
result store with pluggable backends").  :class:`ArtifactStore` is the
contract — open/append/read/list/delete over named streams with
last-write-wins keys, plus compaction — :class:`LocalShardedStore` is
the default file backend (per-shard append-only files, in-memory key
index, per-shard locks, crash-tolerant scans), and
:class:`InMemoryStore` is the executable specification every backend is
conformance-tested against.  Backends register in
:data:`STORE_BACKENDS` and are selected with ``REPRO_STORE_BACKEND``.

The evaluation result store (:mod:`repro.evaluation.store`) and the
persistent corpus cache (:mod:`repro.synthesis.dataset`) are both thin
clients of this package; ``repro store stats`` / ``repro store
compact`` are the operational front end.
"""

from .base import (INTEGRITY, STORAGE_SCHEMA, ArtifactStore,
                   CompactionReport, StoreError, StreamStats,
                   record_crc, record_crc_ok, verify_mode)
from .local import (DEFAULT_SHARDS, LocalShardedStore, exclusive_lock,
                    shard_of)
from .memory import InMemoryStore
from .mirrored import ENV_STORE_MIRRORS, MirroredStore
from .registry import (DEFAULT_BACKEND, ENV_STORE_BACKEND,
                       ENV_STORE_SHARDS, STORE_BACKENDS, backend_name,
                       open_store)
from .scrub import (RepairReport, ScrubIssue, StreamScrubReport,
                    VerifyReport, repair_store, verify_store)

__all__ = [
    "ArtifactStore", "CompactionReport", "StoreError", "StreamStats",
    "STORAGE_SCHEMA", "INTEGRITY",
    "record_crc", "record_crc_ok", "verify_mode",
    "LocalShardedStore", "InMemoryStore", "MirroredStore",
    "DEFAULT_SHARDS", "exclusive_lock", "shard_of",
    "STORE_BACKENDS", "DEFAULT_BACKEND", "ENV_STORE_BACKEND",
    "ENV_STORE_SHARDS", "ENV_STORE_MIRRORS", "backend_name",
    "open_store",
    "ScrubIssue", "StreamScrubReport", "VerifyReport", "RepairReport",
    "verify_store", "repair_store",
]
