"""Artifact storage: named streams of keyed JSON payloads.

The service-scale persistence layer.  :class:`ArtifactStore` is the
contract — open/append/read/list/delete over named streams with
last-write-wins keys, plus compaction.  :class:`LocalShardedStore` is
the one store production code opens (per-shard append-only files,
in-memory key index, per-shard locks, crash-tolerant crc-checked scans
and reads); :class:`InMemoryStore` is the executable specification the
conformance and property suites check it against.

The evaluation result store (:mod:`repro.evaluation.store`), the
persistent corpus cache (:mod:`repro.synthesis.dataset`) and the serve
request journal are all thin clients of this package; ``repro store
stats|compact|verify`` are the operational front end.
"""

from .base import (INTEGRITY, STORAGE_SCHEMA, ArtifactStore,
                   CompactionReport, StoreError, StreamStats)
from .local import (DEFAULT_SHARDS, LocalShardedStore, exclusive_lock,
                    shard_of)
from .memory import InMemoryStore
from .scrub import (ScrubIssue, StreamScrubReport, VerifyReport,
                    verify_store)

__all__ = [
    "ArtifactStore", "CompactionReport", "StoreError", "StreamStats",
    "STORAGE_SCHEMA", "INTEGRITY",
    "LocalShardedStore", "InMemoryStore",
    "DEFAULT_SHARDS", "exclusive_lock", "shard_of",
    "ScrubIssue", "StreamScrubReport", "VerifyReport", "verify_store",
]
