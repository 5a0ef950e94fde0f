"""The artifact-store contract: named streams of keyed JSON payloads.

An :class:`ArtifactStore` holds independent *streams* (``"results"``,
``"datasets"``, ...).  Each stream is a last-write-wins mapping from
string keys to JSON payloads, built out of *appends*: a ``put`` appends
a record, a ``delete`` appends a tombstone, and readers see only the
final record per key.  Appends never rewrite existing data, so any
number of writers can share a store; :meth:`ArtifactStore.compact`
reclaims the space superseded records leave behind.

The contract is executable: the conformance suite
(``tests/test_artifact_store_conformance.py``) runs every scenario
against :class:`~repro.storage.LocalShardedStore` and against
:class:`~repro.storage.InMemoryStore`, the specification the file
store is compared with.

Payloads must be JSON-serializable; a store may hand back an equal
copy rather than the object that was appended (they round-trip through
JSON), which keeps the file store observationally identical to the
in-memory spec.
"""

from __future__ import annotations

import abc
import json
import os
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: stored-line format version of the file store; lines with a
#: different version are treated as corrupt (skipped + counted) instead
#: of mis-read
STORAGE_SCHEMA = 1

#: how aggressively readers check record checksums (see verify_mode())
ENV_STORE_VERIFY = "REPRO_STORE_VERIFY"
VERIFY_MODES = ("read", "paranoid")


def verify_mode() -> str:
    """Checksum-verification mode for file-backed reads.

    A record that fails its crc is never served, in either mode; any
    other value of ``REPRO_STORE_VERIFY`` means ``read``.

    ``read``      verify the record served by every ``read()`` and every
                  record rewritten by compaction (the default).
    ``paranoid``  additionally verify every line during index scans, so
                  a damaged record is skipped before it can win
                  last-write-wins ordering.
    """
    mode = os.environ.get(ENV_STORE_VERIFY, "read").strip().lower()
    return mode if mode in VERIFY_MODES else "read"


def record_crc(key: str, payload: Any = None,
               tombstone: bool = False) -> int:
    """crc32 of the canonical key+payload bytes of one record.

    The checksum covers what the record *means* (key and payload after a
    canonical JSON dump), not the stored line itself, so it survives
    byte-identical compaction rewrites and stays recomputable from the
    parsed record.  Tombstones checksum a fixed marker in place of the
    payload.
    """
    body = b"tombstone" if tombstone else json.dumps(
        payload, separators=(",", ":")).encode()
    head = json.dumps(key, separators=(",", ":")).encode()
    return zlib.crc32(head + b"\x00" + body) & 0xFFFFFFFF


def record_crc_ok(record: Dict[str, Any]) -> bool:
    """Does a decoded record's ``crc`` match its contents?

    Every writer stamps the envelope, so a record without a ``crc``
    field (one whose field was lost to damage) fails verification.
    """
    stored = record.get("crc")
    if not isinstance(stored, int):
        return False
    if record.get("tombstone"):
        expected = record_crc(record.get("key", ""), tombstone=True)
    else:
        expected = record_crc(record.get("key", ""),
                              record.get("payload"))
    return stored == expected


class IntegrityCounters:
    """Process-wide integrity telemetry (thread-safe).

    Exposed on ``repro store stats`` and as an ``integrity`` gauge on
    the serve ``/metrics`` endpoint.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(sorted(self._counts.items()))

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()


#: shared by every store instance in the process: crc mismatches seen
#: by readers, scrub runs/findings/repairs
INTEGRITY = IntegrityCounters()


class StoreError(Exception):
    """A store violated its own invariants (torn append, bad shard)."""


@dataclass(frozen=True)
class StreamStats:
    """Point-in-time shape of one stream.

    ``superseded`` and ``tombstones`` measure reclaimable appends;
    ``corrupt`` counts undecodable or foreign lines skipped during the
    scan; ``mismatched`` counts records whose stored crc failed
    verification.  All of them drop to zero after
    :meth:`ArtifactStore.compact`.
    """

    entries: int = 0
    superseded: int = 0
    tombstones: int = 0
    corrupt: int = 0
    shards: int = 0
    bytes: int = 0
    mismatched: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"entries": self.entries, "superseded": self.superseded,
                "tombstones": self.tombstones, "corrupt": self.corrupt,
                "shards": self.shards, "bytes": self.bytes,
                "mismatched": self.mismatched}


@dataclass(frozen=True)
class CompactionReport:
    """What one :meth:`ArtifactStore.compact` call dropped and kept."""

    stream: str
    kept: int = 0
    dropped_superseded: int = 0
    dropped_tombstones: int = 0
    dropped_corrupt: int = 0
    dropped_mismatched: int = 0

    @property
    def dropped(self) -> int:
        return (self.dropped_superseded + self.dropped_tombstones
                + self.dropped_corrupt + self.dropped_mismatched)

    def to_dict(self) -> Dict[str, Any]:
        return {"stream": self.stream, "kept": self.kept,
                "dropped_superseded": self.dropped_superseded,
                "dropped_tombstones": self.dropped_tombstones,
                "dropped_corrupt": self.dropped_corrupt,
                "dropped_mismatched": self.dropped_mismatched}


class ArtifactStore(abc.ABC):
    """Open/append/read/list/delete over named streams (see module doc).

    ``on_disk`` says whether entries live in real files, which the
    conformance suite keys its crash/corruption scenarios (torn tails,
    hand-edited shards, cross-process writers) on.
    """

    name: str = "?"
    on_disk: bool = False

    def __init__(self, root: str) -> None:
        self.root = str(root)

    # -- the stream contract -------------------------------------------
    @abc.abstractmethod
    def open(self, stream: str) -> StreamStats:
        """Ensure ``stream``'s index is loaded; returns its stats."""

    @abc.abstractmethod
    def append(self, stream: str, key: str, payload: Any) -> None:
        """Upsert ``key`` (last write wins).  Atomic per record."""

    @abc.abstractmethod
    def read(self, stream: str, key: str) -> Optional[Any]:
        """The live payload for ``key``, or None."""

    @abc.abstractmethod
    def delete(self, stream: str, key: str) -> bool:
        """Append a tombstone; True iff ``key`` was live."""

    @abc.abstractmethod
    def list(self, stream: str) -> Tuple[str, ...]:
        """Live keys, sorted."""

    @abc.abstractmethod
    def streams(self) -> Tuple[str, ...]:
        """Streams with any on-record data, sorted."""

    @abc.abstractmethod
    def compact(self, stream: str) -> CompactionReport:
        """Drop superseded/tombstoned/corrupt records from ``stream``."""

    @abc.abstractmethod
    def stream_stats(self, stream: str) -> StreamStats:
        """Current :class:`StreamStats` for ``stream``."""

    @abc.abstractmethod
    def drop(self, stream: str) -> None:
        """Remove ``stream`` entirely (entries and backing files)."""

    @abc.abstractmethod
    def refresh(self, stream: str) -> None:
        """Invalidate any cached index so the next access rescans."""

    # -- conveniences shared by every store ----------------------------
    def contains(self, stream: str, key: str) -> bool:
        """Key liveness.  Stores whose payloads may be JSON null must
        override this to answer from key membership, not read()."""
        return key in self.list(stream)

    def describe(self) -> str:
        """Human-readable location, e.g. ``local:.repro_cache/store``."""
        return f"{self.name}:{self.root}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.root!r})"
