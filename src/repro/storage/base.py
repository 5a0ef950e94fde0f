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
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: stored-line format version of the file store; lines in any other
#: format (earlier versions included) are treated as corrupt (skipped +
#: counted) instead of mis-read
STORAGE_SCHEMA = 2

# -- the stored-line codec ---------------------------------------------
# A put is   {"schema":2,"crc":"<8 hex>","key":<json str>,"payload":<json>}
# a delete   {"schema":2,"crc":"<8 hex>","key":<json str>,"tombstone":true}
# and ``crc`` is the crc32 of every byte after ``"crc":"XXXXXXXX",`` up
# to and including the closing brace: the key, the payload or tombstone
# marker and the framing, exactly as written.  A reader therefore
# verifies a line without decoding its payload.
_PREFIX = b'{"schema":%d,"crc":"' % STORAGE_SCHEMA
_CRC_END = len(_PREFIX) + 8        # end of the crc's hex digits
_BODY = _CRC_END + 2               # first byte the crc covers
_KEY_FIELD = b'"key":'
_KEY = _BODY + len(_KEY_FIELD)     # where the key's JSON string starts
_PUT_MARK = b',"payload":'
_TOMBSTONE_MARK = b',"tombstone":true}'


def encode_line(key: str, payload: Any = None,
                tombstone: bool = False) -> bytes:
    """One stored line, newline included: a put, or a tombstone."""
    tail = (_TOMBSTONE_MARK if tombstone else b"".join(
        (_PUT_MARK, json.dumps(payload, separators=(",", ":")).encode(),
         b"}")))
    body = b"".join((_KEY_FIELD, json.dumps(key).encode(), tail))
    return b"".join((_PREFIX, b"%08x" % zlib.crc32(body), b'",', body,
                     b"\n"))


def read_line_head(data: bytes, start: int = 0, end: Optional[int] = None
                   ) -> Optional[Tuple[Optional[str], bool, bool]]:
    """Verify the line ``data[start:end]`` (no newline) and read its key.

    None when the line is not in this schema's format at all (garbage,
    another schema version, the fragment a torn append left behind, a
    line that verifies yet is malformed).
    Otherwise ``(key, tombstone, crc_ok)``: a line that fails its crc
    still reports the key when the key parses (else None), for
    diagnostics, but nothing about it can be trusted.  The payload is
    never decoded.
    """
    if end is None:
        end = len(data)
    if (end - start < _KEY or data[start:start + len(_PREFIX)] != _PREFIX
            or data[end - 1:end] != b"}"):
        return None  # not ours, or a fragment of a torn line
    crc_ok = (data[start + _CRC_END:start + _BODY] == b'",'
              and data[start + len(_PREFIX):start + _CRC_END]
              == b"%08x" % zlib.crc32(memoryview(data)[start + _BODY:end]))
    key_at, key_end, tombstone = start + _KEY, -1, False
    if data[start + _BODY:key_at] == _KEY_FIELD:
        key_end = data.find(_PUT_MARK, key_at, end)
        tomb_at = end - len(_TOMBSTONE_MARK)
        if (key_end < 0 and tomb_at > key_at
                and data[tomb_at:end] == _TOMBSTONE_MARK):
            key_end, tombstone = tomb_at, True
    try:
        key = json.loads(data[key_at:key_end]) if key_end > key_at else None
    except ValueError:  # undecodable JSON or bytes
        key = None
    if isinstance(key, str):
        return key, tombstone, crc_ok
    return None if crc_ok else (None, tombstone, False)


def decode_payload(data: bytes, start: int, end: int) -> Any:
    """The payload of the verified put line ``data[start:end]``.

    Decoded straight from ``data``'s buffer: the payload's bytes are
    not copied before they become the text the JSON parser reads.
    """
    at = data.find(_PUT_MARK, start + _KEY, end) + len(_PUT_MARK)
    return json.loads(str(memoryview(data)[at:end - 1], "utf-8"))


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
#: by readers, scrub runs and findings
INTEGRITY = IntegrityCounters()


class StoreError(Exception):
    """A store violated its own invariants (torn append, bad shard)."""


@dataclass(frozen=True)
class StreamStats:
    """Point-in-time shape of one stream.

    ``superseded`` and ``tombstones`` measure reclaimable appends;
    ``corrupt`` counts lines not in the current format (garbage, torn
    fragments, earlier schema versions) skipped during the scan;
    ``mismatched`` counts lines whose stored crc failed verification.
    All of them drop to zero after :meth:`ArtifactStore.compact`.
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
    def damaged_keys(self, stream: str) -> Tuple[str, ...]:
        """Keys whose newest stored record failed its crc, sorted.

        Readers serve such a key's newest valid record, if any.  A
        client whose records are state transitions (the serve journal)
        asks for these to refuse a record whose latest state is lost.
        A store that cannot be damaged has none.
        """
        return ()

    def contains(self, stream: str, key: str) -> bool:
        """Key liveness.  Stores whose payloads may be JSON null must
        override this to answer from key membership, not read()."""
        return key in self.list(stream)

    def describe(self) -> str:
        """Human-readable location, e.g. ``local:.repro_cache/store``."""
        return f"{self.name}:{self.root}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.root!r})"
