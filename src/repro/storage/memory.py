"""The in-memory artifact store: the executable specification.

Production code never opens this store.  Every conformance scenario
that does not require real files runs :class:`LocalShardedStore` *and*
this one and expects identical observations
(``tests/test_artifact_store_conformance.py``; the hypothesis suite in
``tests/test_storage_property.py`` drives random op interleavings
through both).  To keep the semantics honest the store keeps each
payload as its canonical JSON encoding and decodes on read — appends
fail on non-serializable payloads and reads return fresh copies,
exactly like a store with real I/O.

Worlds are shared per root *within the process* (a class-level table),
so two instances over the same root observe each other — the same
visibility the file store provides — while distinct roots stay
isolated.  Nothing survives the process.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Optional, Tuple

from .base import ArtifactStore, CompactionReport, StreamStats


class _Stream:
    """One stream's live entries plus its reclaimable-append counters."""

    def __init__(self) -> None:
        self.entries: Dict[str, str] = {}  # key -> canonical JSON text
        self.superseded = 0
        self.tombstones = 0


class InMemoryStore(ArtifactStore):
    """Process-local :class:`ArtifactStore` (see module docstring)."""

    name = "memory"
    on_disk = False

    _WORLDS: Dict[str, Dict[str, _Stream]] = {}
    _LOCK = threading.Lock()

    def __init__(self, root: str) -> None:
        super().__init__(root)
        with self._LOCK:
            self._streams = self._WORLDS.setdefault(self.root, {})

    # ------------------------------------------------------------------
    def _stream(self, stream: str, create: bool = True
                ) -> Optional[_Stream]:
        got = self._streams.get(stream)
        if got is None and create:
            got = self._streams.setdefault(stream, _Stream())
        return got

    # ------------------------------------------------------------------
    def open(self, stream: str) -> StreamStats:
        with self._LOCK:
            self._stream(stream)
        return self.stream_stats(stream)

    def append(self, stream: str, key: str, payload: Any) -> None:
        text = json.dumps(payload, separators=(",", ":"))
        with self._LOCK:
            state = self._stream(stream)
            if key in state.entries:
                state.superseded += 1
            state.entries[key] = text

    def read(self, stream: str, key: str) -> Optional[Any]:
        with self._LOCK:
            state = self._stream(stream, create=False)
            text = state.entries.get(key) if state else None
        return None if text is None else json.loads(text)

    def delete(self, stream: str, key: str) -> bool:
        with self._LOCK:
            state = self._stream(stream)
            was_live = state.entries.pop(key, None) is not None
            if was_live:  # deleting a missing key appends nothing
                state.superseded += 1  # the put the tombstone shadows
                state.tombstones += 1
        return was_live

    def contains(self, stream: str, key: str) -> bool:
        # key membership, not read() is None — a stored JSON null is a
        # live entry (the sharded store answers from its index too)
        with self._LOCK:
            state = self._stream(stream, create=False)
            return bool(state) and key in state.entries

    def list(self, stream: str) -> Tuple[str, ...]:
        with self._LOCK:
            state = self._stream(stream, create=False)
            return tuple(sorted(state.entries)) if state else ()

    def streams(self) -> Tuple[str, ...]:
        with self._LOCK:
            return tuple(sorted(self._streams))

    def compact(self, stream: str) -> CompactionReport:
        with self._LOCK:
            state = self._stream(stream)
            report = CompactionReport(
                stream=stream, kept=len(state.entries),
                dropped_superseded=state.superseded,
                dropped_tombstones=state.tombstones)
            state.superseded = 0
            state.tombstones = 0
        return report

    def stream_stats(self, stream: str) -> StreamStats:
        with self._LOCK:
            state = self._stream(stream, create=False)
            if state is None:
                return StreamStats()
            size = sum(len(k) + len(v)
                       for k, v in state.entries.items())
            return StreamStats(entries=len(state.entries),
                               superseded=state.superseded,
                               tombstones=state.tombstones,
                               corrupt=0, shards=1, bytes=size)

    def drop(self, stream: str) -> None:
        with self._LOCK:
            self._streams.pop(stream, None)

    def refresh(self, stream: str) -> None:
        pass  # the world IS the index; nothing to rescan
