"""Durable write-ahead request journal for ``repro serve``.

Every non-streaming request the daemon admits is journaled to the
artifact store's ``"journal"`` stream *before* it executes, keyed by an
idempotency signature derived from the request body.  A record holds
the status, the body, the attempt count, a sequence number and the
last error — never a result document — and walks a tiny state
machine::

    admitted -> started -> completed | failed

so ``repro serve --recover`` can replay every ``admitted``/``started``
record through the normal execution path at startup: requests that
were in flight when the daemon died are finished rather than lost.
The signature also names a body for the supervisor's quarantine.

The journal is not a result memo.  A duplicate of a completed request
is answered by the session's result store (``OptimizerSession``'s
request key), byte-identical to the first answer; the store's
``REPRO_NO_CACHE`` and ``use_store: false`` switches apply to it as to
any request.  The daemon opens the journal's
:class:`~repro.storage.LocalShardedStore` directly (same root as the
result store) and deliberately ignores ``REPRO_NO_CACHE``: the journal
is a write-ahead log, not a cache.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..storage import ArtifactStore, StreamStats

#: stream name on the artifact store (shows up in ``repro store stats``)
JOURNAL_STREAM = "journal"

#: journal record format version
JOURNAL_SCHEMA = 1

#: statuses a record can hold; "admitted" and "started" are the
#: unfinished ones --recover replays
UNFINISHED = ("admitted", "started")

#: retention for finished journal records (``repro store compact
#: --journal-keep N`` falls back to this)
ENV_JOURNAL_KEEP = "REPRO_JOURNAL_KEEP"


def request_signature(body: Dict[str, Any]) -> str:
    """Idempotency key: a content hash of the request body.

    Covers the kernel/request entry, the session spec and the
    ``use_store`` toggle.  Delivery options (``deadline_s``, ``stream``,
    ``include_events``) are deliberately excluded, so the same
    computation submitted with a different timeout or event verbosity
    maps onto one journal record and one quarantine entry.
    """
    core = {
        "request": body.get("request"),
        "session": body.get("session") or {},
        "use_store": body.get("use_store"),
    }
    canonical = json.dumps(core, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RequestJournal:
    """The admitted→started→completed/failed log over an ArtifactStore.

    Transitions are read-modify-write on the underlying last-write-wins
    stream, serialized by a process-local lock (one daemon owns its
    journal; concurrent request threads within it must not tear each
    other's updates).
    """

    def __init__(self, store: ArtifactStore) -> None:
        self._store = store
        self._lock = threading.Lock()
        self._seq: Optional[int] = None  # resolved on first transition
        store.open(JOURNAL_STREAM)

    # -- record access -------------------------------------------------
    def record(self, signature: str) -> Optional[Dict[str, Any]]:
        return self._store.read(JOURNAL_STREAM, signature)

    def unfinished(self) -> List[Tuple[str, Optional[Dict[str, Any]]]]:
        """(signature, record) for every admitted/started record.

        A signature whose newest record cannot be read back — its
        stored line failed the crc check, so its latest state is lost —
        is surfaced as ``(signature, None)`` so recovery can refuse to
        replay it (marking it failed with a diagnostic) instead of
        replaying a stale state or silently skipping a request that
        *was* admitted.
        """
        out: List[Tuple[str, Optional[Dict[str, Any]]]] = []
        damaged = set(self._store.damaged_keys(JOURNAL_STREAM))
        for key in sorted(damaged.union(self._store.list(JOURNAL_STREAM))):
            record = (None if key in damaged
                      else self._store.read(JOURNAL_STREAM, key))
            if not isinstance(record, dict):
                out.append((key, None))  # damaged journal record
            elif record.get("status") in UNFINISHED:
                out.append((key, record))
        return out

    def stats(self) -> StreamStats:
        return self._store.stream_stats(JOURNAL_STREAM)

    def describe(self) -> str:
        return f"{JOURNAL_STREAM}@{self._store.describe()}"

    # -- the state machine ---------------------------------------------
    def admitted(self, signature: str, body: Dict[str, Any]) -> None:
        """Write-ahead: the request is validated and about to run.

        Stores the full request body so --recover can re-materialize
        and re-execute it without the client.  Resubmission of a failed
        request lands here again and bumps ``attempts``.
        """
        def update(record: Dict[str, Any]) -> None:
            record["status"] = "admitted"
            record["body"] = body
            record["attempts"] = int(record.get("attempts", 0)) + 1
            record.pop("error", None)
        self._transition(signature, update)

    def started(self, signature: str) -> None:
        self._transition(
            signature, lambda record: record.update(status="started"))

    def completed(self, signature: str) -> None:
        def update(record: Dict[str, Any]) -> None:
            record["status"] = "completed"
            record.pop("error", None)
        self._transition(signature, update)

    def failed(self, signature: str, error: Dict[str, Any]) -> None:
        def update(record: Dict[str, Any]) -> None:
            record["status"] = "failed"
            record["error"] = error
        self._transition(signature, update)

    def _transition(self, signature: str, update) -> None:
        with self._lock:
            record = self.record(signature) or {
                "schema": JOURNAL_SCHEMA, "attempts": 0}
            update(record)
            record["seq"] = self._next_seq()
            self._store.append(JOURNAL_STREAM, signature, record)

    def _next_seq(self) -> int:
        """A monotonically increasing transition counter.

        Journal records carry no wall-clock timestamp (byte-stability),
        so retention orders finished records by ``seq``.  The counter
        resumes from the highest stored value across daemon lifetimes.
        """
        if self._seq is None:
            self._seq = _max_seq(self._store)
        self._seq += 1
        return self._seq


def _max_seq(store: ArtifactStore) -> int:
    highest = 0
    for key in store.list(JOURNAL_STREAM):
        record = store.read(JOURNAL_STREAM, key)
        if isinstance(record, dict):
            try:
                highest = max(highest, int(record.get("seq", 0)))
            except (TypeError, ValueError):
                continue
    return highest


def prune_finished(store: ArtifactStore, keep: int) -> Dict[str, int]:
    """Tombstone finished journal records beyond the newest ``keep``.

    ``admitted``/``started`` records are never touched — they are what
    ``--recover`` replays.  Damaged records (unreadable payloads) are
    left for ``repro store verify`` to deal with.  Follow with a
    compaction of the journal stream to reclaim the bytes.
    """
    keep = max(0, int(keep))
    finished = []
    unfinished = 0
    for key in store.list(JOURNAL_STREAM):
        record = store.read(JOURNAL_STREAM, key)
        if not isinstance(record, dict):
            continue
        if record.get("status") in UNFINISHED:
            unfinished += 1
            continue
        try:
            seq = int(record.get("seq", 0))
        except (TypeError, ValueError):
            seq = 0
        finished.append((seq, key))
    finished.sort()
    drop = finished[:max(0, len(finished) - keep)]
    for _seq, key in drop:
        store.delete(JOURNAL_STREAM, key)
    return {"dropped": len(drop),
            "kept_finished": len(finished) - len(drop),
            "unfinished": unfinished}
