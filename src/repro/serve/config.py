"""Daemon configuration: the ``repro serve`` flags as one object."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` needs to know.

    ``max_inflight`` requests execute concurrently; up to
    ``queue_depth`` more wait in the admission queue; anything beyond
    that — and anything over ``per_client`` concurrent requests from
    one client — is answered ``503`` with a ``Retry-After`` header
    instead of growing memory without bound.  ``default_deadline``
    (seconds, 0 = none) applies to requests that do not carry their
    own; ``drain_grace`` is how long SIGTERM waits for in-flight work
    before deadline-cancelling it.

    ``workers > 0`` switches execution into a pool of supervised
    forked worker processes (crash containment: a segfault, OOM, or
    hang takes down one worker, never the daemon);
    ``worker_memory_mb`` caps each worker's address space
    (``RLIMIT_AS``, 0 = unlimited).  The watchdog kills a worker busy
    longer than ``worker_hang_timeout`` seconds, restarts crashed
    workers with exponential backoff (``RESTART_BASE`` .. ``RESTART_CAP``
    seconds in :mod:`repro.serve.supervisor`), and a request signature
    that crashes workers ``worker_crash_limit`` times is quarantined
    (422).

    ``journal`` write-ahead-logs every non-streaming request to the
    artifact store's "journal" stream so that ``repro serve --recover``
    (``recover=True``) replays admitted-but-unfinished requests after a
    daemon crash.  Duplicates are answered by the result store.

    Every setting is a ``repro serve`` flag or the caller's; none has an
    environment spelling.  No setting bounds sessions: each request's
    session comes from the process-wide registry
    (:func:`repro.api.session.shared_session`), one per spec; the heavy
    corpus and retriever behind a session live in process-wide memos
    either way.
    """

    host: str = "127.0.0.1"
    port: int = 8459
    max_inflight: int = 4
    queue_depth: int = 8
    per_client: int = 4
    default_deadline: float = 0.0
    drain_grace: float = 10.0
    workers: int = 0
    worker_memory_mb: int = 0
    worker_hang_timeout: float = 300.0
    worker_crash_limit: int = 2
    journal: bool = True
    recover: bool = False
    #: session defaults for requests that send no "session" object
    default_session: Dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def from_env(**overrides: Any) -> "ServeConfig":
        """``ServeConfig(**overrides)``; no setting is read from the
        environment.  Kept for its one caller, ``perfbench/worker.py``."""
        return ServeConfig(**overrides)

    def with_overrides(self, **overrides: Any) -> "ServeConfig":
        filtered = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **filtered) if filtered else self
