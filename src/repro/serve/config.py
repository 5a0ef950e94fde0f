"""Daemon configuration (flags + ``REPRO_SERVE_*`` env knobs)."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict

def _parse_bool(raw: str) -> bool:
    return raw.strip().lower() not in ("0", "false", "no", "off", "")


#: env knob -> (field, parser); documented in README "Environment knobs"
_ENV_KNOBS = {
    "REPRO_SERVE_INFLIGHT": ("max_inflight", int),
    "REPRO_SERVE_QUEUE": ("queue_depth", int),
    "REPRO_SERVE_PER_CLIENT": ("per_client", int),
    "REPRO_SERVE_DEADLINE": ("default_deadline", float),
    "REPRO_SERVE_DRAIN": ("drain_grace", float),
    "REPRO_SERVE_JOURNAL": ("journal", _parse_bool),
    "REPRO_WORKER_POOL": ("workers", int),
    "REPRO_WORKER_MEM_MB": ("worker_memory_mb", int),
    "REPRO_WORKER_HANG": ("worker_hang_timeout", float),
    "REPRO_WORKER_CRASH_LIMIT": ("worker_crash_limit", int),
}


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
    workers with exponential backoff (``worker_restart_base`` ..
    ``worker_restart_cap`` seconds, set on the config only), and a
    request signature that crashes workers ``worker_crash_limit`` times
    is quarantined (422).

    ``journal`` write-ahead-logs every non-streaming request to the
    artifact store's "journal" stream so that ``repro serve --recover``
    (``recover=True``) replays admitted-but-unfinished requests after a
    daemon crash.  Duplicates are answered by the result store.

    No setting bounds sessions: each request's session comes from the
    process-wide registry (:func:`repro.api.session.shared_session`),
    one per spec; the heavy corpus and retriever behind a session live
    in process-wide memos either way.
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
    worker_restart_base: float = 0.25
    worker_restart_cap: float = 5.0
    journal: bool = True
    recover: bool = False
    #: session defaults for requests that send no "session" object
    default_session: Dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def from_env(**overrides: Any) -> "ServeConfig":
        values: Dict[str, Any] = {}
        for env, (name, parse) in _ENV_KNOBS.items():
            if env in os.environ:
                values[name] = parse(os.environ[env])
        values.update(overrides)
        return ServeConfig(**values)

    def with_overrides(self, **overrides: Any) -> "ServeConfig":
        filtered = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **filtered) if filtered else self
