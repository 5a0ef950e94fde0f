"""Structured session events.

Every stage of an optimization emits a :class:`SessionEvent`: retrieval
done, candidate generated / compiled / tested, round transitions, cache
hits, final selection.  Events serve two audiences:

* **subscribers** on a session's :class:`EventBus` see events live
  (with wall-clock timestamps) — progress bars, log shippers, metrics;
* **results** carry the per-request :class:`EventLog` — a deterministic
  record (no wall times, request-local sequence numbers) that is safe
  to persist in the result store and renders byte-stable in
  ``repro optimize --json`` / ``repro serve-batch``.

Determinism contract: ``data`` holds only JSON-able, run-deterministic
values.  Wall-clock time lives in the separate ``wall`` field, which is
excluded from :meth:`SessionEvent.to_dict` (and therefore from every
serialized artifact); emitting events never consumes pipeline RNG.
"""

from __future__ import annotations

import logging
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, Mapping, Optional, Tuple)

logger = logging.getLogger("repro.api.events")

#: ring-buffer capacity of an :class:`EventLog` unless overridden —
#: far above what any real optimization emits (so determinism of
#: persisted logs is unaffected) yet a hard bound on daemon heap when a
#: pathological request streams forever
DEFAULT_EVENT_LOG_LIMIT = 100_000


def _default_event_log_limit() -> int:
    raw = os.environ.get("REPRO_EVENT_LOG_LIMIT", "")
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_EVENT_LOG_LIMIT

#: event kinds emitted by the session/pipeline (a vocabulary, not a
#: closed set — subscribers must tolerate unknown kinds)
EVENT_REQUEST = "request"
EVENT_CACHE_HIT = "cache_hit"
EVENT_RETRIEVAL = "retrieval_done"
EVENT_ROUND = "round_start"
EVENT_GENERATED = "candidate_generated"
EVENT_COMPILED = "candidate_compiled"
EVENT_TESTED = "candidate_tested"
EVENT_STAGE = "stage_done"
EVENT_SELECTED = "selected"


@dataclass(frozen=True)
class SessionEvent:
    """One structured progress record.

    ``seq`` is request-local (0, 1, 2, ... within one optimization) so
    logs compare equal across identical runs; ``wall`` is the emission
    timestamp for live subscribers and is deliberately excluded from
    equality and serialization.
    """

    seq: int
    kind: str
    data: Tuple[Tuple[str, Any], ...] = ()
    wall: float = field(default=0.0, compare=False)

    @staticmethod
    def make(seq: int, kind: str, data: Mapping[str, Any],
             wall: float = 0.0) -> "SessionEvent":
        return SessionEvent(seq=seq, kind=kind,
                            data=tuple(sorted(data.items())), wall=wall)

    def get(self, key: str, default: Any = None) -> Any:
        return dict(self.data).get(key, default)

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON form (no wall-clock time)."""
        return {"seq": self.seq, "kind": self.kind,
                "data": {k: v for k, v in self.data}}

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "SessionEvent":
        return SessionEvent.make(int(payload["seq"]), str(payload["kind"]),
                                 dict(payload["data"]))

    def __str__(self) -> str:
        rendered = " ".join(f"{k}={v}" for k, v in self.data)
        return f"[{self.seq:03d}] {self.kind} {rendered}".rstrip()


class EventLog:
    """Collects one request's events with a local sequence counter.

    Memory is bounded: the log is a ring buffer of ``limit`` events
    (``REPRO_EVENT_LOG_LIMIT``, default :data:`DEFAULT_EVENT_LOG_LIMIT`;
    ``limit <= 0`` = unbounded).  When the ring is full the *oldest*
    event is dropped and :attr:`dropped` counts it — live subscribers
    still saw every event via ``forward``, only the retained tail is
    truncated.  Sequence numbers keep counting monotonically, so a
    truncated log is recognizable by ``events()[0].seq > 0``.
    """

    def __init__(self, forward: Optional[Callable[[SessionEvent], None]]
                 = None, limit: Optional[int] = None) -> None:
        if limit is None:
            limit = _default_event_log_limit()
        self._events: Deque[SessionEvent] = deque(
            maxlen=limit if limit > 0 else None)
        self._seq = 0
        self._forward = forward
        #: events evicted from the ring (oldest-first) since creation
        self.dropped = 0

    def emit(self, kind: str, **data: Any) -> SessionEvent:
        event = SessionEvent.make(self._seq, kind, data,
                                  wall=time.time())
        self._seq += 1
        if (self._events.maxlen is not None
                and len(self._events) == self._events.maxlen):
            self.dropped += 1
        self._events.append(event)
        if self._forward is not None:
            self._forward(event)
        return event

    def events(self) -> Tuple[SessionEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)


class EventBus:
    """Fan-out of session events to subscribers.

    Subscribers are called synchronously, in subscription order, under
    no lock of their own — a slow subscriber slows the session, a
    raising subscriber is dropped after the first error (a monitoring
    hook must never kill an optimization).  A drop is never silent: it
    is logged with the traceback and announced to the surviving
    subscribers as a ``subscriber_dropped`` event, so operators can see
    that their log shipper / metrics hook died instead of wondering why
    the stream went quiet.  A forked child inherits no subscribers:
    every bus it copied starts empty there.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: "Dict[int, Callable[[SessionEvent], None]]" = {}
        self._next_token = 0
        _LIVE_BUSES.add(self)

    def subscribe(self, callback: Callable[[SessionEvent], None]
                  ) -> Callable[[], None]:
        """Register ``callback``; returns an unsubscribe closure."""
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._subscribers[token] = callback

        def _unsubscribe() -> None:
            with self._lock:
                self._subscribers.pop(token, None)
        return _unsubscribe

    def publish(self, event: SessionEvent) -> None:
        with self._lock:
            subscribers = list(self._subscribers.items())
        for token, callback in subscribers:
            try:
                callback(event)
            except Exception as exc:
                logger.warning(
                    "dropping event subscriber %r after %s on %r event",
                    callback, type(exc).__name__, event.kind,
                    exc_info=True)
                with self._lock:
                    removed = self._subscribers.pop(token, None)
                if removed is not None:
                    # recursion is bounded: every drop removes one
                    # subscriber, so a hook that also raises on this
                    # notice just drops too
                    self.publish(SessionEvent.make(
                        event.seq, "subscriber_dropped",
                        {"error": type(exc).__name__,
                         "during": event.kind},
                        wall=time.time()))

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)


#: every live bus, so a forked child can drop its inherited subscribers
_LIVE_BUSES: "weakref.WeakSet[EventBus]" = weakref.WeakSet()


def _forget_subscribers_in_child() -> None:
    """The parent's subscribers would deliver twice from a child copy.
    The lock is replaced, not taken: a parent thread may have held it
    across the fork."""
    for bus in list(_LIVE_BUSES):
        bus._lock = threading.Lock()
        bus._subscribers = {}


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_subscribers_in_child)
