"""Cooperative cancellation and deadlines.

The service front door (:mod:`repro.serve`) accepts requests with
per-request deadlines and must be able to abandon work mid-flight —
on deadline expiry, on client disconnect, and during graceful drain.
Python threads cannot be killed, so cancellation is *cooperative*: the
long-running layers (the feedback pipeline, fault-injected backends,
retry sleeps) call :func:`checkpoint` at their natural step boundaries,
and the call raises :class:`Cancelled` as soon as the active
:class:`CancelToken` has been cancelled or its deadline has passed.

This module is dependency-free on purpose (like :mod:`repro.registry`)
so the low-level pipeline package can import it without pulling in the
service API.

Usage::

    token = CancelToken.with_timeout(5.0)
    with cancel_scope(token):
        session.optimize(request)       # pipeline checkpoints now fire

Without an active scope every checkpoint is a no-op, so batch and
library callers pay nothing.  Scopes are thread-local: each daemon
worker thread runs its own request under its own token.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional


class Cancelled(Exception):
    """The active request was cancelled; unwind cooperatively."""

    #: machine-readable reason ("cancelled", "deadline", "drain", ...)
    reason = "cancelled"

    def __init__(self, message: str = "request cancelled",
                 reason: str = "cancelled") -> None:
        super().__init__(message)
        self.reason = reason


class DeadlineExceeded(Cancelled):
    """The active request ran past its deadline."""

    def __init__(self, message: str = "deadline exceeded") -> None:
        super().__init__(message, reason="deadline")


def cancelled_from(reason: str, message: str) -> Cancelled:
    """Rebuild the right cancellation exception from its wire form.

    A supervised worker reports cancellation across a pipe as
    ``(reason, message)``; the daemon re-raises it in the request
    thread with the original type so the existing 503-vs-504 error
    mapping keeps working.
    """
    if reason == "deadline":
        return DeadlineExceeded(message)
    return Cancelled(message, reason=reason)


class CancelToken:
    """One request's cancellation state: an event plus a deadline.

    ``deadline`` is an absolute :func:`time.monotonic` instant (or
    ``None``).  Tokens are thread-safe; any thread may :meth:`cancel`
    while the worker thread checkpoints.
    """

    def __init__(self, deadline: Optional[float] = None,
                 clock=time.monotonic) -> None:
        self._clock = clock
        self.deadline = deadline
        self._event = threading.Event()
        self._reason = "cancelled"

    @staticmethod
    def with_timeout(seconds: Optional[float],
                     clock=time.monotonic) -> "CancelToken":
        """A token expiring ``seconds`` from now (``None``/0 = never)."""
        if seconds is None or seconds <= 0:
            return CancelToken(clock=clock)
        return CancelToken(deadline=clock() + seconds, clock=clock)

    # ------------------------------------------------------------------
    def cancel(self, reason: str = "cancelled") -> None:
        self._reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def expired(self) -> bool:
        return self.deadline is not None and self._clock() >= self.deadline

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline (``None`` = unbounded)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self._clock())

    def check(self) -> None:
        """Raise :class:`Cancelled`/:class:`DeadlineExceeded` if due."""
        if self._event.is_set():
            raise Cancelled(f"request {self._reason}", reason=self._reason)
        if self.expired():
            raise DeadlineExceeded()


# ----------------------------------------------------------------------
# thread-local active scope
# ----------------------------------------------------------------------
_ACTIVE = threading.local()


def current_token() -> Optional[CancelToken]:
    return getattr(_ACTIVE, "token", None)


@contextmanager
def cancel_scope(token: Optional[CancelToken]) -> Iterator[None]:
    """Install ``token`` as this thread's active cancellation scope."""
    previous = current_token()
    _ACTIVE.token = token
    try:
        yield
    finally:
        _ACTIVE.token = previous


def checkpoint() -> None:
    """Raise if the calling thread's active token is due; else no-op."""
    token = current_token()
    if token is not None:
        token.check()


def sleep_interruptible(seconds: float) -> None:
    """Sleep that honors the active token.

    Sleeps in 20 ms slices and checkpoints between them, so injected
    delays and retry backoffs wake up promptly on cancellation instead
    of pinning a drain or deadline to the full sleep duration.
    """
    end = time.monotonic() + seconds
    checkpoint()
    while True:
        left = end - time.monotonic()
        if left <= 0:
            return
        time.sleep(min(0.02, left))
        checkpoint()
