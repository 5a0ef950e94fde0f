"""Retry/backoff and circuit breaking for unreliable components.

The paper's feedback loop assumes the LLM misbehaves per *round*; a
long-lived service additionally has to assume the backend misbehaves
per *call* — transient network errors, timeouts, malformed replies.
Every session's pipeline wraps the LLM backend it resolves from
:data:`~repro.llm.LLM_BACKENDS` in a :class:`ResilientLLM`
(see :meth:`repro.api.OptimizerSession.pipeline_for`), so ``bench``,
``optimize`` and ``serve`` share one call path with two layers:

* **retry with decorrelated-jitter backoff** — transient failures are
  retried up to ``attempts`` times, sleeping ``uniform(base, 3*prev)``
  (capped) between tries.  Sleeps go through
  :func:`repro.cancellation.sleep_interruptible`, so deadlines and
  drain cut a backoff short instead of waiting it out.
* **a per-component circuit breaker** — after ``failure_threshold``
  consecutive failures the breaker opens and calls fail fast with
  :class:`CircuitOpenError` (no hang, no thundering retry herd); after
  ``reset_timeout`` seconds one half-open probe is let through and its
  outcome closes or re-opens the breaker.

Every retry, give-up, trip, probe and close is published as a
structured :class:`~repro.api.events.SessionEvent` on the module-level
:data:`RESILIENCE_BUS` — *not* on per-request event logs, which stay
byte-identical to fault-free runs (a retried call returns the same
deterministic response the clean call would have).

Transience: :func:`is_transient` is the one rule.  An exception is
transient when it is a ``ConnectionError`` or ``TimeoutError`` or
carries a truthy ``transient`` attribute (the convention
:mod:`repro.testing.faults` uses);
:class:`~repro.cancellation.Cancelled` and :class:`CircuitOpenError`
never are.  It decides what :class:`ResilientCall` retries, whether
``repro serve`` answers a failure 502 ``backend`` or 500 ``internal``,
and the ``transient`` flag a supervised worker relays with a failure.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..cancellation import Cancelled, sleep_interruptible
from .events import EventBus, SessionEvent

#: resilience events fan out here (a process-wide bus, deliberately
#: separate from per-session buses: operators subscribe once)
RESILIENCE_BUS = EventBus()

_SEQ_LOCK = threading.Lock()
_SEQ = 0


def _emit(kind: str, **data: Any) -> SessionEvent:
    global _SEQ
    with _SEQ_LOCK:
        seq = _SEQ
        _SEQ += 1
    event = SessionEvent.make(seq, kind, data, wall=time.time())
    RESILIENCE_BUS.publish(event)
    return event


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving up on one call (the backoff jitter
    is seeded per site, so it is deterministic)."""

    attempts: int = 4
    base: float = 0.05      # first backoff lower bound (seconds)
    cap: float = 2.0        # backoff upper bound (seconds)

    @staticmethod
    def from_env(**overrides: Any) -> "RetryPolicy":
        """Policy from ``REPRO_RETRY_ATTEMPTS`` / ``REPRO_RETRY_BASE``."""
        values: Dict[str, Any] = {}
        if "REPRO_RETRY_ATTEMPTS" in os.environ:
            values["attempts"] = int(os.environ["REPRO_RETRY_ATTEMPTS"])
        if "REPRO_RETRY_BASE" in os.environ:
            values["base"] = float(os.environ["REPRO_RETRY_BASE"])
        values.update(overrides)
        return RetryPolicy(**values)


def is_transient(exc: BaseException) -> bool:
    """Whether a failure is worth retrying (see the module docstring)."""
    if isinstance(exc, (Cancelled, CircuitOpenError)):
        return False
    return (isinstance(exc, (ConnectionError, TimeoutError))
            or bool(getattr(exc, "transient", False)))


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class CircuitOpenError(RuntimeError):
    """Fail-fast rejection: the component's breaker is open."""

    transient = False

    def __init__(self, site: str, retry_after: float) -> None:
        super().__init__(
            f"circuit breaker for {site!r} is open; "
            f"retry in {retry_after:.1f}s")
        self.site = site
        self.retry_after = retry_after


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open probe.

    Thread-safe; while half-open exactly one caller holds the probe and
    everyone else still fails fast, so a recovering backend sees one
    request, not a stampede.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, site: str, failure_threshold: int = 5,
                 reset_timeout: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.site = site
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    # ------------------------------------------------------------------
    def allow(self) -> None:
        """Admit one call or raise :class:`CircuitOpenError`."""
        with self._lock:
            if self._state == self.CLOSED:
                return
            elapsed = self._clock() - self._opened_at
            if self._state == self.OPEN and elapsed >= self.reset_timeout:
                self._state = self.HALF_OPEN
                self._probing = False
            if self._state != self.HALF_OPEN or self._probing:
                raise CircuitOpenError(
                    self.site,
                    max(0.0, self.reset_timeout - elapsed))
            self._probing = True   # this caller is the probe
        _emit("breaker_half_open", site=self.site)

    def record_success(self) -> None:
        with self._lock:
            was = self._state
            self._state = self.CLOSED
            self._failures = 0
            self._probing = False
        if was != self.CLOSED:
            _emit("breaker_close", site=self.site)

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            tripped = (self._state == self.HALF_OPEN
                       or self._failures >= self.failure_threshold)
            if tripped:
                already_open = self._state == self.OPEN
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probing = False
                tripped = not already_open
            failures = self._failures
        if tripped:
            _emit("breaker_open", site=self.site, failures=failures)


# process-wide breakers, one per component site
_BREAKERS: Dict[str, CircuitBreaker] = {}
_BREAKERS_LOCK = threading.Lock()


def breaker_for(site: str, failure_threshold: int = 5,
                reset_timeout: float = 30.0) -> CircuitBreaker:
    """The process-wide breaker for ``site`` (created on first use).

    The arguments only apply on creation.
    """
    with _BREAKERS_LOCK:
        breaker = _BREAKERS.get(site)
        if breaker is None:
            breaker = CircuitBreaker(site, failure_threshold,
                                     reset_timeout)
            _BREAKERS[site] = breaker
        return breaker


def breaker_states() -> Dict[str, str]:
    """Current state per known component site (for ``/metrics``)."""
    with _BREAKERS_LOCK:
        breakers = list(_BREAKERS.values())
    return {b.site: b.state for b in breakers}


def reset_resilience() -> None:
    """Forget all breakers and restart the event sequence (tests)."""
    global _SEQ
    with _BREAKERS_LOCK:
        _BREAKERS.clear()
    with _SEQ_LOCK:
        _SEQ = 0


# ----------------------------------------------------------------------
# the retry loop
# ----------------------------------------------------------------------
class ResilientCall:
    """Retry + breaker around one component site's calls."""

    def __init__(self, site: str, policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 sleep: Callable[[float], None] = sleep_interruptible
                 ) -> None:
        self.site = site
        self.policy = policy or RetryPolicy.from_env()
        self.breaker = breaker if breaker is not None \
            else breaker_for(site)
        self._sleep = sleep
        self._rng = random.Random(f"retry/{site}/0")
        self._rng_lock = threading.Lock()

    def _backoff(self, previous: float) -> float:
        """Decorrelated jitter: ``min(cap, uniform(base, 3*prev))``."""
        with self._rng_lock:
            return min(self.policy.cap,
                       self._rng.uniform(self.policy.base, previous * 3))

    def __call__(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        policy = self.policy
        delay = policy.base
        for attempt in range(1, policy.attempts + 1):
            self.breaker.allow()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not is_transient(exc):
                    raise
                self.breaker.record_failure()
                if attempt >= policy.attempts \
                        or self.breaker.state != CircuitBreaker.CLOSED:
                    _emit("retry_give_up", site=self.site,
                          attempts=attempt, error=type(exc).__name__)
                    raise
                delay = self._backoff(delay)
                _emit("retry", site=self.site, attempt=attempt,
                      delay=round(delay, 4), error=type(exc).__name__)
                self._sleep(delay)
            else:
                self.breaker.record_success()
                return result
        raise AssertionError("unreachable")  # pragma: no cover


# ----------------------------------------------------------------------
# the LLM proxy (every session's pipeline wraps its backend in one)
# ----------------------------------------------------------------------
class ResilientLLM:
    """Transparent resilience proxy over one LLM chat session.

    Only ``generate`` goes through the retry/breaker machinery (it is
    the remote call); everything else proxies straight through, so a
    wrapped backend is behaviourally byte-identical to the inner one
    whenever the inner one answers.
    """

    def __init__(self, inner: Any, call: ResilientCall) -> None:
        self._inner = inner
        self._call = call

    def generate(self, prompt: Any, k: int, round_tag: str = "r0") -> Any:
        return self._call(self._inner.generate, prompt, k, round_tag)

    def note_result(self, k: int, passed: bool) -> None:
        self._inner.note_result(k, passed)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

