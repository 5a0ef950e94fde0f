"""Retry/backoff, circuit breakers, and the sessions' LLM proxy."""

import pytest

from repro.api import OptimizerSession
from repro.api.resilience import (RESILIENCE_BUS, CircuitBreaker,
                                  CircuitOpenError, ResilientCall,
                                  ResilientLLM, RetryPolicy, breaker_for,
                                  breaker_states, is_transient,
                                  reset_resilience)
from repro.cancellation import Cancelled
from repro.testing.faults import install_plan, register_fault_backends

FAST = RetryPolicy(attempts=4, base=0.0001, cap=0.0005)


@pytest.fixture(autouse=True)
def _clean_resilience():
    reset_resilience()
    install_plan(None)
    yield
    install_plan(None)
    reset_resilience()


@pytest.fixture()
def bus_events():
    collected = []
    unsubscribe = RESILIENCE_BUS.subscribe(collected.append)
    yield collected
    unsubscribe()


class TestRetryPolicy:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "7")
        monkeypatch.setenv("REPRO_RETRY_BASE", "0.25")
        policy = RetryPolicy.from_env()
        assert policy.attempts == 7
        assert policy.base == 0.25
        # explicit overrides beat the environment
        assert RetryPolicy.from_env(attempts=2).attempts == 2

    def test_transience_classification(self):
        assert is_transient(ConnectionError("x"))
        assert is_transient(TimeoutError("x"))

        class Weird(Exception):
            transient = True

        assert is_transient(Weird())
        assert not is_transient(ValueError("x"))
        assert not is_transient(Cancelled())
        assert not is_transient(CircuitOpenError("s", 1.0))


class TestResilientCall:
    def test_retries_then_succeeds_with_events(self, bus_events):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionError("nope")
            return "ok"

        slept = []
        call = ResilientCall("test:site", policy=FAST, sleep=slept.append)
        assert call(flaky) == "ok"
        assert calls["n"] == 3
        assert len(slept) == 2
        assert [e.kind for e in bus_events] == ["retry", "retry"]
        assert bus_events[0].get("site") == "test:site"
        assert bus_events[0].get("attempt") == 1
        assert call.breaker.state == CircuitBreaker.CLOSED

    def test_backoff_is_deterministic_and_bounded(self):
        def delays_of(site):
            slept = []
            call = ResilientCall(site, policy=FAST, sleep=slept.append,
                                 breaker=CircuitBreaker(site, 100))
            with pytest.raises(ConnectionError):
                call(lambda: (_ for _ in ()).throw(ConnectionError()))
            return slept

        first = delays_of("test:jitter")
        second = delays_of("test:jitter")
        assert first == second  # same site+seed, same schedule
        assert len(first) == FAST.attempts - 1
        assert all(FAST.base <= d <= FAST.cap for d in first)

    def test_non_transient_raises_immediately(self, bus_events):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("permanent")

        call = ResilientCall("test:site", policy=FAST,
                             sleep=lambda s: None)
        with pytest.raises(ValueError):
            call(broken)
        assert calls["n"] == 1
        assert bus_events == []
        assert call.breaker.state == CircuitBreaker.CLOSED

    def test_gives_up_after_attempts(self, bus_events):
        calls = {"n": 0}

        def always_down():
            calls["n"] += 1
            raise TimeoutError("down")

        call = ResilientCall("test:site", policy=FAST,
                             breaker=CircuitBreaker("test:site", 100),
                             sleep=lambda s: None)
        with pytest.raises(TimeoutError):
            call(always_down)
        assert calls["n"] == FAST.attempts
        kinds = [e.kind for e in bus_events]
        assert kinds == ["retry", "retry", "retry", "retry_give_up"]
        assert bus_events[-1].get("attempts") == FAST.attempts

    def test_breaker_trip_short_circuits_retries(self, bus_events):
        calls = {"n": 0}

        def always_down():
            calls["n"] += 1
            raise ConnectionError("down")

        breaker = CircuitBreaker("test:trip", failure_threshold=2)
        call = ResilientCall("test:trip", policy=FAST, breaker=breaker,
                             sleep=lambda s: None)
        with pytest.raises(ConnectionError):
            call(always_down)
        # gave up as soon as the breaker tripped, not after attempts
        assert calls["n"] == 2
        assert breaker.state == CircuitBreaker.OPEN
        kinds = [e.kind for e in bus_events]
        assert "breaker_open" in kinds and "retry_give_up" in kinds

        # subsequent calls fail fast without touching the function
        with pytest.raises(CircuitOpenError) as excinfo:
            call(always_down)
        assert calls["n"] == 2
        assert excinfo.value.site == "test:trip"
        assert excinfo.value.retry_after > 0


class TestCircuitBreaker:
    def test_trip_probe_close_cycle(self, bus_events):
        now = [0.0]
        breaker = CircuitBreaker("test:cycle", failure_threshold=2,
                                 reset_timeout=10.0,
                                 clock=lambda: now[0])
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN

        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.allow()
        assert 0 < excinfo.value.retry_after <= 10.0

        now[0] = 10.0
        breaker.allow()  # becomes the half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

        kinds = [e.kind for e in bus_events]
        assert kinds == ["breaker_open", "breaker_half_open",
                         "breaker_close"]

    def test_half_open_failure_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker("test:reopen", failure_threshold=1,
                                 reset_timeout=5.0, clock=lambda: now[0])
        breaker.record_failure()
        now[0] = 5.0
        breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # clock has not advanced again

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker("test:streak", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # streak broken

    def test_registry_and_defaults(self):
        default = breaker_for("test:default")
        assert default.failure_threshold == 5
        assert default.reset_timeout == 30.0
        breaker = breaker_for("test:explicit", failure_threshold=2,
                              reset_timeout=7.5)
        assert breaker.failure_threshold == 2
        assert breaker.reset_timeout == 7.5
        # the arguments only apply on creation
        assert breaker_for("test:explicit", failure_threshold=9) is breaker
        assert breaker.failure_threshold == 2
        assert breaker_states() == {"test:default": "closed",
                                    "test:explicit": "closed"}
        reset_resilience()
        assert breaker_states() == {}


class TestSessionLLM:
    def test_every_session_wraps_its_backend(self):
        register_fault_backends()
        for backend in ("simulated", "faulty"):
            session = OptimizerSession(llm_backend=backend,
                                       use_store=False)
            llm = session.pipeline_for("basellm", "deepseek").llm_factory()
            assert isinstance(llm, ResilientLLM)
            assert llm._call.site == f"llm:{backend}"
            assert session.llm_backend == backend
