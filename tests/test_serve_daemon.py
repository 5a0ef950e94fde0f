"""The ``repro serve`` daemon, end to end over real HTTP.

Every robustness claim is exercised against a live in-process daemon
with deterministic injected faults: overload answers 503 +
``Retry-After``, deadlines answer 504, transient backend failures are
retried to a byte-identical result, persistent failures trip the
breaker into fail-fast, and drain lets in-flight work finish.
"""

import copy
import http.client
import json
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import OptimizationRequest, OptimizerSession
from repro.api.resilience import breaker_for, reset_resilience
from repro.api.session import (BODY_FIELDS, REQUEST_FIELDS,
                               SESSION_FIELDS, SESSIONS, shared_session)
from repro.cancellation import Cancelled, CancelToken
from repro.ir import parse_scop
from repro.serve import (AdmissionController, BadRequest, Metrics,
                         Rejected, ServeConfig, ServeDaemon)
from repro.testing.faults import FaultPlan, install_plan

KERNEL = """
scop axpyish(N) {
  array X[N] output;
  array Y[N];
  for (i = 0; i < N; i++)
    X[i] = X[i] + 2.0 * Y[i];
}
"""

#: two parameters, so a binding can miss one
KERNEL2 = """
scop mv(N, M) {
  array A[N][M];
  array x[M];
  array y[N] output;
  for (i = 0; i < N; i++)
    for (j = 0; j < M; j++)
      y[i] = y[i] + A[i][j] * x[j];
}
"""
NAN, INF = float("nan"), float("inf")


def _body(request=None, **top):
    """A body for KERNEL with extra request fields and top-level ones."""
    return dict(top, request=dict(request or {}, source=KERNEL))


#: request-schema violations that once answered 500 or were accepted,
#: each with the field its 400 must name
SCHEMA_CASES = [
    (_body({"system": "compiler"}), "request.optimizer"),
    (_body({"optimizer": "pluto"}), "request.optimizer"),
    (_body({"test": {"N": -3}}), "request.test"),
    (_body({"test": {"N": 1000000}}), "request.test"),
    (_body({"perf": {"M": 3}}), "request.perf"),
    (_body({"perf": {"N": 0}}), "request.perf"),
    (_body({"perf": {"N": -5}}), "request.perf"),
    (_body({"perf": {"N": 2.7}}), "request.perf"),
    (_body({"perf": {"N": "12"}}), "request.perf"),
    (_body({"perf": {"N": "x"}}), "request.perf"),
    (_body({"time_limit": NAN}), "request.time_limit"),
    (_body({"time_limit": -1}), "request.time_limit"),
    (_body({"tag": [1]}), "request.tag"),
    (_body(deadline_s=-1), "deadline_s"),
    (_body(deadline_s=INF), "deadline_s"),
    (_body(use_store="yes"), "use_store"),
    (_body(stream="x"), "stream"),
]


def _strict(text):
    """``text`` parsed as strict JSON: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------
def _request(addr, method, path, body=None, headers=None, timeout=120):
    conn = http.client.HTTPConnection(*addr, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        base = {"Content-Type": "application/json"}
        base.update(headers or {})
        conn.request(method, path, payload, base)
        resp = conn.getresponse()
        return resp.status, resp.read().decode(), dict(resp.getheaders())
    finally:
        conn.close()


def _post(addr, body, headers=None, timeout=120):
    return _request(addr, "POST", "/v1/optimize", body, headers, timeout)


def _get(addr, path):
    status, text, headers = _request(addr, "GET", path)
    return status, json.loads(text), headers


def _stream(addr, body, timeout=120):
    conn = http.client.HTTPConnection(*addr, timeout=timeout)
    try:
        conn.request("POST", "/v1/optimize", json.dumps(body),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        lines = [line.decode().strip() for line in resp
                 if line.strip()]
        return resp.status, lines
    finally:
        conn.close()


def _wait_until(predicate, timeout=10.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _canonical_request():
    return OptimizationRequest.make(
        parse_scop(KERNEL), {"N": 1500}, {"N": 8},
        system="looprag", persona="deepseek")


@pytest.fixture()
def make_daemon(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BASE", "0.001")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_resilience()
    install_plan(None)
    daemons = []

    def make(**overrides):
        options = dict(host="127.0.0.1", port=0, max_inflight=4,
                       queue_depth=4, per_client=4, drain_grace=10.0,
                       journal=False,
                       default_session={"dataset_size": 40})
        options.update(overrides)
        daemon = ServeDaemon(ServeConfig(**options))
        daemon.start()
        daemons.append(daemon)
        return daemon

    yield make
    install_plan(None)
    for daemon in daemons:
        daemon.stop(timeout=30)
    reset_resilience()


# ----------------------------------------------------------------------
# endpoints
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_healthz_metrics_and_404(self, make_daemon):
        daemon = make_daemon()
        status, doc, _ = _get(daemon.address, "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["inflight"] == 0

        status, doc, _ = _get(daemon.address, "/metrics")
        assert status == 200
        assert set(doc) == {"counters", "gauges", "latency"}
        assert doc["gauges"]["inflight"] == 0
        assert doc["gauges"]["draining"] is False
        assert set(doc["latency"]) == {"count", "p50_ms", "p95_ms",
                                       "max_ms"}

        status, doc, _ = _get(daemon.address, "/nope")
        assert status == 404
        assert doc["error"]["kind"] == "not_found"

    def test_bad_requests_answer_400_and_never_kill_the_daemon(
            self, make_daemon):
        daemon = make_daemon()
        sessions = set(SESSIONS)
        cases = [
            {},                                      # no request at all
            {"request": {"source": "scop ((("}},     # unparseable SCoP
            {"request": {"source": KERNEL},
             "session": {"bogus_knob": 1}},          # unknown field
            {"request": {"source": KERNEL},
             "deadline_s": "soon"},                  # non-numeric deadline
            {"request": {"source": KERNEL},
             "session": ["x"]},                      # session not an object
            {"request": {"source": KERNEL, "perf": ["N"]}},  # perf not a map
            {"request": {"source": KERNEL,
                         "test": {"N": "eight"}}},   # test value not an int
            {"request": {"source": KERNEL,
                         "time_limit": "1m"}},       # non-numeric time limit
            {"request": {"source": KERNEL},
             "session": {"dataset_size": "big"}},    # size not an integer
            {"request": {"source": KERNEL},
             "session": {"k": "x"}},                 # k not an integer
            {"request": {"source": KERNEL,
                         "persona": 5}},             # persona not a name
            {"request": {"source": KERNEL},
             "session": {"k": 0}},                   # no candidates
            {"request": {"source": KERNEL},
             "session": {"k": -1}},                  # negative k
            {"request": {"source": KERNEL},
             "session": {"dataset_size": 0}},        # empty corpus
            {"request": {"source": KERNEL},
             "session": {"dataset_size": -3}},       # negative size
        ]
        for body in cases:
            status, text, _ = _post(daemon.address, body)
            assert status == 400, body
            assert json.loads(text)["error"]["kind"] == "bad_request"

        conn = http.client.HTTPConnection(*daemon.address, timeout=30)
        try:  # syntactically invalid JSON body
            conn.request("POST", "/v1/optimize", "not json at all",
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
            assert json.loads(resp.read())["error"]["kind"] == \
                "bad_request"
        finally:
            conn.close()

        status, doc, _ = _get(daemon.address, "/healthz")
        assert status == 200 and doc["status"] == "ok"
        assert daemon.metrics.get("failed_total") == 16
        assert daemon.metrics.get("requests_total") == 16
        assert set(SESSIONS) == sessions

    @pytest.mark.parametrize("workers", [0, 1])
    def test_out_of_range_session_values_answer_400(self, make_daemon,
                                                    workers):
        daemon = make_daemon(workers=workers)
        sessions = set(SESSIONS)
        for spec in ({"k": 0}, {"dataset_size": -3}):
            status, text, _ = _post(daemon.address, {
                "request": {"source": KERNEL}, "session": spec})
            assert status == 400, spec
            error = json.loads(text)["error"]
            assert error["kind"] == "bad_request"
            assert f"'{next(iter(spec))}' must be at least 1" \
                in error["message"]
        assert set(SESSIONS) == sessions

    @pytest.mark.parametrize("workers", [0, 1])
    def test_schema_violations_answer_400_naming_the_field(
            self, make_daemon, workers):
        daemon = make_daemon(workers=workers)
        sessions = set(SESSIONS)
        for body, field in SCHEMA_CASES:
            status, text, _ = _post(daemon.address, body)
            assert status == 400, body
            error = _strict(text)["error"]
            assert (error["kind"], error["field"]) == ("bad_request", field)
            assert f"field '{field.rpartition('.')[2]}'" in error["message"]
        assert daemon.metrics.get("failed_total") == len(SCHEMA_CASES)
        assert daemon.metrics.get("completed_total") == 0
        assert set(SESSIONS) == sessions

    def test_nan_and_infinity_anywhere_answer_400(self, make_daemon):
        daemon = make_daemon()
        for constant in ("NaN", "Infinity", "-Infinity"):
            for raw in (
                    '{"request": {"source": %s, "time_limit": %s}}',
                    '{"request": {"source": %s, "perf": {"N": %s}}}',
                    '{"request": {"source": %s, "tag": %s}}',
                    '{"request": {"source": %s}, "deadline_s": %s}',
                    '{"request": {"source": %s}, "session": {"k": %s}}',
                    '{"request": {"source": %s}, "extra": %s}'):
                conn = http.client.HTTPConnection(*daemon.address,
                                                  timeout=30)
                try:
                    conn.request("POST", "/v1/optimize",
                                 raw % (json.dumps(KERNEL), constant))
                    resp = conn.getresponse()
                    assert resp.status == 400, (raw, constant)
                    _strict(resp.read())
                finally:
                    conn.close()
        assert daemon.metrics.get("completed_total") == 0

    def test_oversized_body_is_refused_unread(self, make_daemon):
        """Only the header is sent: the daemon must answer without
        waiting for (or allocating) the body it announces."""
        daemon = make_daemon()
        conn = http.client.HTTPConnection(*daemon.address, timeout=30)
        try:
            conn.putrequest("POST", "/v1/optimize")
            conn.putheader("Content-Length", "99999999999")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert json.loads(resp.read())["error"]["message"] == (
                "invalid JSON body: 99999999999 bytes are over the "
                "1048576-byte limit")
        finally:
            conn.close()
        assert daemon.metrics.get("failed_total") == 1
        status, doc, _ = _get(daemon.address, "/healthz")
        assert status == 200 and doc["status"] == "ok"


# ----------------------------------------------------------------------
# the headline contract: daemon results == in-process results
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_daemon_result_matches_in_process_optimize(self,
                                                       make_daemon):
        daemon = make_daemon()
        status, text, _ = _post(daemon.address, {
            "request": {"source": KERNEL}, "use_store": False})
        assert status == 200

        session = OptimizerSession(dataset_size=40)
        result = session.optimize(_canonical_request(), use_store=False)
        expected = json.dumps(result.to_json_dict(), indent=2,
                              sort_keys=True)
        assert text == expected


# ----------------------------------------------------------------------
# admission: overload and per-client push-back
# ----------------------------------------------------------------------
class TestAdmissionOverHTTP:
    def test_overload_answers_503_with_retry_after(self, make_daemon):
        daemon = make_daemon(max_inflight=1, queue_depth=0)
        install_plan(FaultPlan.parse(
            "llm.generate:delay:seconds=0.03:always"))
        slow = {}

        def run_slow():
            slow["response"] = _post(daemon.address, {
                "request": {"source": KERNEL},
                "session": {"llm_backend": "faulty"},
                "deadline_s": 60, "use_store": False})

        worker = threading.Thread(target=run_slow)
        worker.start()
        assert _wait_until(lambda: daemon.admission.inflight >= 1)

        status, text, headers = _post(daemon.address, {
            "request": {"source": KERNEL}, "use_store": False})
        assert status == 503
        doc = json.loads(text)
        assert doc["error"]["kind"] == "overloaded"
        assert headers["Retry-After"] == str(doc["error"]["retry_after"])
        assert int(headers["Retry-After"]) >= 1

        worker.join(timeout=60)
        status, text, _ = slow["response"]
        assert status == 200  # the in-flight request was untouched
        assert daemon.metrics.get("rejected_overloaded_total") == 1

    def test_sequential_reposts_never_race_the_released_slot(
            self, make_daemon):
        # the reply is written only after the admission slot is
        # released: a client that has read its response and re-posts
        # immediately must never collide with its own previous slot,
        # even at max_inflight=1 with no queue
        daemon = make_daemon(max_inflight=1, queue_depth=0)
        body = {"request": {"source": KERNEL}, "use_store": False}
        for _ in range(25):
            status, _, _ = _post(daemon.address, body)
            assert status == 200
        assert daemon.metrics.get("rejected_overloaded_total") == 0

    def test_per_client_limit(self, make_daemon):
        daemon = make_daemon(per_client=1, max_inflight=4,
                             queue_depth=4)
        install_plan(FaultPlan.parse(
            "llm.generate:delay:seconds=0.03:always"))
        alice = {"X-Client-Id": "alice"}
        slow = {}

        def run_slow():
            slow["response"] = _post(daemon.address, {
                "request": {"source": KERNEL},
                "session": {"llm_backend": "faulty"},
                "deadline_s": 60, "use_store": False}, headers=alice)

        worker = threading.Thread(target=run_slow)
        worker.start()
        assert _wait_until(lambda: daemon.admission.inflight >= 1)

        status, text, headers = _post(daemon.address, {
            "request": {"source": KERNEL}, "use_store": False},
            headers=alice)
        assert status == 503
        assert json.loads(text)["error"]["kind"] == "client_limit"
        assert "Retry-After" in headers

        # a different client is not throttled by alice's misbehavior
        status, _, _ = _post(daemon.address, {
            "request": {"source": KERNEL}, "use_store": False},
            headers={"X-Client-Id": "bob"})
        assert status == 200

        worker.join(timeout=60)
        assert slow["response"][0] == 200
        assert daemon.metrics.get("rejected_client_limit_total") == 1


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_expiry_answers_504(self, make_daemon):
        daemon = make_daemon()
        install_plan(FaultPlan.parse(
            "llm.generate:delay:seconds=0.05:always"))
        start = time.monotonic()
        status, text, _ = _post(daemon.address, {
            "request": {"source": KERNEL},
            "session": {"llm_backend": "faulty"},
            "deadline_s": 0.3, "use_store": False})
        elapsed = time.monotonic() - start
        assert status == 504
        assert json.loads(text)["error"]["kind"] == "deadline"
        assert elapsed < 10.0  # cancelled cooperatively, did not run out
        assert daemon.metrics.get("deadline_total") == 1
        assert daemon.metrics.get("cancelled_total") == 1

        # the slot is released in the handler's finally, which can land
        # just after the client reads the 504 — wait for it to settle
        assert _wait_until(lambda: daemon.admission.inflight == 0)
        status, doc, _ = _get(daemon.address, "/healthz")
        assert status == 200 and doc["status"] == "ok"


# ----------------------------------------------------------------------
# resilience: retries recover, breakers fail fast
# ----------------------------------------------------------------------
class TestResilienceOverHTTP:
    def test_transient_faults_are_retried_to_byte_identical_result(
            self, make_daemon):
        daemon = make_daemon()
        body = {"request": {"source": KERNEL},
                "session": {"llm_backend": "faulty"},
                "use_store": False}
        status, clean, _ = _post(daemon.address, body)
        assert status == 200

        install_plan(FaultPlan.parse("llm.generate:raise:times=2"))
        status, faulted, _ = _post(daemon.address, body)
        assert status == 200
        assert faulted == clean  # retries leave no trace in the result
        assert daemon.metrics.get("retries_total") >= 2
        snapshot = daemon.metrics.snapshot()
        assert snapshot["gauges"]["breakers"]["llm:faulty"] == "closed"

    def test_persistent_failure_trips_the_breaker_to_fail_fast(
            self, monkeypatch, make_daemon):
        monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "2")
        daemon = make_daemon()
        breaker_for("llm:faulty", failure_threshold=3)
        install_plan(FaultPlan.parse("llm.generate:raise:always"))
        body = {"request": {"source": KERNEL},
                "session": {"llm_backend": "faulty"},
                "use_store": False}

        status, text, _ = _post(daemon.address, body)
        assert status == 502  # retries exhausted: honest backend error
        assert json.loads(text)["error"]["kind"] == "backend"

        status, text, _ = _post(daemon.address, body)
        assert status == 502  # third failure trips the breaker

        status, text, headers = _post(daemon.address, body)
        assert status == 503  # now failing fast, no backend call at all
        doc = json.loads(text)
        assert doc["error"]["kind"] == "breaker_open"
        assert doc["error"]["site"] == "llm:faulty"
        assert int(headers["Retry-After"]) >= 1

        assert daemon.metrics.get("breaker_opens_total") == 1
        snapshot = daemon.metrics.snapshot()
        assert snapshot["gauges"]["breakers"]["llm:faulty"] == "open"

        status, doc, _ = _get(daemon.address, "/healthz")
        assert status == 200  # the daemon itself is perfectly healthy


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new_work(
            self, make_daemon):
        daemon = make_daemon(drain_grace=30.0)
        install_plan(FaultPlan.parse(
            "llm.generate:delay:seconds=0.05:always"))
        slow = {}

        def run_slow():
            slow["response"] = _post(daemon.address, {
                "request": {"source": KERNEL},
                "session": {"llm_backend": "faulty"},
                "use_store": False})

        worker = threading.Thread(target=run_slow)
        worker.start()
        assert _wait_until(lambda: daemon.admission.inflight >= 1)
        daemon.begin_drain(reason="test")

        status, text, _ = _post(daemon.address, {
            "request": {"source": KERNEL}, "use_store": False})
        assert status == 503
        assert json.loads(text)["error"]["kind"] == "draining"
        status, doc, _ = _get(daemon.address, "/healthz")
        assert status == 503 and doc["status"] == "draining"

        worker.join(timeout=60)
        status, text, _ = slow["response"]
        assert status == 200  # in-flight work finished cleanly
        assert daemon._drained.wait(30)
        assert daemon.metrics.get("drains_total") == 1

    def test_drain_cancels_work_past_the_grace_period(self,
                                                      make_daemon):
        daemon = make_daemon(drain_grace=0.2)
        install_plan(FaultPlan.parse(
            "llm.generate:delay:seconds=0.2:always"))
        slow = {}

        def run_slow():
            slow["response"] = _post(daemon.address, {
                "request": {"source": KERNEL},
                "session": {"llm_backend": "faulty"},
                "use_store": False})

        worker = threading.Thread(target=run_slow)
        worker.start()
        assert _wait_until(lambda: daemon.admission.inflight >= 1)
        daemon.begin_drain(reason="test")
        worker.join(timeout=60)

        status, text, _ = slow["response"]
        assert status == 503
        assert json.loads(text)["error"]["kind"] == "drain"
        assert daemon._drained.wait(30)

    def test_drain_answers_queued_waiters_with_503_not_silence(
            self, make_daemon):
        # The SIGTERM-vs-queued-waiter race: a request sitting in the
        # admission queue when drain begins must get a definite 503
        # ("drain"), not hang forever and not sneak through to a 200.
        daemon = make_daemon(max_inflight=1, queue_depth=2,
                             drain_grace=0.2)
        install_plan(FaultPlan.parse(
            "llm.generate:delay:seconds=0.3:always"))
        responses = {}

        def run(name):
            responses[name] = _post(daemon.address, {
                "request": {"source": KERNEL},
                "session": {"llm_backend": "faulty"},
                "use_store": False})

        inflight = threading.Thread(target=run, args=("inflight",))
        inflight.start()
        assert _wait_until(lambda: daemon.admission.inflight >= 1)
        queued = threading.Thread(target=run, args=("queued",))
        queued.start()
        assert _wait_until(lambda: daemon.admission.queued >= 1)

        daemon.begin_drain(reason="test")
        inflight.join(timeout=60)
        queued.join(timeout=60)
        assert daemon._drained.wait(30)

        status, text, headers = responses["queued"]
        assert status == 503  # answered, not abandoned
        doc = json.loads(text)
        assert doc["error"]["kind"] == "drain"
        assert "Retry-After" in headers
        # the in-flight one was past the grace too, so also a drain 503
        status, text, _ = responses["inflight"]
        assert status == 503


# ----------------------------------------------------------------------
# streaming
# ----------------------------------------------------------------------
class TestStreaming:
    def test_ndjson_events_then_result(self, make_daemon):
        daemon = make_daemon()
        status, lines = _stream(daemon.address, {
            "request": {"source": KERNEL}, "stream": True,
            "use_store": False})
        assert status == 200
        docs = [json.loads(line) for line in lines]
        kinds = [doc["kind"] for doc in docs]
        assert kinds[0] == "request"
        assert "selected" in kinds
        assert kinds[-1] == "result"
        events = docs[:-1]
        assert [e["seq"] for e in events] == list(range(len(events)))

        final = docs[-1]
        final.pop("kind")
        session = OptimizerSession(dataset_size=40)
        result = session.optimize(_canonical_request(), use_store=False)
        assert final == result.to_json_dict(include_events=False)
        assert daemon.metrics.get("streams_total") == 1

    def test_concurrent_streams_see_only_their_own_events(self,
                                                          make_daemon):
        daemon = make_daemon()
        out = {}

        def run(name):
            out[name] = _stream(daemon.address, {
                "request": {"source": KERNEL}, "stream": True,
                "use_store": False})

        workers = [threading.Thread(target=run, args=(name,))
                   for name in ("a", "b")]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)

        for name in ("a", "b"):
            status, lines = out[name]
            assert status == 200
            docs = [json.loads(line) for line in lines]
            assert docs[-1]["kind"] == "result"
            events = docs[:-1]
            # request-local sequence with no foreign events interleaved
            assert [e["seq"] for e in events] == \
                list(range(len(events)))

    @pytest.mark.parametrize("workers", [0, 1])
    def test_failed_stream_ends_in_one_error_line(self, monkeypatch,
                                                  make_daemon, workers):
        monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "2")
        # installed before the daemon starts, so its worker forks with it
        install_plan(FaultPlan.parse("llm.generate:raise:always"))
        daemon = make_daemon(workers=workers)
        status, lines = _stream(daemon.address, {
            "request": {"source": KERNEL}, "stream": True,
            "session": {"llm_backend": "faulty"}, "use_store": False})
        assert status == 200
        docs = [json.loads(line) for line in lines]  # all NDJSON
        assert docs[-1]["kind"] == "error"
        assert docs[-1]["error"]["kind"] == "failure"
        assert [doc["kind"] for doc in docs].count("error") == 1
        assert "result" not in [doc["kind"] for doc in docs]
        assert daemon.metrics.get("failed_total") == 1
        assert daemon.metrics.get("completed_total") == 0


# ----------------------------------------------------------------------
# sessions + request materialization (in-process)
# ----------------------------------------------------------------------
class TestSessionPool:
    def test_one_session_per_spec_from_the_registry(self, make_daemon):
        daemon = make_daemon()
        first = daemon.session_for({"seed": 0})
        assert daemon.session_for({"seed": 0}) is first
        assert shared_session(**daemon._merged_spec({"seed": 0})) \
            is first
        assert daemon.session_for({"seed": 1}) is not first
        _, doc, _ = _get(daemon.address, "/metrics")
        assert doc["gauges"]["sessions"] == len(SESSIONS)
        _, doc, _ = _get(daemon.address, "/healthz")
        assert doc["sessions"] == len(SESSIONS)

    def test_daemon_uses_the_entry_points_session(self, make_daemon):
        daemon = make_daemon(default_session={})
        assert daemon.session_for({}) is shared_session()

    @pytest.mark.parametrize("workers", [0, 1])
    def test_result_stored_by_optimize_is_a_daemon_store_hit(
            self, make_daemon, monkeypatch, workers):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        tag = f"cross-entry-{workers}"
        request = OptimizationRequest.make(
            parse_scop(KERNEL), {"N": 1500}, {"N": 8},
            system="looprag", persona="deepseek", tag=tag)
        stored = shared_session(dataset_size=40).optimize(request)
        daemon = make_daemon(workers=workers)
        status, text, _ = _post(daemon.address, {
            "request": {"source": KERNEL, "tag": tag}})
        assert status == 200
        assert text == json.dumps(stored.to_json_dict(), indent=2,
                                  sort_keys=True)
        assert daemon.metrics.get("store_hits_total") == 1

    def test_unknown_session_field_is_rejected(self, make_daemon):
        daemon = make_daemon()
        with pytest.raises(BadRequest, match="bogus"):
            daemon.session_for({"bogus": 1})


class TestMaterializeRequest:
    def test_defaults(self):
        request = ServeDaemon.materialize_request({"source": KERNEL})
        echo = request.echo()
        assert echo["target"] == "axpyish"
        assert echo["system"] == "looprag"
        assert echo["perf"] == {"N": 1500}
        assert echo["test"] == {"N": 8}

    @pytest.mark.parametrize("entry,match", [
        ("not a dict", "must be an object"),
        ({}, "source"),
        ({"source": "scop ((("}, "unparseable"),
        ({"source": KERNEL, "system": "not-a-system"},
         "not-a-system"),
        ({"source": KERNEL, "file": "k.scop"}, "field 'file'"),
        ({"source": KERNEL, "system": "compiler", "optimizer": "zz"},
         "optimizer.*unknown optimizing compiler 'zz'"),
        ({"source": KERNEL, "system": "basellm", "optimizer": "pluto"},
         "'optimizer' must be set on 'compiler' requests"),
        ({"source": KERNEL, "perf": {"N": True}}, "'perf' must be"),
        ({"source": KERNEL, "test": {"N": 1500, "M": 2}},
         r"'test' must bind exactly the kernel's parameters \(N\)"),
        ({"source": KERNEL, "test": {"N": 10 ** 30}},
         "'test' must give each array 1 to 400000 elements"),
        ({"source": KERNEL, "persona": "zz"}, "persona.*registered"),
    ])
    def test_bad_entries(self, entry, match):
        with pytest.raises(BadRequest, match=match):
            ServeDaemon.materialize_request(entry)


class TestRequestSchema:
    """One test per rule of the request schema."""

    @pytest.mark.parametrize("unset", [{}, {"perf": None, "test": None},
                                       {"perf": {}, "test": {}}])
    def test_unset_bindings_take_the_defaults(self, unset):
        echo = ServeDaemon.materialize_request(
            dict(unset, source=KERNEL2)).echo()
        assert (echo["perf"], echo["test"]) == (
            {"N": 1500, "M": 1500}, {"N": 8, "M": 8})

    def test_compiler_requests_and_only_they_name_an_optimizer(self):
        echo = ServeDaemon.materialize_request({
            "source": KERNEL, "system": "compiler",
            "optimizer": "pluto"}).echo()
        assert (echo["system"], echo["optimizer"]) == ("compiler", "pluto")
        for system, optimizer in (("compiler", None), ("looprag", "pluto"),
                                  ("basellm", "polly")):
            entry = {"source": KERNEL, "system": system}
            if optimizer is not None:
                entry["optimizer"] = optimizer
            with pytest.raises(BadRequest) as info:
                ServeDaemon.materialize_request(entry)
            assert info.value.field == "request.optimizer"

    @pytest.mark.parametrize("field, good, bad", [
        ("time_limit", [None, 0.5, 120], [0, -1, True, "1m", NAN, INF]),
        ("deadline_s", [None, 2, 0.25], [0, -1, False, "soon", NAN, -INF]),
        ("tag", [None, "", "x"], [1, [1], {"a": 1}, True]),
        ("use_store", [None, True, False], [0, 1, "yes"]),
        ("stream", [True, False], [None, 0, "x"]),
        ("include_events", [True, False], [None, 1, "no"]),
    ])
    def test_seconds_tags_and_flags(self, make_daemon, field, good, bad):
        daemon = make_daemon()
        path = f"request.{field}" if field in ("time_limit", "tag") \
            else field

        def body(value):
            if path.startswith("request."):
                return _body({field: value})
            return _body(**{field: value})
        for value in good:
            daemon.checked_body(body(value))
        for value in bad:
            with pytest.raises(BadRequest) as info:
                daemon.checked_body(body(value))
            assert info.value.field == path, value

    def test_any_seed_at_least_zero_names_a_corpus(self, make_daemon):
        daemon = make_daemon()
        for seed in (0, 7, 10 ** 30):
            assert daemon._merged_spec({"seed": seed})["seed"] == seed
        assert OptimizerSession(seed=10 ** 30).seed == 10 ** 30
        for seed in (-1, 1.0, "0", True, None):
            with pytest.raises(BadRequest, match="session field 'seed'"):
                daemon._merged_spec({"seed": seed})

    def test_one_unknown_key_rule_at_every_level(self, make_daemon):
        daemon = make_daemon()
        for body, field in ((_body(bogus=1), "bogus"),
                            (_body({"bogus": 1}), "request.bogus"),
                            (_body(session={"bogus": 1}), "session.bogus"),
                            (_body({"file": "k.scop"}), "request.file")):
            with pytest.raises(BadRequest, match="must be left out") as info:
                daemon.checked_body(body)
            assert info.value.field == field


# ----------------------------------------------------------------------
# the request schema, fuzzed: bodies built from its field tables, then
# one field mutated out of its rule
# ----------------------------------------------------------------------
#: for each kind of field, values its rule must refuse
_BAD = {
    "count": ["8", 1.5, True, None, 0, -1, NAN, INF],
    "seed": ["0", 1.5, True, None, -1, NAN],
    "name": [5, None, [1], "zz-unregistered", NAN],
    "source": [5, None, "", "  ", "scop ((("],
    "bindings": ["x", [1], 5, {"N": 0, "M": 1}, {"N": -3, "M": 1},
                 {"N": 2.5, "M": 1}, {"N": "12", "M": 1},
                 {"N": True, "M": 1}, {"N": NAN, "M": 1}, {"N": 8},
                 {"N": 8, "M": 8, "Q": 8}, {"Q": 8, "M": 8}],
    "seconds": [0, -1, "1m", True, [1], NAN, INF, -INF],
    "tag": [5, [1], True, {"a": 1}, NAN],
    "flag": ["x", 1, 0, None, NAN],
    "maybe_flag": ["x", 1, 0, NAN],
    "object": [5, "x", [1], NAN],
}
_BAD["test"] = _BAD["bindings"] + [{"N": 10 ** 6, "M": 1}]  # over budget
#: every field of the schema's tables, by kind
_KINDS = {
    "": {"request": "object", "session": "object",
         "deadline_s": "seconds", "stream": "flag",
         "use_store": "maybe_flag", "include_events": "flag"},
    "request": {"source": "source", "system": "name", "persona": "name",
                "optimizer": "name", "perf": "bindings",
                "test": "test", "time_limit": "seconds",
                "tag": "tag"},
    "session": {"dataset_size": "count", "seed": "seed", "k": "count",
                "generator": "name", "retrieval_method": "name",
                "llm_backend": "name", "base_compiler": "name",
                "use_store": "maybe_flag"},
}
_PATHS = [(where, name) for where in _KINDS for name in _KINDS[where]]


def _valid_bodies():
    request = st.fixed_dictionaries({
        "source": st.just(KERNEL2),
        "perf": st.sampled_from([{"N": 1500, "M": 1500},
                                 {"N": 1, "M": 10 ** 30}]),
        "test": st.sampled_from([None, {}, {"N": 1, "M": 6}]),
        "tag": st.sampled_from([None, "t"]),
        "time_limit": st.sampled_from([None, 0.5]),
    }) | st.just({"source": KERNEL2, "system": "compiler",
                  "optimizer": "pluto", "persona": "gpt4"})
    return st.fixed_dictionaries({
        "request": request, "session": st.just({"dataset_size": 40}),
        "use_store": st.just(True), "include_events": st.booleans()})


def _mutations(draw, body):
    """(body with one field out of its rule, that field's path) for
    every field of the schema, then an unknown key at every level."""
    for where, name in _PATHS + [(where, "bogus") for where in _KINDS]:
        if name == "bogus":
            value = draw(st.sampled_from([1, None, NAN]))
        elif name == "optimizer":  # null is valid where none goes
            compiler = body["request"].get("system") == "compiler"
            value = draw(st.sampled_from([5, [1], "zz-unregistered",
                                          None if compiler else "pluto"]))
        else:
            value = draw(st.sampled_from(_BAD[_KINDS[where][name]]))
        mutated = copy.deepcopy(body)
        (mutated[where] if where else mutated)[name] = value
        yield mutated, f"{where}.{name}" if where else name


class TestRequestSchemaProperty:
    def test_the_kinds_cover_the_schema(self):
        assert set(_KINDS[""]) == set(BODY_FIELDS)
        assert set(_KINDS["request"]) == set(REQUEST_FIELDS)
        assert set(_KINDS["session"]) == set(SESSION_FIELDS)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_mutated_bodies_answer_400_naming_the_field(self, make_daemon,
                                                        workers):
        """Never a 5xx: a valid body answers 200 with a strict-JSON
        document, and the same body with any one field out of its rule
        answers 400 naming that field."""
        daemon = make_daemon(workers=workers)

        @settings(max_examples=8, derandomize=True, deadline=None,
                  database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.data())
        def check(data):
            body = data.draw(_valid_bodies())
            status, text, _ = _post(daemon.address, body)
            assert status == 200, text
            assert _strict(text)["request"]["target"] == "mv"
            for mutated, field in _mutations(data.draw, body):
                status, text, _ = _post(daemon.address, mutated)
                assert status == 400, (field, mutated)
                assert _strict(text)["error"]["field"] == field

        check()
        assert daemon.metrics.get("completed_total") \
            + daemon.metrics.get("failed_total") \
            == daemon.metrics.get("requests_total")


# ----------------------------------------------------------------------
# admission controller (unit)
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_inflight_then_queue_then_reject(self):
        admission = AdmissionController(max_inflight=1, queue_depth=1,
                                        per_client=10)
        admission.acquire("a")
        acquired = threading.Event()

        def queued_acquire():
            admission.acquire("b")
            acquired.set()

        worker = threading.Thread(target=queued_acquire)
        worker.start()
        assert _wait_until(lambda: admission.queued == 1)

        with pytest.raises(Rejected) as excinfo:
            admission.acquire("c")
        assert excinfo.value.reason == "overloaded"
        assert excinfo.value.retry_after >= 1.0

        admission.release("a")
        assert acquired.wait(5.0)
        worker.join()
        admission.release("b")
        assert admission.inflight == 0
        assert admission.queued == 0

    def test_per_client_limit(self):
        admission = AdmissionController(max_inflight=4, queue_depth=4,
                                        per_client=1)
        admission.acquire("a")
        with pytest.raises(Rejected) as excinfo:
            admission.acquire("a")
        assert excinfo.value.reason == "client_limit"
        admission.acquire("b")  # other clients are unaffected
        admission.release("a")
        admission.acquire("a")  # slot freed

    def test_queued_waiter_honors_cancellation(self):
        admission = AdmissionController(max_inflight=1, queue_depth=2,
                                        per_client=10)
        admission.acquire("a")
        token = CancelToken()
        outcome = []

        def queued_acquire():
            try:
                admission.acquire("b", token)
            except Cancelled as exc:
                outcome.append(exc.reason)

        worker = threading.Thread(target=queued_acquire)
        worker.start()
        assert _wait_until(lambda: admission.queued == 1)
        token.cancel("drain")
        worker.join(timeout=5.0)
        assert outcome == ["drain"]
        assert admission.queued == 0
        # the client count was rolled back: b can come straight back
        admission.release("a")
        admission.acquire("b")

    def test_retry_after_scales_with_observed_latency(self):
        # No latency data yet: fall back to 1s + queue depth.
        admission = AdmissionController(max_inflight=2, queue_depth=0,
                                        per_client=10)
        assert admission.retry_after_estimate() == 1.0

        # With a latency hint the estimate is (queued + inflight)
        # * p50 / max_inflight, clamped to [1, 30].
        admission = AdmissionController(max_inflight=2, queue_depth=0,
                                        per_client=10,
                                        latency_hint=lambda: 8.0)
        admission.acquire("a")
        admission.acquire("b")
        assert admission.retry_after_estimate() == 8.0  # 2 * 8 / 2
        with pytest.raises(Rejected) as excinfo:
            admission.acquire("c")
        assert excinfo.value.retry_after == 8.0

        # The clamp keeps pathological hints honest.
        high = AdmissionController(max_inflight=1, queue_depth=0,
                                   per_client=10,
                                   latency_hint=lambda: 1e6)
        high.acquire("a")
        assert high.retry_after_estimate() == 30.0
        # ... and a broken hint degrades to the queue-based fallback.
        broken = AdmissionController(
            max_inflight=1, queue_depth=0, per_client=10,
            latency_hint=lambda: (_ for _ in ()).throw(RuntimeError()))
        assert broken.retry_after_estimate() == 1.0

    def test_wait_idle(self):
        admission = AdmissionController(max_inflight=1, queue_depth=0,
                                        per_client=1)
        assert admission.wait_idle(0.05)
        admission.acquire("a")
        assert not admission.wait_idle(0.05)
        threading.Timer(0.05, admission.release, args=("a",)).start()
        assert admission.wait_idle(5.0)


# ----------------------------------------------------------------------
# config + metrics (unit)
# ----------------------------------------------------------------------
class TestServeConfig:
    def test_with_overrides_filters_none(self, monkeypatch):
        # settings have no environment spelling: from_env only overrides
        monkeypatch.setenv("REPRO_SERVE_INFLIGHT", "2")
        monkeypatch.setenv("REPRO_SERVE_JOURNAL", "0")
        assert ServeConfig.from_env() == ServeConfig()
        assert ServeConfig.from_env(max_inflight=9).max_inflight == 9
        assert ServeConfig.from_env(journal=False).journal is False
        config = ServeConfig()
        same = config.with_overrides(port=None, host=None)
        assert same == config
        changed = config.with_overrides(port=1234, max_inflight=None)
        assert changed.port == 1234
        assert changed.max_inflight == config.max_inflight


class TestMetrics:
    def test_counters_and_percentiles(self):
        metrics = Metrics()
        metrics.inc("x")
        metrics.inc("x", 2)
        assert metrics.get("x") == 3
        for ms in range(1, 101):
            metrics.observe_latency(ms / 1000.0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["x"] == 3
        assert snapshot["latency"]["count"] == 100
        assert snapshot["latency"]["p50_ms"] == pytest.approx(51.0)
        assert snapshot["latency"]["p95_ms"] == pytest.approx(95.0)
        assert snapshot["latency"]["max_ms"] == pytest.approx(100.0)

    def test_failing_gauge_never_breaks_snapshot(self):
        metrics = Metrics()
        metrics.gauge("ok", lambda: 7)
        metrics.gauge("broken", lambda: 1 / 0)
        snapshot = metrics.snapshot()
        assert snapshot["gauges"]["ok"] == 7
        assert snapshot["gauges"]["broken"] is None
