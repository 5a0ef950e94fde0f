"""Supervised worker-process isolation for ``repro serve``.

The contract under test: with ``workers > 0`` every request runs in a
forked, rlimited worker process, results are byte-identical to the
in-process path, and *no* worker death — SIGKILL, hard exit, OOM, hang
— ever takes the daemon down.  A crash answers ``500`` with its reason,
the watchdog restarts the pool with backoff, and a signature that keeps
crashing workers is quarantined to ``422`` until an operator clears it.

Process faults are injected deterministically through the
``worker.execute`` fault site (:mod:`repro.testing.faults`), scheduled
on the parent side so the plan survives worker restarts.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import OptimizationRequest, OptimizerSession
from repro.api.resilience import reset_resilience
from repro.ir import parse_scop
from repro.serve import (QuarantineRegistry, ServeConfig, ServeDaemon,
                         WorkerSupervisor)
from repro.serve import supervisor as supervisor_mod
from repro.testing.faults import FaultPlan, install_plan

KERNEL = """
scop axpyish(N) {
  array X[N] output;
  array Y[N];
  for (i = 0; i < N; i++)
    X[i] = X[i] + 2.0 * Y[i];
}
"""


def _request(addr, method, path, body=None, timeout=120):
    conn = http.client.HTTPConnection(*addr, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, payload,
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read().decode(), dict(resp.getheaders())
    finally:
        conn.close()


def _pid_alive(pid):
    """True while ``pid`` runs (a zombie awaiting its reaper is dead)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def _post(addr, body, timeout=120):
    return _request(addr, "POST", "/v1/optimize", body, timeout=timeout)


def _get(addr, path):
    status, text, _ = _request(addr, "GET", path)
    return status, json.loads(text)


def _stream(addr, body, timeout=120):
    conn = http.client.HTTPConnection(*addr, timeout=timeout)
    try:
        conn.request("POST", "/v1/optimize", json.dumps(body),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        lines = [line.decode().strip() for line in resp if line.strip()]
        return resp.status, lines
    finally:
        conn.close()


def _wait_until(predicate, timeout=15.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _workers_gauge(daemon):
    return daemon.metrics.snapshot()["gauges"]["workers"]


BODY = {"request": {"source": KERNEL}, "use_store": False}


@pytest.fixture()
def make_daemon(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BASE", "0.001")
    monkeypatch.setattr(supervisor_mod, "RESTART_BASE", 0.05)
    monkeypatch.setattr(supervisor_mod, "RESTART_CAP", 0.2)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_resilience()
    install_plan(None)
    daemons = []

    def make(**overrides):
        options = dict(host="127.0.0.1", port=0, max_inflight=4,
                       queue_depth=4, per_client=8, drain_grace=10.0,
                       workers=1, journal=False,
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


def _expected_bytes(include_events=True):
    """The canonical in-process answer, rendered exactly as the daemon
    renders it (sorted keys, indent 2)."""
    request = OptimizationRequest.make(
        parse_scop(KERNEL), {"N": 1500}, {"N": 8},
        system="looprag", persona="deepseek")
    session = OptimizerSession(dataset_size=40)
    result = session.optimize(request, use_store=False)
    return json.dumps(result.to_json_dict(include_events=include_events),
                      indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# equivalence: worker path == in-process path, byte for byte
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_worker_results_byte_identical_to_in_process(
            self, make_daemon):
        worker_daemon = make_daemon(workers=1)
        inproc_daemon = make_daemon(workers=0)

        status, worker_text, _ = _post(worker_daemon.address, BODY)
        assert status == 200
        status, inproc_text, _ = _post(inproc_daemon.address, BODY)
        assert status == 200

        assert worker_text == inproc_text
        assert worker_text == _expected_bytes()

    def test_worker_store_hits_are_relayed(self, make_daemon,
                                           monkeypatch, tmp_path):
        # the worker answers the duplicate from the result store and
        # reports the hit over the stat pipe
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        daemon = make_daemon(workers=1)
        stored = {"request": {"source": KERNEL}}
        status, first, _ = _post(daemon.address, stored)
        assert status == 200
        assert daemon.metrics.get("store_hits_total") == 0
        status, second, _ = _post(daemon.address, stored)
        assert status == 200
        assert second == first == _expected_bytes()
        assert daemon.metrics.get("store_hits_total") == 1

    def test_streaming_routes_through_workers(self, make_daemon):
        daemon = make_daemon(workers=1)
        status, lines = _stream(daemon.address,
                                dict(BODY, stream=True))
        assert status == 200
        docs = [json.loads(line) for line in lines]
        kinds = [doc["kind"] for doc in docs]
        assert kinds[0] == "request"
        assert kinds[-1] == "result"
        final = docs[-1]
        final.pop("kind")
        assert json.dumps(final, indent=2, sort_keys=True) \
            == _expected_bytes(include_events=False)


# ----------------------------------------------------------------------
# crash containment: every process fault answers 500, never daemon death
# ----------------------------------------------------------------------
class TestCrashContainment:
    def _assert_crash_then_recovery(self, daemon, expected_reason,
                                    detail_fragment=None):
        status, text, _ = _post(daemon.address, BODY)
        assert status == 500
        error = json.loads(text)["error"]
        assert error["kind"] == "worker_crashed"
        assert error["reason"] == expected_reason
        if detail_fragment:
            assert detail_fragment in error["message"]

        # the daemon itself never died
        status, doc = _get(daemon.address, "/healthz")
        assert status == 200 and doc["status"] == "ok"
        assert daemon.metrics.get("worker_crashes_total") >= 1

        # the watchdog replaces the dead worker (backoff is tiny here)
        assert _wait_until(
            lambda: _workers_gauge(daemon)["alive"] >= 1)
        assert _wait_until(
            lambda: _workers_gauge(daemon)["restarts_total"] >= 1)

        # and with the fault spent, a resubmit is byte-identical to the
        # in-process answer — crash recovery changed nothing
        status, text, _ = _post(daemon.address, BODY)
        assert status == 200
        assert text == _expected_bytes()

    def test_sigkill_answers_500_and_pool_recovers(self, make_daemon):
        daemon = make_daemon(workers=1)
        install_plan(FaultPlan.parse("worker.execute:kill:times=1"))
        self._assert_crash_then_recovery(daemon, "killed",
                                         "killed by SIGKILL")

    def test_hard_exit_reports_its_code(self, make_daemon):
        daemon = make_daemon(workers=1)
        install_plan(FaultPlan.parse("worker.execute:exit:code=7:times=1"))
        self._assert_crash_then_recovery(daemon, "exit", "code 7")

    def test_oom_is_recognized_and_contained(self, make_daemon):
        daemon = make_daemon(workers=1)
        install_plan(FaultPlan.parse("worker.execute:oom:mb=64:times=1"))
        self._assert_crash_then_recovery(daemon, "oom", "out of memory")

    def test_hung_worker_is_killed_by_the_watchdog(self, make_daemon):
        daemon = make_daemon(workers=1, worker_hang_timeout=0.3)
        install_plan(FaultPlan.parse("worker.execute:hang:times=1"))
        self._assert_crash_then_recovery(daemon, "hang", "watchdog")
        assert _workers_gauge(daemon)["hangs_total"] == 1

    def test_worker_deadline_answers_504_without_killing_the_worker(
            self, make_daemon):
        install_plan(FaultPlan.parse(
            "llm.generate:delay:seconds=0.2:always"))
        daemon = make_daemon(workers=1)  # fork inherits the plan
        status, text, _ = _post(daemon.address, dict(
            BODY, deadline_s=0.05,
            session={"llm_backend": "faulty"}))
        assert status == 504
        assert json.loads(text)["error"]["kind"] == "deadline"
        # cooperative unwind: the worker survived and serves the next
        # request without a restart
        status, text, _ = _post(daemon.address, BODY)
        assert status == 200
        assert _workers_gauge(daemon)["restarts_total"] == 0

    def test_in_worker_backend_exhaustion_maps_to_502(self,
                                                      monkeypatch,
                                                      make_daemon):
        monkeypatch.setenv("REPRO_RETRY_ATTEMPTS", "2")
        install_plan(FaultPlan.parse("llm.generate:raise:always"))
        daemon = make_daemon(workers=1)  # fork inherits the plan
        status, text, _ = _post(daemon.address, dict(
            BODY, session={"llm_backend": "faulty"}))
        assert status == 502
        assert json.loads(text)["error"]["kind"] == "backend"
        # the worker reported a failure; it did not crash
        assert daemon.metrics.get("worker_crashes_total") == 0


# ----------------------------------------------------------------------
# poison-request quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_poison_signature_is_quarantined_then_released(
            self, make_daemon):
        daemon = make_daemon(workers=1, worker_crash_limit=2)
        install_plan(FaultPlan.parse("worker.execute:kill:times=2"))

        status, text, _ = _post(daemon.address, BODY)
        assert status == 500
        error = json.loads(text)["error"]
        assert error["quarantined"] is False
        signature = error["signature"]
        assert _wait_until(
            lambda: _workers_gauge(daemon)["alive"] >= 1)

        status, text, _ = _post(daemon.address, BODY)
        assert status == 500
        assert json.loads(text)["error"]["quarantined"] is True
        assert _wait_until(
            lambda: _workers_gauge(daemon)["alive"] >= 1)

        # the limit is reached: no more workers are sacrificed
        crashes_before = _workers_gauge(daemon)["crashes_total"]
        status, text, _ = _post(daemon.address, BODY)
        assert status == 422
        error = json.loads(text)["error"]
        assert error["kind"] == "quarantined"
        assert error["signature"] == signature
        assert error["crashes"] == 2
        assert "quarantine/clear" in error["message"]
        assert _workers_gauge(daemon)["crashes_total"] == crashes_before
        assert daemon.metrics.get("rejected_quarantined_total") == 1
        snapshot = daemon.metrics.snapshot()
        assert snapshot["gauges"]["quarantined"] == 1

        # operators can see it ...
        status, doc = _get(daemon.address, "/quarantine")
        assert status == 200
        assert doc["limit"] == 2
        assert [e["signature"] for e in doc["quarantined"]] \
            == [signature]
        assert doc["quarantined"][0]["last_reason"] == "killed"

        # ... and release it; the fault is spent, so it now completes
        status, text, _ = _request(daemon.address, "POST",
                                   "/quarantine/clear",
                                   {"signature": signature})
        assert status == 200
        assert json.loads(text)["cleared"] == 1
        status, text, _ = _post(daemon.address, BODY)
        assert status == 200
        assert text == _expected_bytes()
        assert daemon.metrics.snapshot()["gauges"]["quarantined"] == 0

    def test_registry_unit_behavior(self):
        registry = QuarantineRegistry(limit=2)
        entry = registry.note_crash("sig-a", "killed", "boom")
        assert entry["crashes"] == 1 and not entry["quarantined"]
        assert registry.lookup("sig-a") is None  # suspicion, not poison
        registry.note_success("sig-a")  # clean run clears sub-limit
        assert registry.note_crash("sig-a", "oom", "x")["crashes"] == 1

        registry.note_crash("sig-a", "oom", "x")
        assert registry.lookup("sig-a")["quarantined"] is True
        assert registry.count == 1
        registry.note_success("sig-a")  # success never un-poisons
        assert registry.lookup("sig-a") is not None
        assert [e["signature"] for e in registry.snapshot()] == ["sig-a"]

        assert registry.clear("nope") == 0
        assert registry.clear("sig-a") == 1
        assert registry.lookup("sig-a") is None
        registry.note_crash("b", "exit", "x")
        registry.note_crash("b", "exit", "x")
        assert registry.clear() == 1
        assert registry.count == 0


# ----------------------------------------------------------------------
# supervisor pool mechanics (unit-ish, no HTTP)
# ----------------------------------------------------------------------
class TestSupervisorPool:
    def test_describe_counts_and_clean_shutdown(self):
        supervisor = WorkerSupervisor(
            workers=2, session_for=lambda job: OptimizerSession())
        supervisor.start()
        try:
            assert _wait_until(
                lambda: supervisor.describe()["alive"] == 2)
            described = supervisor.describe()
            assert described["pool"] == 2
            assert described["busy"] == 0
            assert described["crashes_total"] == 0
        finally:
            supervisor.shutdown()
        assert supervisor.describe()["alive"] == 0

    def test_restart_backoff_doubles_per_consecutive_crash(
            self, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "RESTART_BASE", 0.5)
        monkeypatch.setattr(supervisor_mod, "RESTART_CAP", 2.0)
        supervisor = WorkerSupervisor(
            workers=1, session_for=lambda job: OptimizerSession())
        supervisor.start()
        try:
            handle = supervisor._idle.get(timeout=5.0)
            handle.proc.kill()
            handle.proc.join(5.0)
            supervisor._reap(handle)
            first_due = supervisor._restart_due[0]
            assert supervisor.crashes_total == 1
            # a second consecutive crash waits twice as long
            supervisor._consecutive_crashes[0] = 1
            fake = type(handle)(0, 99, handle.proc, handle.conn)
            with supervisor._lock:
                supervisor._workers[0] = fake
            supervisor._reap(fake)
            second_due = supervisor._restart_due[0]
            delta = (second_due - time.monotonic()) \
                - (first_due - time.monotonic())
            assert 0.3 < delta < 0.7  # 1.0s vs 0.5s backoff
        finally:
            supervisor.shutdown()

    def test_workers_die_with_a_sigkilled_supervisor(self):
        """No cleanup code runs on SIGKILL: each worker must notice on
        its own that the parent end of its pipe is gone."""
        script = ("import time\n"
                  "from repro.serve import WorkerSupervisor\n"
                  "pool = WorkerSupervisor(workers=2,\n"
                  "                        session_for=lambda job: None)\n"
                  "pool.start()\n"
                  "print(*(h.proc.pid for h in pool._workers.values()),"
                  " flush=True)\n"
                  "time.sleep(120)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        pids = []
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2
            proc.kill()
            proc.wait(10.0)
            assert _wait_until(
                lambda: not any(_pid_alive(pid) for pid in pids),
                timeout=5.0), "workers outlived their supervisor"
        finally:
            proc.kill()
            proc.wait(10.0)
            proc.stdout.close()
            for pid in pids:
                if _pid_alive(pid):
                    os.kill(pid, signal.SIGKILL)
