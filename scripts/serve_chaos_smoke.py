#!/usr/bin/env python
"""Chaos smoke test for ``repro serve`` worker isolation + journal (CI).

Extends ``scripts/serve_smoke.py`` with the failure modes that take
whole processes down, driven against the real daemon as a subprocess:

Phase 1 — crash containment (``--workers 1``, ``--no-journal``):
1. a clean request establishes the baseline bytes;
2. an injected SIGKILL of the worker mid-request must answer ``500``
   (``worker_crashed``/``killed``) while ``/healthz`` stays green;
3. the resubmit after the pool restarts must be byte-identical;
4. an injected hang must be reaped by the watchdog (``500``/``hang``)
   and again recover byte-identically;
5. one more crash quarantines the signature (``422``) until
   ``POST /quarantine/clear`` releases it — then it completes.

Phase 2 — durable journal (journal on, fresh cache dir):
6. SIGKILL the *daemon* while a request is in flight — the journal
   holds an unfinished record;
7. a fresh ``repro serve --recover`` replays it to completion during
   boot, the client's resubmit short-circuits to the journaled result,
   and those bytes match a no-journal daemon executing the same
   request from scratch;
8. ``repro store stats`` reports the ``journal`` stream.

Stdlib only; exits non-zero with a readable message on any violation.
Run directly or via ``make test-chaos``.
"""

import http.client
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KERNEL = """
scop axpyish(N) {
  array X[N] output;
  array Y[N];
  for (i = 0; i < N; i++)
    X[i] = X[i] + 2.0 * Y[i];
}
"""

#: the worker.execute schedule for phase 1, counted per dispatched job
#: (parent-side accounting: the schedule survives worker restarts).
#: job 0 clean, job 1 SIGKILL, job 2 clean, job 3 hang, job 4 exit.
CHAOS_FAULTS = ("worker.execute:kill:after=1:times=1;"
                "worker.execute:hang:after=3:times=1;"
                "worker.execute:exit:code=5:after=4:times=1")


def fail(message):
    print(f"chaos-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def step(message):
    print(f"chaos-smoke: {message}", flush=True)


def post(addr, body, path="/v1/optimize", timeout=120):
    conn = http.client.HTTPConnection(*addr, timeout=timeout)
    try:
        conn.request("POST", path, json.dumps(body),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read().decode()
    finally:
        conn.close()


def get_json(addr, path, timeout=30):
    conn = http.client.HTTPConnection(*addr, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def wait_until(predicate, timeout=30.0, message="condition"):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.02)
    fail(f"timed out waiting for {message}")


def boot(args, env):
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--session", json.dumps({"dataset_size": 40})] + args,
        cwd=REPO, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    banner = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    if not match:
        proc.kill()
        fail(f"no listening banner, got: {banner!r}")
    return proc, (match.group(1), int(match.group(2)))


def base_env(**extra):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.update({
        "PYTHONPATH": os.path.join(REPO, "src"),
        "PYTHONUNBUFFERED": "1",
        "REPRO_RETRY_BASE": "0.001",
        "REPRO_NO_CACHE": "1",
    })
    env.update(extra)
    return env


def expect_crash_500(addr, body, expected_reason):
    status, text = post(addr, body)
    if status != 500:
        fail(f"expected 500 for {expected_reason} crash, got {status} "
             f"{text[:200]}")
    error = json.loads(text)["error"]
    if error["kind"] != "worker_crashed" \
            or error["reason"] != expected_reason:
        fail(f"crash error malformed (want reason="
             f"{expected_reason}): {error}")
    status, doc = get_json(addr, "/healthz")
    if status != 200 or doc.get("status") != "ok":
        fail(f"daemon unhealthy after worker crash: {status} {doc}")
    return error


def phase1_crash_containment():
    env = base_env(REPRO_FAULTS=CHAOS_FAULTS)
    step("phase 1: booting daemon with --workers 1 under "
         + CHAOS_FAULTS)
    proc, addr = boot(["--workers", "1", "--no-journal",
                       "--hang-timeout", "2", "--crash-limit", "2",
                       "--worker-mem", "2048"], env)
    try:
        body = {"request": {"source": KERNEL}, "use_store": False}

        status, baseline = post(addr, body)
        if status != 200:
            fail(f"baseline request: {status} {baseline[:200]}")
        step("baseline request completed through a worker")

        expect_crash_500(addr, body, "killed")
        step("worker SIGKILL mid-request -> 500, daemon healthy")

        status, text = post(addr, body)
        if status != 200:
            fail(f"post-crash resubmit: {status} {text[:200]}")
        if text != baseline:
            fail("post-crash resubmit is not byte-identical")
        step("resubmit after pool restart byte-identical")

        expect_crash_500(addr, body, "hang")
        step("hung worker reaped by watchdog -> 500, daemon healthy")

        error = expect_crash_500(addr, body, "exit")
        if not error.get("quarantined"):
            fail(f"second consecutive crash did not quarantine: {error}")
        signature = error["signature"]
        step("second consecutive crash quarantined the signature")

        status, text = post(addr, body)
        if status != 422 or json.loads(text)["error"]["kind"] \
                != "quarantined":
            fail(f"expected 422 quarantined, got {status} {text[:200]}")
        status, doc = get_json(addr, "/quarantine")
        if [e["signature"] for e in doc["quarantined"]] != [signature]:
            fail(f"/quarantine does not list the signature: {doc}")
        step("poison resubmit rejected with 422 + diagnostics")

        status, text = post(addr, {"signature": signature},
                            path="/quarantine/clear")
        if status != 200 or json.loads(text)["cleared"] != 1:
            fail(f"quarantine clear: {status} {text[:200]}")
        status, text = post(addr, body)
        if status != 200 or text != baseline:
            fail(f"post-clear request: {status}, byte-identical="
                 f"{text == baseline}")
        step("cleared quarantine; request completes byte-identically")

        status, metrics = get_json(addr, "/metrics")
        counters = metrics["counters"]
        workers = metrics["gauges"]["workers"]
        if counters.get("worker_crashes_total") != 3 \
                or workers["restarts_total"] < 3:
            fail(f"metrics disagree: {counters} {workers}")
        step(f"metrics consistent: 3 crashes, "
             f"{workers['restarts_total']} restarts, "
             f"{workers['hangs_total']} hang")
    finally:
        proc.kill()
        proc.wait()


def phase2_journal_recovery():
    cache = tempfile.mkdtemp(prefix="repro-chaos-journal-")
    env = base_env(REPRO_CACHE_DIR=cache,
                   REPRO_FAULTS="llm.generate:delay:seconds=0.5:always")
    body = {"request": {"source": KERNEL}, "use_store": False,
            "session": {"llm_backend": "faulty"}}
    try:
        step("phase 2: booting journaling daemon with slow backend")
        proc, addr = boot([], env)
        try:
            def post_into_the_void():
                try:
                    post(addr, body)
                except OSError:
                    pass  # the daemon is about to be SIGKILLed under us

            abandoned = threading.Thread(target=post_into_the_void,
                                         daemon=True)
            abandoned.start()
            wait_until(
                lambda: get_json(addr, "/metrics")[1]["gauges"]
                ["inflight"] >= 1, message="request to be in flight")
            time.sleep(0.5)  # let the journal record reach "started"
        finally:
            proc.kill()  # the daemon dies mid-request, ungracefully
            proc.wait()
        step("daemon SIGKILLed mid-request")

        recover_env = base_env(REPRO_CACHE_DIR=cache)
        proc, addr = boot(["--recover"], recover_env)
        try:
            status, metrics = get_json(addr, "/metrics")
            if metrics["counters"].get("journal_replayed_total") != 1:
                fail(f"--recover did not replay: {metrics['counters']}")
            step("--recover replayed the unfinished request at boot")

            status, replayed = post(addr, body)
            if status != 200:
                fail(f"resubmit after recovery: {status}")
            status, metrics = get_json(addr, "/metrics")
            if metrics["counters"].get("journal_hits_total") != 1:
                fail("resubmit did not short-circuit to the journal")
            step("resubmit short-circuited to the journaled result")
        finally:
            proc.kill()
            proc.wait()

        # the replayed bytes must equal a from-scratch execution
        proc, addr = boot(["--no-journal"], base_env())
        try:
            status, scratch = post(addr, body)
            if status != 200:
                fail(f"from-scratch baseline: {status}")
            if replayed != scratch:
                fail("replayed result differs from from-scratch result")
            step("journaled result byte-identical to from-scratch run")
        finally:
            proc.kill()
            proc.wait()

        stats = subprocess.run(
            [sys.executable, "-m", "repro", "store", "stats",
             "--format", "json"],
            cwd=REPO, env=base_env(REPRO_CACHE_DIR=cache),
            capture_output=True, text=True)
        if stats.returncode != 0:
            fail(f"store stats exited {stats.returncode}: "
                 f"{stats.stderr[:200]}")
        doc = json.loads(stats.stdout)
        journal = doc["streams"].get("journal")
        if not journal or journal["entries"] != 1:
            fail(f"store stats does not report the journal: {doc}")
        step("repro store stats reports the journal stream")
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def main():
    phase1_crash_containment()
    phase2_journal_recovery()
    print("chaos-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
