#!/usr/bin/env python
"""End-to-end smoke test for the ``repro serve`` daemon (CI gate).

Boots the real daemon as a subprocess with deterministic injected
faults (``REPRO_FAULTS``), then drives it the way an unlucky operator
would:

1. a request whose backend fails twice — must be retried to success;
2. the same request again fault-free — must be byte-identical;
3. the same request streamed — every line must be JSON and the final
   ``result`` line must equal the non-streamed document;
4. a slow in-flight request plus one past the queue limit — the
   overflow must get ``503`` + ``Retry-After``, the in-flight request
   must be untouched;
5. SIGTERM mid-flight — the in-flight request must still complete,
   the daemon must drain and exit 0;
6. one entry point's store, another's hit — a kernel answered in this
   process by ``OptimizerSession.optimize`` into a fresh cache dir must
   be answered by a daemon booted on that dir from the result store
   (``store_hits_total == 1``), byte-identically;
7. malformed bodies — a non-numeric ``deadline_s``, a ``session``
   that is not an object, a non-integer ``session.dataset_size``, a
   ``session.dataset_size`` over its bound (with a short deadline: the
   corpus build would not watch it) and a ``request.persona`` that is
   not a name, each with a valid kernel — must be answered ``400
   bad_request``, and the daemon must stay healthy;
8. request-schema violations — a NaN ``time_limit``, a ``compiler``
   request without an optimizer, ``perf`` for a parameter the kernel
   does not have, ``test`` bindings over the instance budget, and a
   ``Content-Length`` over the body limit (sent without its body) —
   must each answer 4xx naming the field (the body, for the last),
   and the daemon must stay healthy;
9. one failure, both response modes — an uncached request with a
   deadline too short to finish must answer ``504 deadline``, and
   streamed it must end in exactly one ``error`` line whose error
   object equals that 504's.

Stdlib plus the ``repro`` package from ``src/``; exits non-zero with a
readable message on any violation.  Run directly or via ``make
test-serve``.
"""

import http.client
import json
import os
import re
import shutil
import signal
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

#: two transient failures early (must be retried away), then injected
#: slowness from call ~35 on (keeps later requests in flight long
#: enough to overload the queue and to be mid-flight at SIGTERM);
#: neither kind may change any result byte
FAULTS = ("llm.generate:raise:times=2;"
          "llm.generate:delay:seconds=0.03:after=35:always")


def fail(message):
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def step(message):
    print(f"serve-smoke: {message}", flush=True)


def post(addr, body, timeout=120):
    conn = http.client.HTTPConnection(*addr, timeout=timeout)
    try:
        conn.request("POST", "/v1/optimize", json.dumps(body),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return (response.status, response.read().decode(),
                dict(response.getheaders()))
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


def wait_until(predicate, timeout=15.0, message="condition"):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.02)
    fail(f"timed out waiting for {message}")


def boot(env, *flags):
    """Start ``repro serve`` on an ephemeral port: (process, address)."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         *flags],
        cwd=REPO, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    banner = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    if not match:
        proc.kill()
        proc.wait()
        fail(f"no listening banner, got: {banner!r}")
    addr = (match.group(1), int(match.group(2)))
    step(f"daemon up at {addr[0]}:{addr[1]}")
    return proc, addr


def stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def main():
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(REPO, "src"),
        "PYTHONUNBUFFERED": "1",
        "REPRO_FAULTS": FAULTS,
        "REPRO_RETRY_BASE": "0.001",
        "REPRO_NO_CACHE": "1",
    })
    step("booting daemon under REPRO_FAULTS="
         + env["REPRO_FAULTS"])
    proc, addr = boot(
        env, "--max-inflight", "1", "--queue-depth", "0", "--no-journal",
        "--session", json.dumps({"dataset_size": 40,
                                 "llm_backend": "faulty"}))
    try:

        status, doc = get_json(addr, "/healthz")
        if status != 200 or doc.get("status") != "ok":
            fail(f"healthz: {status} {doc}")

        body = {"request": {"source": KERNEL}, "use_store": False}

        # 1. backend fails twice; retries must recover
        status, faulted, _ = post(addr, body)
        if status != 200:
            fail(f"fault-injected request: {status} {faulted[:200]}")
        if not json.loads(faulted)["result"]["passed"] in (True, False):
            fail("fault-injected request returned no verdict")
        step("request under injected faults recovered via retries")

        # 2. fault-free rerun must be byte-identical
        status, clean, _ = post(addr, body)
        if status != 200:
            fail(f"clean request: {status}")
        if clean != faulted:
            fail("retried result differs from fault-free result")
        status, metrics = get_json(addr, "/metrics")
        if metrics["counters"].get("retries_total", 0) < 2:
            fail(f"expected >=2 retries, metrics: "
                 f"{metrics['counters']}")
        step("retried result byte-identical to clean result "
             f"({metrics['counters']['retries_total']} retries)")

        # 3. streamed: NDJSON events, then the same document
        status, text, _ = post(addr, dict(body, stream=True))
        if status != 200:
            fail(f"streamed request: {status}")
        try:
            lines = [json.loads(line) for line in text.splitlines()
                     if line.strip()]
        except ValueError as exc:
            fail(f"streamed body has a non-JSON line: {exc}")
        final = lines[-1]
        if final.pop("kind", None) != "result":
            fail(f"stream did not end in a result line: {final}")
        expected = json.loads(clean)
        expected.pop("events")
        if final != expected:
            fail("streamed result differs from the non-streamed one")
        step(f"streamed request: {len(lines) - 1} event lines, then "
             f"the non-streamed document")

        # 4. overload: one slow in-flight + one over the queue limit
        slow = {}

        def run_slow():
            slow["response"] = post(addr, body)

        worker = threading.Thread(target=run_slow)
        worker.start()
        wait_until(
            lambda: get_json(addr, "/metrics")[1]["gauges"]["inflight"]
            >= 1, message="slow request to be in flight")
        status, text, headers = post(addr, body)
        if status != 503:
            fail(f"overflow request: expected 503, got {status}")
        error = json.loads(text)["error"]
        if error["kind"] != "overloaded" or "Retry-After" not in headers:
            fail(f"overflow rejection malformed: {error} {headers}")
        step(f"overflow rejected with 503, Retry-After="
             f"{headers['Retry-After']}")

        # 5. SIGTERM mid-flight: in-flight completes, daemon drains
        proc.send_signal(signal.SIGTERM)
        step("SIGTERM sent mid-flight")
        worker.join(timeout=120)
        if worker.is_alive():
            fail("in-flight request never completed during drain")
        status, text, _ = slow["response"]
        if status != 200:
            fail(f"in-flight request during drain: {status} "
                 f"{text[:200]}")
        if text != clean:
            fail("in-flight drain-time result differs")
        step("in-flight request completed cleanly during drain")

        code = proc.wait(timeout=60)
        if code != 0:
            fail(f"daemon exited {code}, want 0")
        tail = proc.stdout.read()
        if "drained cleanly" not in tail:
            fail(f"missing drain banner in output: {tail!r}")
        step("daemon drained cleanly and exited 0")
    finally:
        stop(proc)

    shared_store_hit(env)
    print("serve-smoke: OK")
    return 0


def shared_store_hit(env):
    """Step 6: ``optimize`` stores a result, the daemon serves it."""
    cache = tempfile.mkdtemp(prefix="serve-smoke-")
    try:
        for name in ("REPRO_FAULTS", "REPRO_NO_CACHE"):
            os.environ.pop(name, None)
            env.pop(name, None)
        os.environ["REPRO_CACHE_DIR"] = env["REPRO_CACHE_DIR"] = cache
        sys.path.insert(0, os.path.join(REPO, "src"))
        from repro.api import OptimizationRequest, OptimizerSession
        from repro.ir import parse_scop

        program = parse_scop(KERNEL)
        result = OptimizerSession(dataset_size=40).optimize(
            OptimizationRequest.from_entry(program, {}))
        if result.from_cache:
            fail("fresh cache dir answered from the store")
        expected = json.dumps(result.to_json_dict(), indent=2,
                              sort_keys=True)
        step("answered one kernel in-process into " + cache)

        proc, addr = boot(env, "--session",
                          json.dumps({"dataset_size": 40}))
        try:
            status, served, _ = post(addr, {"request": {"source": KERNEL}})
            if status != 200:
                fail(f"store-hit request: {status} {served[:200]}")
            if served != expected:
                fail("daemon document differs from the in-process one")
            hits = get_json(addr, "/metrics")[1]["counters"].get(
                "store_hits_total", 0)
            if hits != 1:
                fail(f"expected 1 store hit, metrics say {hits}")
            step("daemon answered the in-process result from the store, "
                 "byte-identical")
            bad_requests(addr)
            schema_violations(addr)
            one_error_object(addr)
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
            if code != 0:
                fail(f"store-hit daemon exited {code}, want 0")
        finally:
            stop(proc)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def bad_requests(addr):
    """Step 7: malformed bodies answer 400 and never hurt the daemon."""
    for extra, fields in (({"deadline_s": "soon"}, {}),
                          ({"session": ["x"]}, {}),
                          ({"session": {"dataset_size": "big"}}, {}),
                          ({"session": {"dataset_size": 1500},
                            "deadline_s": 0.5}, {}),
                          ({}, {"persona": 5})):
        extra = extra or {"request": fields}
        try:
            status, text, _ = post(addr, dict(
                extra, request=dict(fields, source=KERNEL)))
        except OSError as exc:
            fail(f"malformed body {extra}: no response ({exc!r})")
        try:
            kind = json.loads(text)["error"]["kind"]
        except (ValueError, KeyError, TypeError):
            kind = None
        if status != 400 or kind != "bad_request":
            fail(f"malformed body {extra}: {status} {text[:200]}")
    status, doc = get_json(addr, "/healthz")
    if status != 200 or doc.get("status") != "ok":
        fail(f"healthz after malformed bodies: {status} {doc}")
    step("malformed bodies answered 400 bad_request; daemon healthy")


def schema_violations(addr):
    """Step 8: each class of schema violation answers 4xx naming its
    field; the daemon stays healthy."""
    for fields, status, field in (
            ({"time_limit": float("nan")}, 400, "request.time_limit"),
            ({"system": "compiler"}, 400, "request.optimizer"),
            ({"perf": {"M": 3}}, 400, "request.perf"),
            ({"test": {"N": 10 ** 6}}, 400, "request.test")):
        try:
            got, text, _ = post(addr, {"request": dict(fields,
                                                       source=KERNEL)})
        except OSError as exc:
            fail(f"schema violation {fields}: no response ({exc!r})")
        try:
            named = json.loads(text)["error"].get("field")
        except (ValueError, KeyError, TypeError, AttributeError):
            named = None
        if got != status or named != field:
            fail(f"schema violation {fields}: want {status} naming "
                 f"{field}, got {got} {text[:200]}")
    conn = http.client.HTTPConnection(*addr, timeout=30)
    try:  # the header alone: a daemon that reads the body never answers
        conn.putrequest("POST", "/v1/optimize")
        conn.putheader("Content-Length", str(10 ** 11))
        conn.endheaders()
        response = conn.getresponse()
        if response.status != 400:
            fail(f"oversized Content-Length: want 400, got "
                 f"{response.status} {response.read()[:200]!r}")
    except OSError as exc:
        fail(f"oversized Content-Length: no response ({exc!r})")
    finally:
        conn.close()
    status, doc = get_json(addr, "/healthz")
    if status != 200 or doc.get("status") != "ok":
        fail(f"healthz after schema violations: {status} {doc}")
    step("schema violations answered 4xx naming the field; daemon "
         "healthy")



def one_error_object(addr):
    """Step 9: a failed request answers the same error object whether
    it is streamed or not."""
    body = {"request": {"source": KERNEL}, "use_store": False,
            "deadline_s": 0.001}
    status, text, _ = post(addr, body)
    if status != 504:
        fail(f"tiny deadline: want 504, got {status} {text[:200]}")
    error = json.loads(text)["error"]
    status, text, _ = post(addr, dict(body, stream=True))
    try:
        lines = [json.loads(line) for line in text.splitlines()
                 if line.strip()]
    except ValueError as exc:
        fail(f"streamed deadline: a non-JSON line: {exc}")
    errors = [line for line in lines if line.get("kind") == "error"]
    if status != 200 or len(errors) != 1 or lines[-1] is not errors[0]:
        fail(f"streamed deadline: want one final error line, got "
             f"{status} {text[-300:]}")
    if errors[0]["error"] != error:
        fail(f"streamed error {errors[0]['error']} differs from the "
             f"JSON reply's {error}")
    step(f"a {error['kind']!r} failure answered one error object, "
         f"streamed and not")


if __name__ == "__main__":
    sys.exit(main())
