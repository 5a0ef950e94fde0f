#!/usr/bin/env python
"""Scrub/compact smoke test for the artifact plane (CI).

Demonstrates the integrity loop end to end against a real store
produced by a real optimization run, as subprocesses so every phase
sees only what the disk holds:

1. a cold run populates the results stream and prints its canonical
   result bytes (the reference);
2. a fault-injected write (``REPRO_FAULTS=store.append:bitflip``)
   rots the *live* record for that result on disk;
3. ``repro store verify`` must detect the damage (nonzero exit);
4. ``repro store compact`` must heal it (compaction drops the rotten
   line and the valid superseded copy wins again) and a re-verify
   must come back clean (exit 0);
5. a warm run must now hit the store and be byte-identical to the
   cold reference.

Stdlib only; exits non-zero with a readable message on any violation.
Run directly or via ``make test-store``.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KERNEL = """
scop axpyish(N) {
  array X[N] output;
  array Y[N];
  for (i = 0; i < N; i++)
    X[i] = X[i] + 2.0 * Y[i];
}
"""

#: one optimization through the public API with the store on; result
#: bytes on stdout, store counters on stderr (both machine-readable)
RUN_CHILD = """
import json, sys
from repro.api import OptimizationRequest, OptimizerSession
from repro.ir import parse_scop
request = OptimizationRequest.make(
    parse_scop({kernel!r}), {{"N": 1500}}, {{"N": 8}},
    system="looprag", persona="deepseek")
session = OptimizerSession(dataset_size=40)
result = session.optimize(request)
sys.stdout.write(json.dumps(result.to_json_dict(), indent=2,
                            sort_keys=True))
from repro.evaluation.store import active_store
sys.stderr.write("STATS " + json.dumps(active_store().stats()))
"""

#: re-append an existing results record; REPRO_FAULTS in the child's
#: environment rots the write, making the *live* line the damaged one
CORRUPT_CHILD = """
import sys
from repro.evaluation.store import RESULTS_STREAM, active_store
store = active_store().artifacts()
keys = sorted(store.list(RESULTS_STREAM))
assert keys, "cold run left an empty results stream"
store.append(RESULTS_STREAM, keys[0], store.read(RESULTS_STREAM,
                                                 keys[0]))
sys.stdout.write(keys[0])
"""


def fail(message):
    print(f"scrub-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def step(message):
    print(f"scrub-smoke: {message}", flush=True)


def child_env(cache, **extra):
    env = dict(os.environ)
    for stale in ("REPRO_FAULTS", "REPRO_NO_CACHE"):
        env.pop(stale, None)
    env.update(PYTHONPATH="src", REPRO_CACHE_DIR=cache, **extra)
    return env


def run(argv, env, check=True, timeout=600):
    proc = subprocess.run(argv, cwd=REPO, env=env, timeout=timeout,
                          capture_output=True, text=True)
    if check and proc.returncode != 0:
        fail(f"{' '.join(argv[:4])}... exited {proc.returncode}:\n"
             f"{proc.stderr[-2000:]}")
    return proc


def optimize_once(env):
    proc = run([sys.executable, "-c",
                RUN_CHILD.format(kernel=KERNEL)], env)
    marker = proc.stderr.rfind("STATS ")
    if marker < 0:
        fail(f"run child printed no counters:\n{proc.stderr[-2000:]}")
    return proc.stdout, json.loads(proc.stderr[marker + 6:])


def verify(env):
    return run([sys.executable, "-m", "repro", "store", "verify",
                "--format", "json"], env, check=False)


def main():
    cache = tempfile.mkdtemp(prefix="repro-scrub-smoke-")
    env = child_env(cache)
    try:
        step(f"cache={cache}")
        step("cold run (populates the store)...")
        reference, stats = optimize_once(env)
        if stats["writes"] < 1:
            fail(f"cold run never wrote to the store: {stats}")

        step("rotting the live record via REPRO_FAULTS...")
        run([sys.executable, "-c", CORRUPT_CHILD],
            child_env(cache, REPRO_FAULTS="store.append:bitflip:times=1"))

        step("store verify must detect the damage...")
        proc = verify(env)
        if proc.returncode == 0:
            fail(f"verify missed the corruption:\n{proc.stdout}")
        doc = json.loads(proc.stdout)
        if doc["clean"] or not doc["flagged"]:
            fail(f"verify exited nonzero but reported clean: {doc}")
        step(f"detected {doc['flagged']} issue(s)")

        step("store compact must heal it...")
        proc = run([sys.executable, "-m", "repro", "store", "compact",
                    "--format", "json"], env)
        dropped = sum(d["dropped_corrupt"] + d["dropped_mismatched"]
                      for d in json.loads(proc.stdout)["compacted"])
        if dropped < 1:
            fail(f"compact dropped no damaged line:\n{proc.stdout}")
        proc = verify(env)
        if proc.returncode != 0:
            fail(f"store still damaged after compact:\n{proc.stdout}")

        step("warm run must hit the store byte-identically...")
        warm, stats = optimize_once(env)
        if stats["hits"] < 1:
            fail(f"warm run missed the compacted store: {stats}")
        if warm != reference:
            fail("warm bytes differ from the cold reference "
                 f"({len(warm)} vs {len(reference)} bytes)")
        step("PASS")
    finally:
        shutil.rmtree(cache, ignore_errors=True)


if __name__ == "__main__":
    main()
