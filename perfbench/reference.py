"""Regenerate ``expected.json``: the digest of every result document.

    python3 perfbench/reference.py

Runs every request of every workload once under the executable
specifications (``REPRO_ENGINE=reference REPRO_ANALYSIS=reference``)
with the result store and the corpus cache off, and records the sha256
of each canonical ``to_json_dict()`` document, events included.  The
benchmark compares every document it is served against these digests.
Results are order-independent by design, so one digest per kernel holds
for every workload seed.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from common import (EXPECTED, SESSION_SUITES, WARMUP_NAME, WARMUP_PARAMS,
                    WARMUP_SOURCE, WORK, digest, fresh_dir, kernel_table,
                    repro_env, request_entry)

REFERENCE_ENV = {"REPRO_ENGINE": "reference", "REPRO_ANALYSIS": "reference",
                 "REPRO_NO_CACHE": "1"}


def generate() -> dict:
    from repro.api import OptimizationRequest, OptimizerSession
    from repro.serve.daemon import ServeDaemon
    from repro.suites import SUITES

    session = OptimizerSession(base_compiler="gcc", use_store=False)
    digests = {}
    for workload, suite in SESSION_SUITES.items():
        digests[workload] = {
            bench.name: digest(session.optimize(OptimizationRequest.make(
                bench.program, bench.perf, bench.test, system="looprag",
                persona="deepseek")).to_json_dict())
            for bench in SUITES[suite]()}
    # serve-mixed: the request the daemon materializes from the POST body
    entries = {name: request_entry(*entry)
               for name, entry in kernel_table().items()}
    entries[WARMUP_NAME] = request_entry(WARMUP_SOURCE, *WARMUP_PARAMS)
    digests["serve"] = {
        name: digest(session.optimize(
            ServeDaemon.materialize_request(entry)).to_json_dict())
        for name, entry in entries.items()}
    return digests


def main() -> None:
    if os.environ.get("REPRO_ENGINE") != "reference":
        env = repro_env(fresh_dir(WORK / "reference-cache"),
                        **REFERENCE_ENV)
        raise SystemExit(subprocess.call([sys.executable, __file__],
                                         env=env))
    started = time.perf_counter()
    digests = generate()
    doc = {"engines": REFERENCE_ENV, "digests": digests}
    with open(EXPECTED, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED} ({sum(map(len, digests.values()))} digests, "
          f"{time.perf_counter() - started:.1f}s)")


if __name__ == "__main__":
    main()
