"""Fresh-process roles of the benchmark (run by ``run.py``).

Each role runs in its own interpreter, so in-process memos start empty.
It writes JSON lines to stdout: ``{"event": "ready"}`` as soon as its
session is ready to serve (the parent times set-up up to that line),
then one final result object.

    worker.py setup                         set up a session, then exit
    worker.py session WORKLOAD SEED [TRACE] one pass of a session workload
    worker.py build [TRACE]                 build and persist the corpus
    worker.py serve-traced SEED TRACE       serve-mixed, daemon in-process

``TRACE`` is a path: the role runs under the span tracer and writes its
Chrome trace events there.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from common import (DATASET_SEED, DATASET_SIZE, SESSION_SUITES, digest,
                    seeded_order, serve_items)


def emit(doc: Dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def start_tracer(trace: Optional[str]):
    if trace is None:
        return None
    from tracer import Tracer, install

    return install(Tracer())


def region(tracer, name: str):
    return tracer.region(name) if tracer is not None else nullcontext()


def finish(tracer, trace: Optional[str], label: str, result: Dict) -> None:
    if tracer is not None:
        from tracer import summary

        tracer.uninstall()
        result["trace"] = summary(tracer)
        with open(trace, "w") as handle:
            json.dump(tracer.chrome_events(label), handle)
    emit(result)


def make_session():
    from repro.api import OptimizerSession

    session = OptimizerSession(dataset_size=DATASET_SIZE, seed=DATASET_SEED,
                               base_compiler="gcc", use_store=False)
    session.retriever  # corpus load + index build
    return session


def role_setup() -> None:
    make_session()
    emit({"event": "ready"})
    emit({"peak_rss_mb": peak_rss_mb()})


def role_session(workload: str, seed: str, trace: Optional[str]) -> None:
    tracer = start_tracer(trace)
    with region(tracer, "bench.setup"):
        session = make_session()
    emit({"event": "ready"})
    from repro.api import OptimizationRequest
    from repro.suites import SUITES

    suite = SUITES[SESSION_SUITES[workload]]()
    requests = [(bench.name, OptimizationRequest.make(
        bench.program, bench.perf, bench.test, system="looprag",
        persona="deepseek")) for bench in suite]
    records: List[Dict] = []
    for name, request in seeded_order(requests, seed):
        started = time.perf_counter()
        result = session.optimize(request)
        latency = time.perf_counter() - started
        records.append({"name": name, "status": 200, "latency_s": latency,
                        "digest": digest(result.to_json_dict()),
                        "passed": result.passed,
                        "speedup": round(result.speedup, 6)})
    finish(tracer, trace, workload, {
        "records": records, "peak_rss_mb": peak_rss_mb(),
        "wall_s": sum(r["latency_s"] for r in records)})


def role_build(trace: Optional[str]) -> None:
    tracer = start_tracer(trace)
    from repro.synthesis.dataset import cached_dataset

    with region(tracer, "bench.build"):
        started = time.perf_counter()
        cached_dataset(DATASET_SIZE, DATASET_SEED, "looprag")
        seconds = time.perf_counter() - started
    finish(tracer, trace, "corpus build", {"build_s": seconds})


def role_serve_traced(seed: str, trace: str) -> None:
    import serveload

    items = serve_items(seed)
    tracer = start_tracer(trace)
    from repro.serve import ServeConfig, ServeDaemon

    with region(tracer, "bench.setup"):
        daemon = ServeDaemon(ServeConfig.from_env(
            port=0, workers=0, max_inflight=2))
        _host, port = daemon.start()
    try:
        warmup = serveload.warm(port)
        records, wall = serveload.drive(port, items)
        metrics = serveload.get_json(port, "/metrics")
    finally:
        daemon.stop()
    counters = metrics["counters"]
    finish(tracer, trace, "serve-mixed", {
        "records": records, "warmup": warmup, "wall_s": wall,
        "journal_hits": counters.get("journal_hits_total", 0),
        "requests_total": counters.get("requests_total", 0)})


def main(argv: List[str]) -> None:
    role, args = argv[0], argv[1:]
    if role == "setup":
        role_setup()
    elif role == "session":
        role_session(args[0], args[1], args[2] if len(args) > 2
                     else None)
    elif role == "build":
        role_build(args[0] if args else None)
    elif role == "serve-traced":
        role_serve_traced(args[0], args[1])
    else:
        raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
