"""The benchmark's own checks.

    python3 perfbench/selftest.py [TEST ...]

* ``alias``: the digest check flags exactly the fingerprint-alias stale
  documents of ``repro serve`` (the second kernel of each alias pair is
  answered with the first one's stored document), and the count repeats
  on a second fresh daemon;
* ``trace``: on every workload the traced pass serves documents
  byte-identical to the untraced pass, every wrapped layer the workload
  is predicted to exercise records calls, ``dependences`` is seen at
  its three call paths, and self times plus ``other.self_s`` add up to
  the traced span time;
* ``spec``: ``BENCHMARK.json`` names exactly the metrics ``run.py``
  prints;
* ``bare``: without the program next to it the benchmark exits non-zero
  and prints no result.

Takes about three minutes.  Exits 1 if any check fails.
"""

from __future__ import annotations

import http.client
import json
import shutil
import subprocess
import sys
import traceback

import run
import serveload
from common import (ALIASES, BENCH_DIR, ROOT, WORK, WORKLOADS, digest,
                    fresh_dir, kernel_table, load_expected,
                    load_workloads, request_entry)
from tracer import ROOTS


def _serve_docs(names):
    """Documents one fresh daemon returns for ``names``, sent in order."""
    daemon = serveload.Daemon(run.CORPUS, fresh_dir(WORK / "serve"))
    table = kernel_table()
    docs = []
    conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=120)
    try:
        for name in names:
            status, raw = serveload.post(
                conn, {"request": request_entry(*table[name])})
            assert status == 200, f"{name}: HTTP {status}"
            docs.append((name, json.loads(raw)))
    finally:
        conn.close()
        daemon.stop()
    return docs


def test_alias() -> None:
    expected = load_expected()["digests"]["serve"]
    pairs = [(first, second) for second, first in ALIASES.items()]
    names = [name for pair in pairs for name in pair] * 2
    run.ensure_corpus()
    flagged_runs = []
    for _ in range(2):
        flagged = []
        for name, doc in _serve_docs(names):
            if digest(doc) != expected[name]:
                flagged.append(name)
                # the stale event log is the alias partner's: its
                # request event names the other kernel
                logged = next(event["data"]["target"]
                              for event in doc["events"]
                              if event["kind"] == "request")
                assert logged == ALIASES[name], (name, logged)
        flagged_runs.append(flagged)
    want = [second for _first, second in pairs] * 2
    assert flagged_runs[0] == want, flagged_runs[0]
    assert flagged_runs[1] == flagged_runs[0], flagged_runs
    print(f"  alias: {len(want)} of {len(names)} documents stale "
          f"({', '.join(sorted(set(want)))}), same on both daemons")


def test_trace() -> None:
    plan = load_workloads()["workloads"]
    for workload in WORKLOADS:
        result = run.traced(workload, seed=1)
        assert result["correct"], (workload, result["failed"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for name in plan[workload]["exercises"]:
            assert metrics[name] > 0, (workload, name, metrics[name])
        checks = result["checks"]
        layers = checks["layers"]
        attributed = sum(row["self_s"] for name, row in layers.items()
                         if name not in ROOTS)
        assert abs(attributed - checks["covered_s"]) < 1e-6, \
            (workload, attributed, checks["covered_s"])
        assert metrics["other.self_s"] >= 0, metrics["other.self_s"]
        assert abs(attributed + metrics["other.self_s"]
                   - checks["root_s"]) < 1e-6
        if workload != "serve-mixed":
            for caller in ("compilers.finalize", "llm.generate",
                           "testing.check"):
                assert checks["ancestry"].get(
                    f"analysis.dependences<{caller}", 0) > 0, caller
        print(f"  trace {workload}: documents identical, "
              f"{len(plan[workload]['exercises'])} layers exercised, "
              f"other.self_s {metrics['other.self_s']:.3f}s of "
              f"{checks['root_s']:.3f}s, overhead "
              f"{metrics['trace.overhead_frac']:.1%}")


def test_spec() -> None:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    empty = {"layers": {}, "counts": {}, "root_s": 0.0}
    printed = run.layer_metrics(empty, empty, (0, 0), 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, m["unit"]) for name, m in printed.items()]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert sorted(load_workloads()["workloads"]) == sorted(WORKLOADS)


def test_bare() -> None:
    bare = fresh_dir(WORK / "bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
             WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, proc.returncode
    assert "correct" not in proc.stdout, proc.stdout


TESTS = {"alias": test_alias, "trace": test_trace, "spec": test_spec,
         "bare": test_bare}


def main(names) -> int:
    failed = 0
    for name in names or TESTS:
        print(f"{name} ...", flush=True)
        try:
            TESTS[name]()
        except Exception:
            failed += 1
            traceback.print_exc()
            print(f"{name}: FAILED", flush=True)
        else:
            print(f"{name}: ok", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
