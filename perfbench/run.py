"""End-to-end request benchmark for the LOOPRAG reproduction.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see ``workloads.json`` for why each exists and what it
loads; ``BENCHMARK.json`` drives the last two):

* ``polybench-looprag`` — the 30 PolyBench kernels through
  ``OptimizerSession.optimize`` (looprag, deepseek, gcc, warm
  400-entry corpus, result store off), one closed-loop client;
* ``tsvc-looprag`` — the 84 TSVC kernels, same configuration;
* ``serve-mixed`` — ``repro serve`` (journal and result store on,
  ``--workers 0 --max-inflight 2``) driven over HTTP by two
  closed-loop clients with the TSVC and LORE kernels, a third of the
  requests duplicates.

A run first loads the warm corpus (building it, untimed, when it is
missing or stale).  Each pass of the workload runs in a fresh process
(a fresh daemon for ``serve-mixed``), so in-process memos
start empty; the pass count is ``--seconds`` over the workload's
nominal pass time, at least one.  ``--seed`` permutes request order.
Every result document is compared with the reference-engine digest in
``expected.json``; a mismatch, error or non-200 reply is a failure.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics, with the
traced spans written to ``.bench_build/perfbench/trace-*.json``
(Chrome trace-event JSON).  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import (BENCH_DIR, EXPECTED, ROOT, SETUP_SAMPLES, SRC, WORK,
                    WORKLOADS, copy_corpus, fresh_dir, load_expected,
                    percentile, repro_env, serve_items, tail_percentile)
from tracer import ROOTS, write_chrome

#: seconds one pass of each workload takes on a 2-vCPU x86 VM, which
#: varies by up to 1.5x with the host's load; fixes the pass count (and
#: so the sample count) per --seconds
NOMINAL_PASS_S = {"polybench-looprag": 12.5, "tsvc-looprag": 6.0,
                  "serve-mixed": 12.0}
CORPUS = WORK / "corpus"

END_TO_END = (("setup_s", "s"), ("req_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("latency_samples", "count"),
              ("peak_rss_mb", "MB"), ("pass_at_k", "%"),
              ("mean_speedup", "x"))

#: traced layers and the span columns reported for each
LAYER_COLUMNS = (
    ("analysis.dependences", ("calls", "self_s")),
    ("analysis.legality", ("calls", "self_s")),
    ("compilers.finalize", ("calls", "self_s", "total_s")),
    ("retrieval.demonstrations", ("calls", "self_s")),
    ("retrieval.index", ("self_s",)),
    ("synthesis.load", ("self_s",)),
    ("llm.generate", ("calls", "self_s")),
    ("testing.checker_build", ("calls", "self_s")),
    ("testing.check", ("calls", "self_s")),
    ("runtime.execute", ("calls", "self_s")),
    ("machine.estimate", ("calls", "self_s")),
    ("codegen.print", ("calls", "self_s")),
    ("evaluation.store.get", ("calls", "self_s")),
    ("evaluation.store.put", ("calls", "self_s")),
    ("serve.journal.write", ("calls", "self_s")),
    ("storage.append", ("calls", "self_s")),
    ("storage.read", ("calls", "self_s")),
)
#: ratio metrics: name -> (numerator count, denominator)
RATIOS = {
    "analysis.dependences.miss_frac": ("analysis.dependences.misses",
                                       "analysis.dependences"),
    "machine.estimate.miss_frac": ("machine.estimate.misses",
                                   "machine.estimate"),
    "llm.compile_ok_frac": ("llm.compile_ok", "llm.candidates"),
    "testing.pass_frac": ("testing.passed", "testing.reports"),
    "evaluation.store.hit_frac": ("evaluation.store.hits",
                                  "evaluation.store.get"),
}
COLUMN_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def spawn(args: List[str], cache_dir: Path) -> Tuple[Optional[float], Dict]:
    """Run one worker role; (seconds to its "ready" line, final doc)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args], cwd=ROOT,
        env=repro_env(cache_dir), stdout=subprocess.PIPE)
    ready, final = None, None
    try:
        for line in proc.stdout:
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # stray program output
            if doc.get("event") == "ready":
                ready = time.perf_counter() - started
            else:
                final = doc
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or final is None:
        raise RuntimeError(f"worker {' '.join(args)} exited with {code}")
    return ready, final


def ensure_corpus() -> None:
    """Load the warm corpus, building it first when it is missing or
    stale (a changed ``dataset_signature()``); untimed."""
    CORPUS.mkdir(parents=True, exist_ok=True)
    spawn(["build"], CORPUS)


def build_corpus(trace: Optional[Path] = None) -> Dict:
    """Build the corpus into an empty dir; it becomes the run's corpus."""
    target = fresh_dir(WORK / "corpus-build")
    _, result = spawn(["build"] + ([str(trace)] if trace else []), target)
    shutil.rmtree(CORPUS, ignore_errors=True)
    target.rename(CORPUS)
    return result


def session_pass(workload: str, seed: str,
                 trace: Optional[Path] = None) -> Dict:
    args = ["session", workload, seed] + ([str(trace)] if trace else [])
    setup_s, result = spawn(args, CORPUS)
    result["setup_s"] = setup_s
    return result


def serve_pass(seed: str) -> Dict:
    from serveload import Daemon, drive

    daemon = Daemon(CORPUS, fresh_dir(WORK / "serve"))
    try:
        records, wall = drive(daemon.port, serve_items(seed))
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return {"records": records, "wall_s": wall, "peak_rss_mb": rss,
            "setup_s": daemon.setup_s, "warmup": daemon.warmup}


def setup_probe(workload: str) -> Tuple[float, List[Dict]]:
    """One more fresh set-up; (seconds, records to verify)."""
    if workload == "serve-mixed":
        from serveload import Daemon

        daemon = Daemon(CORPUS, fresh_dir(WORK / "serve"))
        daemon.stop()
        return daemon.setup_s, [daemon.warmup]
    setup_s, _ = spawn(["setup"], CORPUS)
    return setup_s, []


def run_pass(workload: str, seed: str) -> Dict:
    if workload == "serve-mixed":
        return serve_pass(seed)
    return session_pass(workload, seed)


# ----------------------------------------------------------------------
# checking and metrics
# ----------------------------------------------------------------------
def failures(records: List[Dict], expected: Dict[str, str]) -> int:
    return sum(1 for rec in records
               if rec["status"] != 200
               or rec["digest"] != expected.get(rec["name"]))


def expected_for(workload: str) -> Dict[str, str]:
    digests = load_expected()["digests"]
    return digests["serve" if workload == "serve-mixed" else workload]


def quality(records: List[Dict]) -> Tuple[float, float]:
    from repro.evaluation.metrics import average_speedup, pass_at_k

    return (pass_at_k([rec["passed"] for rec in records]),
            average_speedup([rec["speedup"] for rec in records]))


def measure(workload: str, seed: int, seconds: int) -> Dict:
    """The end-to-end metrics of ``passes`` fresh-process passes.

    The VM this was tuned on runs the same work up to 1.5x slower from
    one few-second window to the next, and interference only ever adds
    time, so each request's latency is its fastest over the run's passes (a
    request is a kernel and its copy number; every pass sends the same
    requests, in another seeded order).  Throughput is requests over
    the summed fastest latencies for the single-client workloads, and
    the best pass's requests over wall time for ``serve-mixed``.
    """
    expected = expected_for(workload)
    ensure_corpus()
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    records, checked, setups, rss, throughput = [], [], [], [], []
    fastest: Dict[Tuple[str, int], float] = {}
    for index in range(passes):
        result = run_pass(workload, f"{seed}/{index}")
        records += result["records"]
        checked += result["records"] + ([result["warmup"]]
                                        if "warmup" in result else [])
        copies: Dict[str, int] = {}
        for rec in result["records"]:
            key = (rec["name"], copies.setdefault(rec["name"], 0))
            copies[rec["name"]] += 1
            fastest[key] = min(fastest.get(key, rec["latency_s"]),
                               rec["latency_s"])
        throughput.append(len(result["records"]) / result["wall_s"])
        rss.append(result["peak_rss_mb"])
        setups.append(result["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        setup_s, warm = setup_probe(workload)
        setups.append(setup_s)
        checked += warm
    latencies = list(fastest.values())
    tail = tail_percentile(len(latencies))
    pass_at_k, mean_speedup = quality(records)
    failed = failures(checked, expected)
    metrics = {
        "setup_s": median(setups),
        "req_per_s": (max(throughput) if workload == "serve-mixed"
                      else len(latencies) / sum(latencies)),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_tail_ms": percentile(latencies, tail) * 1e3,
        "latency_samples": len(latencies),
        # the order decides which kernel's transient peak lands on top
        # of the warmed caches: the largest pass is the workload's peak
        "peak_rss_mb": max(rss),
        "pass_at_k": pass_at_k,
        "mean_speedup": mean_speedup,
    }
    notes = {"passes": passes, "tail_percentile": tail,
             "fail_frac": failed / len(checked),
             "setup_samples": sorted(setups),
             "pass_req_per_s": throughput, "pass_peak_rss_mb": rss}
    return {"correct": failed == 0, "attempted": len(checked),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END},
            "notes": notes}


def traced(workload: str, seed: int) -> Dict:
    """One untraced and one traced pass; the per-layer metrics."""
    expected = expected_for(workload)
    parts = {"build": WORK / "trace-build.part",
             "run": WORK / "trace-run.part"}
    build = build_corpus(parts["build"])
    order = f"{seed}/0"
    plain = run_pass(workload, order)
    if workload == "serve-mixed":
        cache = copy_corpus(CORPUS, WORK / "serve")
        _, spanned = spawn(["serve-traced", order, str(parts["run"])],
                           cache)
    else:
        spanned = session_pass(workload, order, parts["run"])
    checked = plain["records"] + spanned["records"]
    checked += [run["warmup"] for run in (plain, spanned) if "warmup" in run]
    failed = failures(checked, expected)
    # byte-identity: same order, so document i must match document i
    failed += sum(1 for a, b in zip(plain["records"], spanned["records"])
                  if a["digest"] != b["digest"])
    journal = ((spanned["journal_hits"], spanned["requests_total"])
               if workload == "serve-mixed" else (0, 0))
    metrics = layer_metrics(spanned["trace"], build["trace"], journal,
                            plain["wall_s"], spanned["wall_s"])
    write_trace(workload, seed, parts)
    return {"correct": failed == 0, "attempted": len(checked),
            "failed": failed, "metrics": metrics,
            "checks": spanned["trace"]}


def layer_metrics(run: Dict, build: Dict, journal: Tuple[int, int],
                  plain_wall: float, traced_wall: float) -> Dict:
    layers, counts = run["layers"], run["counts"]

    def col(layer: str, column: str, source: Dict = layers) -> float:
        return source.get(layer, {}).get(column, 0)

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: Dict[str, Tuple[float, str]] = {}
    for layer, columns in LAYER_COLUMNS:
        for column in columns:
            values[f"{layer}.{column}"] = (col(layer, column),
                                           COLUMN_UNITS[column])
    for name, (num, den) in RATIOS.items():
        den_value = counts.get(den, col(den, "calls"))
        values[name] = (frac(counts.get(num, 0), den_value), "fraction")
    values["serve.journal.hit_frac"] = (frac(*journal), "fraction")
    values["serve.admission.wait_s"] = (col("serve.admission", "total_s"),
                                        "s")
    build_layers = build["layers"]
    for column in ("self_s", "total_s"):
        values[f"synthesis.build.{column}"] = (
            col("synthesis.build", column, build_layers), "s")
    attributed = sum(row["self_s"] for name, row in layers.items()
                     if name not in ROOTS)
    values["other.self_s"] = (run["root_s"] - attributed, "s")
    values["trace.overhead_frac"] = (
        frac(traced_wall - plain_wall, plain_wall), "fraction")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def write_trace(workload: str, seed: int, parts: Dict[str, Path]) -> None:
    events = []
    for pid, path in enumerate(parts.values(), start=1):
        with open(path) as handle:
            for event in json.load(handle):
                event["pid"] = pid
                events.append(event)
        path.unlink()
    write_chrome(WORK / f"trace-{workload}-{seed}.json", events)


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or \
            not EXPECTED.is_file():
        print(f"perfbench: no program to measure under {ROOT} "
              f"(need src/repro and {EXPECTED.name})", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    extra = {k: result.pop(k) for k in ("notes", "checks") if k in result}
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    if "notes" in extra:
        print(f"notes: {json.dumps(extra['notes'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
