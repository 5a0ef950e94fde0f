"""Command-line interface: ``python -m repro <command>``.

Commands
--------
optimize FILE     run LOOPRAG on a SCoP source file and print the result
                  (--json for a byte-stable structured document,
                  --events to stream session events to stderr)
serve              long-lived optimization daemon: HTTP/JSON requests,
                  NDJSON event streams, bounded admission, deadlines,
                  retry/breaker resilience, graceful SIGTERM drain,
                  /healthz + /metrics
serve-batch SPEC  serve a JSON batch of requests through one
                  OptimizerSession (parallel, store-backed)
compilers FILE    run every baseline compiler on a SCoP source file
experiment ID     regenerate one table/figure (tab1..tab7, fig1..fig14)
bench             run systems over suites (parallel, store-backed)
perf              engine micro-benchmarks (vectorized vs reference):
                  --target interpreter (execution) or analysis
                  (dependences + legality queries)
store stats       per-stream artifact-store shape (entries, waste)
store compact     reclaim superseded/tombstoned/corrupt store records
suites            list the benchmark suites and their kernels
synthesize        build a demonstration corpus and report its statistics

Parameter bindings are given as ``NAME=VALUE`` pairs, e.g.::

    python -m repro optimize kernel.scop --perf N=2000 M=1500 --test N=8 M=6
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Dict, List, Sequence

warnings.filterwarnings("ignore")


def _parse_bindings(pairs: Sequence[str]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for pair in pairs:
        name, _sep, value = pair.partition("=")
        if not _sep:
            raise SystemExit(f"expected NAME=VALUE, got {pair!r}")
        out[name] = int(value)
    return out


def _load_program(path: str):
    from .ir import parse_scop

    with open(path) as handle:
        return parse_scop(handle.read())


def _default_params(program, value: int) -> Dict[str, int]:
    return {p: value for p in program.params}


def cmd_optimize(args: argparse.Namespace) -> int:
    import json

    from .api import OptimizationRequest, OptimizerSession

    program = _load_program(args.file)
    perf = _parse_bindings(args.perf) or _default_params(program, 1500)
    test = _parse_bindings(args.test) or _default_params(program, 8)
    session = OptimizerSession(dataset_size=args.dataset_size,
                               seed=args.seed,
                               retrieval_method=args.retrieval)
    if args.events:
        session.events.subscribe(
            lambda event: print(event, file=sys.stderr))
    request = OptimizationRequest.make(program, perf, test,
                                       system=args.system,
                                       persona=args.persona)
    # uncached on purpose: `repro optimize` is the one-shot spelling and
    # its --json output must be byte-stable whatever the store holds
    result = session.optimize(request, use_store=False)
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2,
                         sort_keys=True))
        return _result_exit_code(result)
    print(f"# pass: {result.passed}   speedup: {result.speedup:.2f}x")
    if result.recipe is not None:
        print(f"# recipe: {result.recipe}")
    if result.best_code is not None:
        print(result.best_code)
    return _result_exit_code(result)


def _result_exit_code(result) -> int:
    """0 = passed, 1 = no passing candidate, 2 = request *errored*.

    An error (``result.failure`` set — optimizer failure, timeout,
    structural problem) must not exit like a mere "found no speedup":
    scripts gating on the exit code would silently swallow it.
    """
    if result.failure is not None:
        return 2
    return 0 if result.passed else 1


def cmd_compilers(args: argparse.Namespace) -> int:
    from .compilers import (BASE_COMPILERS, Graphite, IcxOptimizer,
                            OPTIMIZER_BASE, Perspective, Polly, Pluto)
    from .machine import DEFAULT_MACHINE, estimate_cached

    program = _load_program(args.file)
    perf = _parse_bindings(args.perf) or _default_params(program, 1500)
    for optimizer in (Pluto(), Polly(), Graphite(), Perspective(),
                      IcxOptimizer()):
        base = BASE_COMPILERS[OPTIMIZER_BASE[optimizer.name]]
        baseline = estimate_cached(base.finalize(program), perf,
                                   DEFAULT_MACHINE).seconds
        result = optimizer.optimize(program, perf)
        if not result.ok:
            print(f"{optimizer.name:12s} FAILED: {result.failure}")
            continue
        machine = getattr(optimizer, "machine_override", DEFAULT_MACHINE)
        seconds = estimate_cached(base.finalize(result.program), perf,
                                  machine).seconds
        print(f"{optimizer.name:12s} {baseline / seconds:8.2f}x  "
              f"{result.recipe.describe()[:90] or '<no change>'}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from .evaluation import ALL_EXPERIMENTS, render_table

    if args.id not in ALL_EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {args.id!r}; "
            f"choose from {', '.join(sorted(ALL_EXPERIMENTS))}")
    print(render_table(ALL_EXPERIMENTS[args.id]()))
    return 0


#: `repro bench --system` tokens -> plan factories
BENCH_LLM_SYSTEMS = ("looprag-deepseek", "looprag-gpt4",
                     "base-deepseek", "base-gpt4")
BENCH_COMPILERS = ("pluto", "polly", "graphite", "perspective", "icx")
BENCH_SUITES = ("polybench", "tsvc", "lore")


def _bench_plan(system: str, suite: str, base: str):
    from .evaluation.harness import (base_llm_plan, compiler_plan,
                                     looprag_plan)

    if system in BENCH_COMPILERS:
        return compiler_plan(suite, system)
    kind, _sep, persona = system.partition("-")
    if kind == "looprag":
        return looprag_plan(suite, persona, base)
    return base_llm_plan(suite, persona, base)


def cmd_bench(args: argparse.Namespace) -> int:
    import os

    if args.no_cache:
        os.environ["REPRO_NO_CACHE"] = "1"
    if args.cache_dir:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    if args.limit is not None:
        os.environ["REPRO_SUITE_LIMIT"] = str(args.limit)

    from .evaluation.harness import run_plans
    from .evaluation.reporting import (bench_report, render_bench,
                                       render_json)
    from .evaluation.store import active_store, cache_stats

    wanted = args.suite or ["polybench"]
    suites = list(BENCH_SUITES) if "all" in wanted else wanted
    systems = args.system or ["looprag-deepseek"]
    plans = [_bench_plan(system, suite, args.base)
             for suite in suites for system in systems]
    results = run_plans(plans, jobs=args.jobs)
    report = bench_report([(plan.label(), plan.suite, res)
                           for plan, res in zip(plans, results)])

    text = render_json(report)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
        print(render_bench(report))
    elif args.format == "json":
        print(text)
    else:
        print(render_bench(report))

    stats = cache_stats()
    store = active_store()
    where = store.describe() if store is not None else "disabled"
    print(f"# cache: {stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['writes']} writes, {stats['superseded']} superseded, "
          f"{stats['corrupt']} corrupt ({where})", file=sys.stderr)
    return 0


def _batch_requests(spec: dict, base_dir: str):
    """Materialize ``OptimizationRequest`` objects from a batch spec."""
    import os

    from .api import OptimizationRequest
    from .ir import parse_scop

    requests = []
    for i, entry in enumerate(spec.get("requests", [])):
        if "source" in entry:
            program = parse_scop(entry["source"])
        elif "file" in entry:
            path = entry["file"]
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            with open(path) as handle:
                program = parse_scop(handle.read())
        else:
            raise SystemExit(
                f"request #{i}: needs 'source' or 'file'")
        perf = {k: int(v) for k, v in entry.get("perf", {}).items()} \
            or _default_params(program, 1500)
        test = {k: int(v) for k, v in entry.get("test", {}).items()} \
            or _default_params(program, 8)
        requests.append(OptimizationRequest.make(
            program, perf, test,
            system=entry.get("system", "looprag"),
            persona=entry.get("persona", "deepseek"),
            optimizer=entry.get("optimizer"),
            time_limit=entry.get("time_limit"),
            tag=entry.get("tag")))
    return requests


def cmd_serve_batch(args: argparse.Namespace) -> int:
    """Serve a JSON batch of optimization requests through one session.

    The batch file holds an optional ``session`` configuration and a
    ``requests`` list (each: ``source`` or ``file``, plus ``system`` /
    ``persona`` / ``optimizer`` / ``perf`` / ``test`` / ``tag``).
    Requests fan out across ``--jobs`` workers with persistent-store
    hits resolved first; the report is byte-stable across runs.
    """
    import json
    import os

    from .api import OptimizerSession

    if args.no_cache:
        os.environ["REPRO_NO_CACHE"] = "1"
    if args.cache_dir:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir

    if args.batch == "-":
        spec = json.load(sys.stdin)
        base_dir = os.getcwd()
    else:
        with open(args.batch) as handle:
            spec = json.load(handle)
        base_dir = os.path.dirname(os.path.abspath(args.batch))

    session_spec = dict(spec.get("session", {}))
    session = OptimizerSession(**session_spec)
    if args.events:
        session.events.subscribe(
            lambda event: print(event, file=sys.stderr))
    requests = _batch_requests(spec, base_dir)
    results = session.optimize_many(requests, jobs=args.jobs)

    passed = sum(1 for r in results if r.passed)
    errored = sum(1 for r in results if r.failure is not None)
    report = {
        "session": session_spec,
        "count": len(results),
        "passed": passed,
        "errors": errored,
        "results": [r.to_json_dict(include_events=args.include_events)
                    for r in results],
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
    if args.format == "json":
        print(text)
    else:
        for request, result in zip(requests, results):
            tag = f" [{request.tag}]" if request.tag else ""
            recipe = result.recipe or result.failure or "<none>"
            print(f"{result.request.program.name:20s}{tag} "
                  f"{result.system_label:24s} "
                  f"{str(result.passed):5s} {result.speedup:8.2f}x  "
                  f"{recipe[:70]}")
        print(f"# {passed}/{len(results)} passed, {errored} errored")
    # exit-code contract (audited): 2 when any request *errored* (its
    # failure field is set) — errors in the table must never exit 0/1
    # like a plain "no passing candidate" would
    if errored:
        return 2
    return 0 if passed == len(results) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived optimization daemon (see ``repro.serve``).

    Serves ``POST /v1/optimize`` (JSON result or NDJSON event stream),
    ``GET /healthz`` and ``GET /metrics`` until SIGTERM/SIGINT, then
    drains gracefully: admission stops, in-flight requests finish (or
    are deadline-cancelled after ``--drain-grace``), and the process
    exits 0.  Flags override the ``REPRO_SERVE_*`` environment knobs.
    """
    import json

    from .serve import JournalUnavailable, ServeConfig, ServeDaemon

    default_session = {}
    if args.session:
        default_session = json.loads(args.session)
        if not isinstance(default_session, dict):
            raise SystemExit("--session must be a JSON object")
    config = ServeConfig.from_env().with_overrides(
        host=args.host, port=args.port,
        max_inflight=args.max_inflight, queue_depth=args.queue_depth,
        per_client=args.per_client, default_deadline=args.deadline,
        drain_grace=args.drain_grace, max_sessions=args.sessions,
        resilience=(False if args.no_resilience else None),
        workers=args.workers, worker_memory_mb=args.worker_mem,
        worker_cpu_s=args.worker_cpu,
        worker_hang_timeout=args.hang_timeout,
        worker_crash_limit=args.crash_limit,
        journal=(False if args.no_journal else None),
        recover=(True if args.recover else None),
        default_session=(default_session or None))
    try:
        daemon = ServeDaemon(config)
    except JournalUnavailable as exc:
        raise SystemExit(f"repro serve: {exc}")
    return daemon.run_forever()


def _perf_candidates(program):
    """Deterministic candidate schedules for legality-query benchmarks.

    Interchange/tile/skew over the low schedule columns — the same
    rewrites personas and compiler passes probe — deduplicated by
    fingerprint.  Transform construction is engine-independent, so both
    engines answer the exact same queries.
    """
    import itertools

    from .transforms import interchange, skew, tile

    candidates = []
    seen = set()
    for col_a, col_b in itertools.combinations((1, 3, 5), 2):
        for make in (lambda p: interchange(p, col_a, col_b),
                     lambda p: tile(p, [col_a], 2),
                     lambda p: skew(p, target_col=col_a,
                                    source_col=col_b, factor=1)):
            try:
                candidate = make(program)
            except Exception:
                continue
            if candidate.fingerprint() not in seen:
                seen.add(candidate.fingerprint())
                candidates.append(candidate)
    return candidates


def cmd_perf_analysis(args: argparse.Namespace) -> int:
    """Micro-benchmark the dependence/legality engines over a suite.

    Per kernel and per ``REPRO_ANALYSIS`` engine: time the (uncached)
    dependence computation and a sweep of legality + parallelism
    queries over deterministic candidate schedules, then check the
    engines agreed on every dependence (witness for witness) and every
    verdict.
    """
    import json
    import time

    from .analysis.dependences import (analysis_override,
                                       compute_dependences,
                                       parallel_violations,
                                       schedule_violations)
    from .suites import SUITES

    if args.param is not None:
        raise SystemExit(
            "--param only applies to --target interpreter; the analysis "
            "engines concretize at their fixed witness sizes")
    suite = SUITES[args.suite]()
    benchmarks = list(suite)
    if args.limit is not None:
        benchmarks = benchmarks[:args.limit]
    laps = max(1, args.repeat) + 1  # lap 0 warms caches, records results

    def measure_deps(program, engine):
        with analysis_override(engine):
            best = float("inf")
            deps = None
            for lap in range(laps):
                t0 = time.perf_counter()
                try:
                    result = compute_dependences(program)
                except Exception as exc:
                    return 0.0, None, ("error", type(exc).__name__,
                                       str(exc))
                elapsed = time.perf_counter() - t0
                if lap == 0:
                    deps = result
                else:
                    best = min(best, elapsed)
        return best, deps, ("ok",)

    def measure_legality(program, candidates, deps, engine):
        dims = range(program.schedule_width)
        position = {id(dep): i for i, dep in enumerate(deps)}
        with analysis_override(engine):
            best = float("inf")
            verdicts = None
            for lap in range(laps):
                t0 = time.perf_counter()
                observed = []
                for candidate in candidates:
                    observed.append(tuple(
                        position[id(d)]
                        for d in schedule_violations(candidate, deps)))
                for dim in dims:
                    observed.append(tuple(
                        position[id(d)]
                        for d in parallel_violations(program, deps, dim)))
                elapsed = time.perf_counter() - t0
                if lap == 0:
                    verdicts = tuple(observed)
                else:
                    best = min(best, elapsed)
        return best, verdicts

    rows = []
    total_ref = total_vec = 0.0
    identical = True
    for bench in benchmarks:
        program = bench.program
        candidates = _perf_candidates(program)
        queries = len(candidates) + program.schedule_width
        ref_dep_s, ref_deps, ref_obs = measure_deps(program, "reference")
        vec_dep_s, vec_deps, vec_obs = measure_deps(program, "vectorized")
        failed = "error" in (ref_obs[0], vec_obs[0])
        match = ref_obs == vec_obs and ref_deps == vec_deps
        ref_leg_s = vec_leg_s = 0.0
        if not failed:
            ref_leg_s, ref_verdicts = measure_legality(
                program, candidates, ref_deps, "reference")
            vec_leg_s, vec_verdicts = measure_legality(
                program, candidates, vec_deps, "vectorized")
            match &= ref_verdicts == vec_verdicts
        identical &= match
        ref_s = ref_dep_s + ref_leg_s
        vec_s = vec_dep_s + vec_leg_s
        total_ref += ref_s
        total_vec += vec_s
        if not failed:
            error = None
        elif ref_obs == vec_obs:  # both engines raised identically
            error = ref_obs[1]
        else:  # one-sided failure: name the engine and the exception
            error = (f"ref={ref_obs[1] if ref_obs[0] == 'error' else 'ok'} "
                     f"vec={vec_obs[1] if vec_obs[0] == 'error' else 'ok'}")
        rows.append({
            "kernel": bench.name,
            "deps": 0 if failed else len(ref_deps),
            "queries": 0 if failed else queries,
            "reference_dep_ms": round(ref_dep_s * 1000, 3),
            "vectorized_dep_ms": round(vec_dep_s * 1000, 3),
            "reference_legality_ms": round(ref_leg_s * 1000, 3),
            "vectorized_legality_ms": round(vec_leg_s * 1000, 3),
            "speedup": round(ref_s / vec_s, 2) if vec_s > 0 else 0.0,
            "identical": match,
            "error": error,
        })

    report = {
        "suite": args.suite,
        "target": "analysis",
        "repeat": args.repeat,
        "kernels": rows,
        "total_reference_s": round(total_ref, 4),
        "total_vectorized_s": round(total_vec, 4),
        "aggregate_speedup": (round(total_ref / total_vec, 2)
                              if total_vec > 0 else 0.0),
        "bit_identical": identical,
    }
    from .evaluation.reporting import render_analysis_perf

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=False)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_analysis_perf(report))
    return 0 if identical else 1


def cmd_perf(args: argparse.Namespace) -> int:
    """Micro-benchmark the execution engines over a suite.

    Every kernel runs under both ``REPRO_ENGINE`` settings at a uniform
    parameter binding; the report records per-kernel wall times (best of
    ``--repeat``), the aggregate speedup, and whether results stayed
    bit-identical (checksum + executed-instance count).
    """
    import json
    import time

    if args.target == "analysis":
        return cmd_perf_analysis(args)
    if args.param is None:
        args.param = 20

    from .runtime import (allocate, checksum, clone_storage,
                          engine_override, execute)
    from .suites import SUITES

    suite = SUITES[args.suite]()
    benchmarks = list(suite)
    if args.limit is not None:
        benchmarks = benchmarks[:args.limit]

    def measure(program, params, engine):
        """(best seconds, observed result) — errors become the result.

        A kernel that exceeds the budget (or fails at runtime) reports
        its exception class as the observation, so both engines raising
        the same error still count as identical instead of killing the
        whole run with a traceback.
        """
        with engine_override(engine):
            pristine = allocate(program, params)
            best = float("inf")
            result = None
            for _ in range(max(1, args.repeat) + 1):  # lap 0 warms caches
                storage = clone_storage(pristine)
                t0 = time.perf_counter()
                try:
                    instances = execute(program, params, storage,
                                        budget=args.budget)
                except Exception as exc:
                    return 0.0, ("error", type(exc).__name__)
                elapsed = time.perf_counter() - t0
                if result is None:  # warmup lap: record result, not time
                    result = (checksum(storage, program.outputs),
                              instances)
                    continue
                best = min(best, elapsed)
        return best, result

    rows = []
    total_ref = total_vec = 0.0
    identical = True
    for bench in benchmarks:
        params = {name: args.param for name in bench.program.params}
        ref_s, ref_out = measure(bench.program, params, "reference")
        vec_s, vec_out = measure(bench.program, params, "vectorized")
        match = ref_out == vec_out
        identical &= match
        failed = ref_out[0] == "error"
        total_ref += ref_s
        total_vec += vec_s
        rows.append({
            "kernel": bench.name,
            "instances": 0 if failed else ref_out[1],
            "reference_ms": round(ref_s * 1000, 3),
            "vectorized_ms": round(vec_s * 1000, 3),
            "speedup": round(ref_s / vec_s, 2) if vec_s > 0 else 0.0,
            "identical": match,
            "error": ref_out[1] if failed else None,
        })

    report = {
        "suite": args.suite,
        "param": args.param,
        "repeat": args.repeat,
        "kernels": rows,
        "total_reference_s": round(total_ref, 4),
        "total_vectorized_s": round(total_vec, 4),
        "aggregate_speedup": (round(total_ref / total_vec, 2)
                              if total_vec > 0 else 0.0),
        "bit_identical": identical,
    }
    from .evaluation.reporting import render_perf

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=False)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_perf(report))
    return 0 if identical else 1


def _store_for_maintenance(args: argparse.Namespace):
    """The ResultStore targeted by ``repro store`` subcommands.

    Maintenance is explicit, so it ignores ``REPRO_NO_CACHE`` and
    operates on whatever ``--cache-dir`` / ``REPRO_CACHE_DIR`` names.
    """
    from .evaluation.store import ResultStore, cache_dir

    root = args.cache_dir or str(cache_dir())
    return ResultStore(root, backend=args.backend)


def cmd_store_stats(args: argparse.Namespace) -> int:
    """Per-stream shape of the artifact store (entries, waste, bytes)."""
    import json

    from .storage import INTEGRITY

    store = _store_for_maintenance(args)
    artifacts = store.artifacts()
    streams = artifacts.streams()
    report = {
        "backend": artifacts.name,
        "root": artifacts.root,
        "streams": {name: artifacts.stream_stats(name).to_dict()
                    for name in streams},
        "integrity": INTEGRITY.snapshot(),
    }
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"# store: {artifacts.describe()}")
    if streams:
        header = (f"{'stream':12s} {'entries':>8s} {'superseded':>11s} "
                  f"{'tombstones':>11s} {'corrupt':>8s} "
                  f"{'mismatched':>11s} {'shards':>7s} {'bytes':>12s}")
        print(header)
        for name in streams:
            s = report["streams"][name]
            print(f"{name:12s} {s['entries']:8d} {s['superseded']:11d} "
                  f"{s['tombstones']:11d} {s['corrupt']:8d} "
                  f"{s['mismatched']:11d} "
                  f"{s['shards']:7d} {s['bytes']:12d}")
    else:
        print("(empty)")
    integrity = report["integrity"]
    if integrity:
        cells = " ".join(f"{k}={v}" for k, v in integrity.items())
        print(f"# integrity: {cells}")
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    """Drop superseded/tombstoned/corrupt records from every stream."""
    import json
    import os

    from .serve.journal import ENV_JOURNAL_KEEP, JOURNAL_STREAM
    from .serve.journal import prune_finished

    store = _store_for_maintenance(args)
    artifacts = store.artifacts()
    streams = ([args.stream] if args.stream
               else list(artifacts.streams()))
    keep = args.journal_keep
    if keep is None:
        env_keep = os.environ.get(ENV_JOURNAL_KEEP)
        keep = int(env_keep) if env_keep else None
    retention = None
    if keep is not None and JOURNAL_STREAM in streams:
        # drop finished journal records beyond the newest `keep` before
        # compaction so the freed lines are reclaimed in the same pass
        retention = prune_finished(artifacts, keep)
    compacted = []
    for name in streams:
        before = artifacts.stream_stats(name).bytes
        report = artifacts.compact(name)
        after = artifacts.stream_stats(name).bytes
        doc = report.to_dict()
        doc["bytes_before"] = before
        doc["bytes_after"] = after
        doc["reclaimed_bytes"] = max(0, before - after)
        compacted.append((report, doc))
    if args.format == "json":
        doc = {"backend": artifacts.name,
               "root": artifacts.root,
               "compacted": [d for _, d in compacted]}
        if retention is not None:
            doc["journal_retention"] = retention
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"# store: {artifacts.describe()}")
    if not compacted:
        print("(empty)")
    for report, doc in compacted:
        print(f"{report.stream:12s} kept {report.kept:6d}   dropped "
              f"{report.dropped_superseded} superseded, "
              f"{report.dropped_tombstones} tombstones, "
              f"{report.dropped_corrupt} corrupt, "
              f"{report.dropped_mismatched} mismatched   "
              f"reclaimed {doc['reclaimed_bytes']} bytes "
              f"({doc['bytes_before']} -> {doc['bytes_after']})")
    if retention is not None:
        print(f"# journal: kept {retention['kept_finished']} finished "
              f"(+{retention['unfinished']} unfinished), dropped "
              f"{retention['dropped']} past --journal-keep {keep}")
    return 0


def cmd_store_verify(args: argparse.Namespace) -> int:
    """fsck for the artifact plane: detect (and repair) corruption."""
    import json

    from .storage import repair_store, verify_store

    store = _store_for_maintenance(args)
    artifacts = store.artifacts()
    streams = ((args.stream,) if args.stream
               else tuple(artifacts.streams()))
    report = verify_store(artifacts, streams)
    repair = None
    if args.repair and not report.clean:
        repair = repair_store(artifacts, streams)
        # the verdict is the post-repair state
        report = verify_store(artifacts, streams)
    if args.format == "json":
        doc = report.to_dict()
        if repair is not None:
            doc["repair"] = repair.to_dict()
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0 if report.clean else 1
    _render_verify(report)
    if repair is not None:
        print(f"# repair: {repair.read_repairs} read-repairs, "
              f"{repair.dropped} damaged lines dropped")
    print(f"# verdict: {'clean' if report.clean else 'DAMAGED'} "
          f"({report.flagged} issue(s))")
    return 0 if report.clean else 1


def _render_verify(report, indent: str = "") -> None:
    print(f"{indent}# store: {report.backend}")
    for stream in report.streams:
        status = "ok" if stream.clean else "DAMAGED"
        print(f"{indent}{stream.stream:12s} {status:8s} "
              f"{stream.records} records ({stream.live} live, "
              f"{stream.legacy} legacy), {stream.corrupt} corrupt, "
              f"{stream.torn} torn, {stream.mismatched} mismatched")
        for issue in stream.issues:
            print(f"{indent}  ! {issue.render()}")
    if not report.streams:
        print(f"{indent}(no streams)")
    for replica in report.replicas:
        _render_verify(replica, indent + "  ")


def cmd_suites(args: argparse.Namespace) -> int:
    from .suites import SUITES

    for name, factory in SUITES.items():
        suite = factory()
        print(f"{name} ({len(suite)} kernels)")
        if args.verbose:
            for bench in suite:
                depth = bench.program.max_depth
                stmts = len(bench.program.statements)
                print(f"  {bench.name:20s} depth={depth} stmts={stmts}")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    from .analysis import cluster_distribution
    from .synthesis import build_dataset, transformation_kinds

    dataset = build_dataset(args.size, args.seed, args.generator)
    print(f"{len(dataset)} examples (generator={args.generator}, "
          f"seed={args.seed})")
    print("transformation kinds in the PLuTo-optimized corpus:")
    for kind, count in sorted(transformation_kinds(dataset).items()):
        print(f"  {kind:14s} {count}")
    if args.distribution:
        print("loop property distribution:")
        dist = cluster_distribution([e.example for e in dataset])
        for prop, buckets in dist.items():
            cells = "  ".join(f"{c}={v:5.1f}%"
                              for c, v in buckets.items())
            print(f"  {prop:10s} {cells}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="run LOOPRAG on a SCoP file")
    opt.add_argument("file")
    opt.add_argument("--persona", default="deepseek",
                     choices=("deepseek", "gpt4", "deepseek-v2.5"))
    opt.add_argument("--system", default="looprag",
                     choices=("looprag", "basellm"),
                     help="full LOOPRAG or the bare-LLM baseline")
    opt.add_argument("--retrieval", default="loop-aware",
                     choices=("loop-aware", "bm25", "weighted"))
    opt.add_argument("--perf", nargs="*", default=[],
                     metavar="NAME=VALUE")
    opt.add_argument("--test", nargs="*", default=[],
                     metavar="NAME=VALUE")
    opt.add_argument("--dataset-size", type=int, default=300)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--json", action="store_true",
                     help="print a structured JSON document (request "
                          "echo, per-step events, verdict); byte-stable "
                          "across runs")
    opt.add_argument("--events", action="store_true",
                     help="stream session events to stderr as they "
                          "happen")
    opt.set_defaults(func=cmd_optimize)

    comp = sub.add_parser("compilers",
                          help="baseline compiler shootout on a file")
    comp.add_argument("file")
    comp.add_argument("--perf", nargs="*", default=[],
                      metavar="NAME=VALUE")
    comp.set_defaults(func=cmd_compilers)

    exp = sub.add_parser("experiment",
                         help="regenerate one table or figure")
    exp.add_argument("id")
    exp.set_defaults(func=cmd_experiment)

    ben = sub.add_parser(
        "bench", help="run systems over suites (parallel, store-backed)")
    ben.add_argument("--suite", action="append",
                     choices=BENCH_SUITES + ("all",),
                     help="suite to run (repeatable; default: polybench)")
    ben.add_argument("--system", action="append",
                     choices=BENCH_LLM_SYSTEMS + BENCH_COMPILERS,
                     help="system to run (repeatable; "
                          "default: looprag-deepseek)")
    ben.add_argument("--base", default="gcc",
                     choices=("gcc", "clang", "icx"),
                     help="base compiler for the LLM systems")
    ben.add_argument("-j", "--jobs", type=int, default=None,
                     help="parallel workers (default: REPRO_JOBS or "
                          "1 = serial)")
    ben.add_argument("--no-cache", action="store_true",
                     help="bypass the persistent result store")
    ben.add_argument("--cache-dir", metavar="DIR",
                     help="result store location (default .repro_cache/)")
    ben.add_argument("--limit", type=int, metavar="N",
                     help="subsample each suite to N kernels "
                          "(sets REPRO_SUITE_LIMIT)")
    ben.add_argument("--json", metavar="FILE",
                     help="also write the JSON report to FILE")
    ben.add_argument("--format", default="table",
                     choices=("table", "json"),
                     help="stdout format (default: table)")
    ben.set_defaults(func=cmd_bench, suite=None, system=None)

    srv = sub.add_parser(
        "serve",
        help="long-lived optimization daemon (HTTP/JSON + NDJSON "
             "events, admission control, deadlines, graceful drain)")
    srv.add_argument("--host", default=None,
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=None,
                     help="port (default 8459; 0 = ephemeral)")
    srv.add_argument("--max-inflight", type=int, default=None,
                     help="concurrent requests executed "
                          "(REPRO_SERVE_INFLIGHT, default 4)")
    srv.add_argument("--queue-depth", type=int, default=None,
                     help="bounded admission queue beyond in-flight "
                          "(REPRO_SERVE_QUEUE, default 8; overload "
                          "answers 503 + Retry-After)")
    srv.add_argument("--per-client", type=int, default=None,
                     help="concurrent requests per client "
                          "(REPRO_SERVE_PER_CLIENT, default 4)")
    srv.add_argument("--deadline", type=float, default=None,
                     help="default per-request deadline in seconds "
                          "(REPRO_SERVE_DEADLINE; 0 = none)")
    srv.add_argument("--drain-grace", type=float, default=None,
                     help="seconds SIGTERM waits for in-flight work "
                          "before cancelling it (REPRO_SERVE_DRAIN, "
                          "default 10)")
    srv.add_argument("--sessions", type=int, default=None,
                     help="max pooled warm sessions "
                          "(REPRO_SERVE_SESSIONS, default 4)")
    srv.add_argument("--no-resilience", action="store_true",
                     help="disable the retry/circuit-breaker wrapper "
                          "around LLM backends")
    srv.add_argument("--session", metavar="JSON",
                     help="default session spec for requests that "
                          "send none, e.g. '{\"dataset_size\": 300}'")
    srv.add_argument("--workers", type=int, default=None,
                     help="supervised worker processes; 0 = in-process "
                          "execution (REPRO_WORKER_POOL, default 0)")
    srv.add_argument("--worker-mem", type=int, default=None,
                     metavar="MB",
                     help="per-worker RLIMIT_AS in MB "
                          "(REPRO_WORKER_MEM_MB; 0 = unlimited)")
    srv.add_argument("--worker-cpu", type=int, default=None,
                     metavar="SECONDS",
                     help="per-worker RLIMIT_CPU in seconds "
                          "(REPRO_WORKER_CPU_S; 0 = unlimited)")
    srv.add_argument("--hang-timeout", type=float, default=None,
                     help="watchdog kills a worker busy longer than "
                          "this (REPRO_WORKER_HANG, default 300)")
    srv.add_argument("--crash-limit", type=int, default=None,
                     help="worker crashes before a request signature "
                          "is quarantined (REPRO_WORKER_CRASH_LIMIT, "
                          "default 2)")
    srv.add_argument("--no-journal", action="store_true",
                     help="disable the write-ahead request journal "
                          "(required to serve on a volatile store "
                          "backend)")
    srv.add_argument("--recover", action="store_true",
                     help="replay admitted-but-unfinished journaled "
                          "requests before serving")
    srv.set_defaults(func=cmd_serve)

    ser = sub.add_parser(
        "serve-batch",
        help="serve a JSON batch of requests through one session")
    ser.add_argument("batch",
                     help="batch spec file ('-' for stdin): "
                          '{"session": {...}, "requests": [...]}')
    ser.add_argument("-j", "--jobs", type=int, default=None,
                     help="parallel workers (default: REPRO_JOBS or "
                          "1 = serial; results identical either way)")
    ser.add_argument("--no-cache", action="store_true",
                     help="bypass the persistent result store")
    ser.add_argument("--cache-dir", metavar="DIR",
                     help="result store location (default .repro_cache/)")
    ser.add_argument("--json", metavar="FILE",
                     help="also write the JSON report to FILE")
    ser.add_argument("--format", default="table",
                     choices=("table", "json"),
                     help="stdout format (default: table)")
    ser.add_argument("--include-events", action="store_true",
                     help="include per-request event logs in the JSON "
                          "report")
    ser.add_argument("--events", action="store_true",
                     help="stream session events to stderr as they "
                          "happen")
    ser.set_defaults(func=cmd_serve_batch)

    per = sub.add_parser(
        "perf", help="engine micro-benchmarks (vectorized vs reference)")
    per.add_argument("--target", default="interpreter",
                     choices=("interpreter", "analysis"),
                     help="what to benchmark: SCoP execution "
                          "(interpreter) or dependence analysis + "
                          "legality queries (analysis)")
    per.add_argument("--suite", default="polybench",
                     choices=BENCH_SUITES,
                     help="suite to time (default: polybench)")
    per.add_argument("--param", type=int, default=None,
                     help="uniform parameter binding for the interpreter "
                          "target (default: 20; rejected for --target "
                          "analysis, which concretizes at the fixed "
                          "witness sizes)")
    per.add_argument("--repeat", type=int, default=3,
                     help="timed laps per engine, best-of (default: 3)")
    per.add_argument("--budget", type=int, default=2_000_000,
                     help="instance budget per run")
    per.add_argument("--limit", type=int, metavar="N",
                     help="only the first N kernels")
    per.add_argument("--json", metavar="FILE",
                     help="write the JSON report to FILE (e.g. "
                          "BENCH_interpreter.json / BENCH_analysis.json)")
    per.add_argument("--format", default="table",
                     choices=("table", "json"),
                     help="stdout format (default: table)")
    per.set_defaults(func=cmd_perf)

    sto = sub.add_parser(
        "store", help="artifact-store maintenance "
                      "(stats, compaction, integrity)")
    stosub = sto.add_subparsers(dest="store_command", required=True)
    store_help = {
        "stats": "print per-stream store statistics",
        "compact": "rewrite shards, dropping reclaimable lines",
        "verify": "fsck: verify record checksums and shard framing; "
                  "--repair heals what it can",
    }
    for name, func in (("stats", cmd_store_stats),
                       ("compact", cmd_store_compact),
                       ("verify", cmd_store_verify)):
        part = stosub.add_parser(name, help=store_help[name])
        part.add_argument("--cache-dir", metavar="DIR",
                          help="store location (default "
                               "REPRO_CACHE_DIR or .repro_cache/)")
        part.add_argument("--backend", default=None,
                          help="artifact-store backend (default: "
                               "REPRO_STORE_BACKEND or local)")
        part.add_argument("--format", default="table",
                          choices=("table", "json"),
                          help="output format (default: table)")
        if name in ("compact", "verify"):
            part.add_argument("--stream", metavar="NAME",
                              help=f"{name} only this stream "
                                   "(default: every stream)")
        if name == "compact":
            part.add_argument("--journal-keep", type=int, metavar="N",
                              default=None,
                              help="drop finished journal records "
                                   "beyond the newest N (default: "
                                   "REPRO_JOURNAL_KEEP, else keep all; "
                                   "admitted/started are never touched)")
        if name == "verify":
            part.add_argument("--repair", action="store_true",
                              help="heal the damage: read-repair from "
                                   "replicas (mirrored), compact "
                                   "corrupt lines away")
        part.set_defaults(func=func)

    ste = sub.add_parser("suites", help="list benchmark suites")
    ste.add_argument("-v", "--verbose", action="store_true")
    ste.set_defaults(func=cmd_suites)

    syn = sub.add_parser("synthesize", help="build a corpus and report")
    syn.add_argument("--size", type=int, default=300)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--generator", default="looprag",
                     choices=("looprag", "colagen"))
    syn.add_argument("--distribution", action="store_true")
    syn.set_defaults(func=cmd_synthesize)
    return parser


def main(argv: Sequence[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
