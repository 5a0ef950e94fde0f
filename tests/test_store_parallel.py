"""Persistent result store + parallel runner tests.

Suite plans run as request batches through the session's batch
driver, so the store holds one record per benchmark request: warm-cache
hits return identical ``BenchResult`` lists through the sharded
artifact store, a plan's records are the ones
``OptimizerSession.optimize`` would hit, ``REPRO_NO_CACHE`` bypasses
the store, corrupt and superseded lines are counted separately, torn
shard tails are skipped and repaired by compaction, concurrent-process
appends never tear, a failing request — or a SIGKILLed worker — never
discards its batch's completed work, and parallel runs are identical to
serial ones on a ``REPRO_SUITE_LIMIT=3`` sweep.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import OptimizationRequest, OptimizerSession
from repro.evaluation import harness
from repro.evaluation import store as store_module
from repro.evaluation.harness import (base_llm_plan, compiler_plan,
                                      looprag_plan, results_for,
                                      run_plans, suites)
from repro.evaluation.store import (RESULTS_STREAM, ResultStore,
                                    active_store, encode_key)
from repro.llm.personas import DEEPSEEK_V3, GPT_4O
from repro.serve import WorkerCrashed
from repro.storage import STORAGE_SCHEMA

#: the cheap plan the store tests round-trip
GRAPHITE = compiler_plan("polybench", "graphite")


@pytest.fixture
def fresh_harness(monkeypatch, tmp_path):
    """Empty store in a tmp dir + cleared in-memory caches."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_SUITE_LIMIT", "3")
    _forget_memory()
    yield tmp_path
    _forget_memory()


def _forget_memory():
    """Simulate a new process: drop every in-memory layer."""
    harness._RUN_CACHE.clear()
    harness._SESSION_CACHE.clear()
    store_module._STORES.clear()


def _kill_worker_on(monkeypatch, doomed):
    """Make ``_execute`` SIGKILL its process on a ``doomed`` request —
    only in a forked worker, never in the test process itself.
    Returns a closure that removes the fault."""
    real = OptimizerSession._execute
    parent = os.getpid()

    def killing(session, request):
        if doomed(request) and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(session, request)

    monkeypatch.setattr(OptimizerSession, "_execute", killing)
    return lambda: monkeypatch.setattr(OptimizerSession, "_execute", real)


def _plan_keys(plan):
    """The store keys of a plan's benchmark requests."""
    session = harness._plan_session(plan)
    return [session._request_key(harness._plan_request(plan, bench))
            for bench in suites()[plan.suite]]


def shard_files(store: ResultStore):
    """Non-empty shard files behind the results stream."""
    return [path for path in
            store.artifacts().shard_paths(RESULTS_STREAM)
            if path.stat().st_size]


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(("k", 1), [{"a": 1}])
        assert store.get(("k", 1)) == [{"a": 1}]
        assert store.get(("k", 2)) is None
        assert store.stats()["writes"] == 1

    def test_survives_reload(self, tmp_path):
        ResultStore(tmp_path).put(("k",), [{"a": 1}])
        assert ResultStore(tmp_path).get(("k",)) == [{"a": 1}]

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(("k",), [{"a": 1}])
        store.put(("k",), [{"a": 2}])
        reloaded = ResultStore(tmp_path)
        assert reloaded.get(("k",)) == [{"a": 2}]
        assert reloaded.stats()["superseded"] == 1

    def test_corrupt_lines_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(("good",), [{"a": 1}])
        [shard] = shard_files(store)
        with open(shard, "a") as handle:
            handle.write("{not json\n")
            handle.write('{"schema": 999, "key": "x", "payload": []}\n')
            handle.write('{"missing": "fields"}\n')
        reloaded = ResultStore(tmp_path)
        assert reloaded.get(("good",)) == [{"a": 1}]
        assert reloaded.stats()["corrupt"] == 3

    def test_superseded_and_corrupt_counted_separately(self, tmp_path):
        """Duplicates no longer vanish into the corrupt bucket."""
        store = ResultStore(tmp_path)
        store.put(("dup",), [{"v": 1}])
        store.put(("dup",), [{"v": 2}])
        [shard] = shard_files(store)
        with open(shard, "a") as handle:
            handle.write("garbage\n")
        stats = ResultStore(tmp_path).stats()
        assert stats["superseded"] == 1
        assert stats["corrupt"] == 1
        assert stats["entries"] == 1

    def test_record_schema_stamped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(("k",), [])
        [shard] = shard_files(store)
        record = json.loads(shard.read_text())
        assert record["schema"] == STORAGE_SCHEMA
        assert record["key"] == encode_key(("k",))
        assert record["payload"] == []

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(("k",), [{"a": 1}])
        store.clear()
        assert not shard_files(store)
        assert store.get(("k",)) is None

    def test_compact_reclaims_duplicates(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(5):
            store.put(("k",), [{"round": i}])
        report = store.compact()
        assert report.dropped_superseded == 4
        fresh = ResultStore(tmp_path)
        assert fresh.get(("k",)) == [{"round": 4}]
        assert fresh.stats()["superseded"] == 0

    def test_no_cache_disables_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert active_store() is None


class TestCrashRecovery:
    """A shard torn mid-line loses one record, never the store."""

    def test_torn_tail_skipped_compacted_and_warm_identical(
            self, fresh_harness):
        cold = results_for(GRAPHITE)
        shard = shard_files(active_store())[0]
        data = shard.read_bytes()
        shard.write_bytes(data[:-9])  # crash mid-record

        _forget_memory()
        recomputed = results_for(GRAPHITE)
        assert recomputed == cold  # the torn entry is never served
        stats = active_store().stats()
        assert stats["corrupt"] == 1
        # the torn request is recomputed, the other two are served
        assert (stats["hits"], stats["writes"]) == (2, 1)

        report = active_store().compact()
        assert report.dropped_corrupt == 1

        _forget_memory()
        warm = results_for(GRAPHITE)
        assert warm == cold
        stats = active_store().stats()
        assert stats["hits"] == 3  # one record per benchmark
        assert stats["corrupt"] == 0  # the shard was repaired


def _stress_writer(root, worker, rounds):
    store = ResultStore(root)
    for i in range(rounds):
        store.put(("contested",), [{"worker": worker, "i": i}])
        store.put(("own", worker, i), [{"ok": True}])


class TestAtomicAppends:
    def test_multiprocess_puts_never_tear(self, tmp_path):
        """Satellite: the ``put`` lost-update race.  Concurrent
        processes appending the same key must produce whole lines only
        — one writer wins, none interleave fragments."""
        workers = [multiprocessing.get_context().Process(
            target=_stress_writer, args=(str(tmp_path), w, 15))
            for w in range(4)]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join()
        assert all(proc.exitcode == 0 for proc in workers)

        store = ResultStore(tmp_path)
        for shard in shard_files(store):
            data = shard.read_bytes()
            assert data.endswith(b"\n")
            for raw in data.splitlines():
                assert json.loads(raw)["schema"] == STORAGE_SCHEMA
        stats = store.stats()
        assert stats["corrupt"] == 0
        assert stats["entries"] == 1 + 4 * 15
        [final] = store.get(("contested",))
        assert final["worker"] in range(4) and final["i"] in range(15)


class TestHarnessStore:
    def test_warm_hit_identical(self, fresh_harness):
        cold = results_for(GRAPHITE)
        assert active_store().stats()["writes"] == 3
        _forget_memory()
        warm = results_for(GRAPHITE)
        assert warm == cold
        stats = active_store().stats()
        assert (stats["hits"], stats["writes"]) == (3, 0)

    def test_plan_records_serve_single_requests(self, fresh_harness):
        """A suite plan and ``OptimizerSession.optimize`` share one
        record per request: the plan's run warms the single call."""
        results_for(GRAPHITE)
        bench = suites()["polybench"].benchmarks[0]
        # the compiler default time limit is the plan's 600 s
        request = OptimizationRequest.make(
            bench.program, bench.perf, system="compiler",
            optimizer="graphite")
        warm = OptimizerSession().optimize(request)
        assert warm.from_cache
        cold = OptimizerSession().optimize(request, use_store=False)
        assert not cold.from_cache
        assert json.dumps(warm.to_json_dict(), sort_keys=True) == \
            json.dumps(cold.to_json_dict(), sort_keys=True)

    def test_no_cache_bypasses_store(self, fresh_harness, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        results_for(GRAPHITE)
        assert not (fresh_harness / "store").exists()

    def test_corrupt_store_recomputed(self, fresh_harness):
        cold = results_for(GRAPHITE)
        for shard in shard_files(active_store()):
            shard.write_text(shard.read_text().replace(
                '"system_label":', '"label":'))
        _forget_memory()
        assert results_for(GRAPHITE) == cold
        assert active_store().stats()["hits"] == 0

    def test_code_change_invalidates_key(self, fresh_harness,
                                         monkeypatch):
        keys_before = _plan_keys(GRAPHITE)
        monkeypatch.setattr(store_module, "_CODE_SIGNATURE", "deadbeef")
        assert all(after != before for after, before
                   in zip(_plan_keys(GRAPHITE), keys_before))

    def test_serve_modules_do_not_feed_code_signature(self,
                                                      monkeypatch):
        # daemon defaults reach a result only through the echoed
        # request and the session spec, both in the request key
        hashed = []
        read_bytes = Path.read_bytes

        def recording(path):
            hashed.append(path.as_posix())
            return read_bytes(path)

        monkeypatch.setattr(store_module, "_CODE_SIGNATURE", None)
        monkeypatch.setattr(Path, "read_bytes", recording)
        store_module.code_signature()
        assert any(p.endswith("/repro/pipeline/generation.py")
                   for p in hashed)
        assert not [p for p in hashed if "/repro/serve/" in p]
        for guard in ("api/resilience.py", "testing/faults.py"):
            assert not [p for p in hashed if p.endswith("/repro/" + guard)]

    def test_every_request_module_is_classified(self, tmp_path):
        """Each ``repro`` module a looprag, a basellm and a compiler
        request import is allowlisted or named non-result, not both."""
        script = (
            "import json, sys\n"
            "from repro.api import OptimizationRequest, OptimizerSession\n"
            "from repro.evaluation.harness import suites\n"
            "bench = suites()['tsvc'].benchmarks[0]\n"
            "session = OptimizerSession(dataset_size=30)\n"
            "for system, extra in (('looprag', {'persona': 'deepseek'}),\n"
            "                      ('basellm', {'persona': 'gpt4'}),\n"
            "                      ('compiler', {'optimizer': 'pluto'})):\n"
            "    session.optimize(OptimizationRequest.make(\n"
            "        bench.program, bench.perf, bench.test,\n"
            "        system=system, **extra))\n"
            "print(json.dumps(sorted(\n"
            "    m.__file__ for name, m in sys.modules.items()\n"
            "    if name.split('.')[0] == 'repro')))\n")
        src = Path(store_module.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src),
                   REPRO_CACHE_DIR=str(tmp_path))
        env.pop("REPRO_NO_CACHE", None)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        root = src / "repro"
        modules = [Path(f).resolve().relative_to(root).as_posix()
                   for f in json.loads(out.stdout.splitlines()[-1])]
        assert "pipeline/generation.py" in modules
        doc = store_module.code_signature.__doc__

        def named(rel):
            package = rel.rsplit("/", 1)[0] + "/" if "/" in rel else None
            return (f"``{rel}``" in doc
                    or package is not None and f"``{package}``" in doc)

        allowed = [rel for rel in modules
                   if rel.startswith(store_module._RESULT_MODULES)]
        assert not [rel for rel in allowed if named(rel)]
        assert [rel for rel in modules
                if rel not in allowed and not named(rel)] == []

    def test_smaller_suite_limit_served_from_store(self, fresh_harness,
                                                   monkeypatch):
        """``REPRO_SUITE_LIMIT`` is in no key: a ``--limit 2`` run
        reads the records a ``--limit 3`` run wrote."""
        cold = results_for(GRAPHITE)
        _forget_memory()
        monkeypatch.setenv("REPRO_SUITE_LIMIT", "2")
        assert results_for(GRAPHITE) == cold[:2]
        stats = active_store().stats()
        assert (stats["hits"], stats["writes"]) == (2, 0)


class TestParallelRunner:
    PLANS = staticmethod(lambda: [
        looprag_plan("polybench", DEEPSEEK_V3, dataset_size=30),
        base_llm_plan("polybench", GPT_4O),
        compiler_plan("polybench", "pluto"),
        compiler_plan("tsvc", "icx"),
    ])

    def test_pool_matches_serial_across_systems(self, fresh_harness,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        serial = run_plans(self.PLANS(), jobs=1)
        _forget_memory()
        pooled = run_plans(self.PLANS(), jobs=4)
        assert pooled == serial

    def test_process_pool_matches_serial(self, fresh_harness,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        serial = run_plans([compiler_plan("polybench", "pluto"),
                            compiler_plan("polybench", "icx")], jobs=1)
        _forget_memory()
        forked = run_plans([compiler_plan("polybench", "pluto"),
                            compiler_plan("polybench", "icx")],
                           jobs=2)
        assert forked == serial

    def test_parallel_populates_store(self, fresh_harness):
        run_plans(self.PLANS()[2:], jobs=2)
        _forget_memory()
        warm = run_plans(self.PLANS()[2:], jobs=1)
        assert active_store().stats()["hits"] == 6  # 2 plans x 3 kernels
        assert [r.suite for rs in warm for r in rs] == \
            ["polybench"] * 3 + ["tsvc"] * 3

    def test_failure_keeps_completed_plans(self, fresh_harness,
                                           monkeypatch):
        real = OptimizerSession._execute

        def flaky(session, request):
            if request.optimizer == "icx":
                raise RuntimeError("boom")
            return real(session, request)

        monkeypatch.setattr(OptimizerSession, "_execute", flaky)
        good = compiler_plan("polybench", "graphite")
        bad = compiler_plan("polybench", "icx")
        # the worker's exception arrives as the supervisor's relayed
        # failure, naming the original type
        with pytest.raises(Exception, match="boom") as failure:
            run_plans([bad, good], jobs=2)
        assert failure.value.remote_type == "RuntimeError"
        store = active_store()
        assert all(store.contains(key) for key in _plan_keys(good))
        assert not any(store.contains(key) for key in _plan_keys(bad))

    def test_optimize_many_failure_keeps_later_results(
            self, fresh_harness, monkeypatch):
        """Request 0 raising must not discard requests 1..n, which
        complete after it in the pool."""
        real = OptimizerSession._execute

        def flaky(session, request):
            if request.tag == "bad":
                raise RuntimeError("boom")
            return real(session, request)

        monkeypatch.setattr(OptimizerSession, "_execute", flaky)
        session = OptimizerSession()
        requests = [OptimizationRequest.make(
            bench.program, bench.perf, system="compiler",
            optimizer="graphite", tag="bad" if i == 0 else None)
            for i, bench in enumerate(suites()["polybench"])]
        with pytest.raises(Exception, match="boom") as failure:
            session.optimize_many(requests, jobs=2)
        assert failure.value.remote_type == "RuntimeError"
        store = active_store()
        assert not store.contains(session._request_key(requests[0]))
        assert all(store.contains(session._request_key(r))
                   for r in requests[1:])
        assert store.stats()["writes"] == len(requests) - 1

    def test_sigkilled_worker_costs_only_its_request(self, fresh_harness,
                                                     monkeypatch):
        """A worker killed mid-request fails the batch with
        ``WorkerCrashed``, and the 7 other requests are persisted."""
        monkeypatch.delenv("REPRO_SUITE_LIMIT")
        _kill_worker_on(monkeypatch, lambda request: request.tag == "kill")
        session = OptimizerSession()
        requests = [OptimizationRequest.make(
            bench.program, bench.perf, system="compiler",
            optimizer="graphite", tag="kill" if i == 3 else None)
            for i, bench in enumerate(suites()["polybench"].benchmarks[:8])]
        with pytest.raises(WorkerCrashed):
            session.optimize_many(requests, jobs=2)
        store = active_store()
        assert not store.contains(session._request_key(requests[3]))
        healthy = requests[:3] + requests[4:]
        assert sum(store.contains(session._request_key(r))
                   for r in healthy) == 7

    def test_run_plans_after_worker_crash_matches_serial(
            self, fresh_harness, monkeypatch):
        """A retry without the fault completes the plans a crash cut
        short, equal to a serial run."""
        monkeypatch.setenv("REPRO_JOBS", "2")
        plans = [compiler_plan("polybench", "graphite"),
                 compiler_plan("polybench", "pluto")]
        undo = _kill_worker_on(monkeypatch,
                               lambda request: request.optimizer == "pluto")
        with pytest.raises(WorkerCrashed):
            run_plans(plans)
        undo()
        retried = run_plans(plans)
        _forget_memory()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert retried == run_plans(plans, jobs=1)

    def test_repeated_plans_deduplicated(self, fresh_harness):
        plan = compiler_plan("polybench", "graphite")
        a, b = run_plans([plan, plan], jobs=1)
        assert a is b


class TestBenchReport:
    def test_report_is_deterministic_json(self, fresh_harness):
        from repro.evaluation.reporting import bench_report, render_json

        plan = compiler_plan("polybench", "graphite")
        first = render_json(bench_report(
            [(plan.label(), plan.suite, run_plans([plan])[0])]))
        _forget_memory()
        second = render_json(bench_report(
            [(plan.label(), plan.suite, run_plans([plan])[0])]))
        assert first == second
        assert json.loads(first)["runs"][0]["system"] == "graphite"
