"""Persistent result store + parallel runner tests.

Covers the PR-1 harness rebuild on its PR-6 storage rebase: warm-cache
hits return identical ``BenchResult`` lists through the sharded
artifact store, ``REPRO_NO_CACHE`` bypasses the store, corrupt and
superseded lines are counted separately, torn shard tails are skipped
and repaired by compaction, concurrent-process
appends never tear, and parallel runs are identical to serial ones on a
``REPRO_SUITE_LIMIT=3`` sweep.
"""

import json
import multiprocessing
import os

import pytest

from repro.evaluation import harness
from repro.evaluation import store as store_module
from repro.evaluation.harness import (base_llm_plan, compiler_plan,
                                      looprag_plan, run_compiler,
                                      run_plans)
from repro.evaluation.parallel import map_items, resolve_pool
from repro.evaluation.store import (RESULTS_STREAM, ResultStore,
                                    active_store, encode_key)
from repro.llm.personas import DEEPSEEK_V3, GPT_4O
from repro.registry import UnknownComponentError
from repro.storage import STORAGE_SCHEMA


@pytest.fixture
def fresh_harness(monkeypatch, tmp_path):
    """Empty store in a tmp dir + cleared in-memory caches."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    # inherit an ambient REPRO_STORE_BACKEND (the CI store-stress matrix
    # sets it); default to the sharded on-disk backend
    monkeypatch.setenv("REPRO_STORE_BACKEND",
                       os.environ.get("REPRO_STORE_BACKEND") or "local")
    monkeypatch.setenv("REPRO_SUITE_LIMIT", "3")
    harness._RUN_CACHE.clear()
    harness._RUNNER_CACHE.clear()
    store_module._STORES.clear()
    yield tmp_path
    harness._RUN_CACHE.clear()
    harness._RUNNER_CACHE.clear()
    store_module._STORES.clear()


def _forget_memory():
    """Simulate a new process: drop every in-memory layer."""
    harness._RUN_CACHE.clear()
    harness._RUNNER_CACHE.clear()
    store_module._STORES.clear()


def require_on_disk(store: ResultStore) -> None:
    """Skip scenarios that hand-edit shard files or cross processes
    when the configured backend keeps entries in memory."""
    if not store.artifacts().on_disk:
        pytest.skip("scenario needs the on-disk sharded backend")


def shard_files(store: ResultStore):
    """Non-empty shard files behind the results stream."""
    require_on_disk(store)
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

    def test_memory_backend(self, tmp_path):
        store = ResultStore(tmp_path, backend="memory")
        store.put(("k",), [{"a": 1}])
        assert store.get(("k",)) == [{"a": 1}]
        assert not (tmp_path / "store").exists()  # nothing on disk
        # per-root world: a second instance over the same root sees it
        assert ResultStore(tmp_path, backend="memory").get(
            ("k",)) == [{"a": 1}]

    def test_unknown_backend_rejected(self, tmp_path):
        store = ResultStore(tmp_path, backend="s3-someday")
        with pytest.raises(UnknownComponentError, match="local"):
            store.get(("k",))


class TestCrashRecovery:
    """A shard torn mid-line loses one record, never the store."""

    def test_torn_tail_skipped_compacted_and_warm_identical(
            self, fresh_harness):
        cold = run_compiler("polybench", "graphite")
        store = active_store()
        replicated = hasattr(store.artifacts(), "children")
        [shard] = shard_files(store)  # the primary's, when replicated
        data = shard.read_bytes()
        shard.write_bytes(data[:-9])  # crash mid-record

        _forget_memory()
        recomputed = run_compiler("polybench", "graphite")
        assert recomputed == cold  # the torn entry is never served
        stats = active_store().stats()
        assert stats["corrupt"] == 1
        if replicated:
            # a healthy replica serves the value and read-repairs the
            # torn primary — recovery without recomputation
            assert stats["hits"] == 1
        else:
            assert stats["hits"] == 0  # recomputed, not served

        report = active_store().compact()
        assert report.dropped_corrupt == 1

        _forget_memory()
        warm = run_compiler("polybench", "graphite")
        assert warm == cold
        stats = active_store().stats()
        assert stats["hits"] == 1
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
        require_on_disk(ResultStore(tmp_path))
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
        cold = run_compiler("polybench", "graphite")
        _forget_memory()
        warm = run_compiler("polybench", "graphite")
        assert warm == cold
        assert active_store().stats()["hits"] == 1

    def test_no_cache_bypasses_store(self, fresh_harness, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        run_compiler("polybench", "graphite")
        assert not (fresh_harness / "store").exists()

    def test_corrupt_store_recomputed(self, fresh_harness):
        cold = run_compiler("polybench", "graphite")
        [shard] = shard_files(active_store())
        shard.write_text(shard.read_text().replace('"payload":[{',
                                                   '"payload":[{"bad":1,'))
        _forget_memory()
        assert run_compiler("polybench", "graphite") == cold

    def test_code_change_invalidates_key(self, fresh_harness,
                                         monkeypatch):
        key_before = compiler_plan("polybench", "graphite").key()
        monkeypatch.setattr(store_module, "_CODE_SIGNATURE", "deadbeef")
        assert compiler_plan("polybench", "graphite").key() != key_before

    def test_suite_limit_part_of_key(self, fresh_harness, monkeypatch):
        key_3 = compiler_plan("polybench", "graphite").key()
        monkeypatch.setenv("REPRO_SUITE_LIMIT", "2")
        assert compiler_plan("polybench", "graphite").key() != key_3


class TestParallelRunner:
    PLANS = staticmethod(lambda: [
        looprag_plan("polybench", DEEPSEEK_V3, dataset_size=30),
        base_llm_plan("polybench", GPT_4O),
        compiler_plan("polybench", "pluto"),
        compiler_plan("tsvc", "icx"),
    ])

    def test_thread_pool_matches_serial(self, fresh_harness,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        serial = run_plans(self.PLANS(), jobs=1)
        _forget_memory()
        threaded = run_plans(self.PLANS(), jobs=4, pool="thread")
        assert threaded == serial

    def test_process_pool_matches_serial(self, fresh_harness,
                                         monkeypatch):
        if "process" != resolve_pool("auto"):
            pytest.skip("no fork start method on this platform")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        serial = run_plans([compiler_plan("polybench", "pluto"),
                            compiler_plan("polybench", "icx")], jobs=1)
        _forget_memory()
        forked = run_plans([compiler_plan("polybench", "pluto"),
                            compiler_plan("polybench", "icx")],
                           jobs=2, pool="process")
        assert forked == serial

    def test_parallel_populates_store(self, fresh_harness):
        run_plans(self.PLANS()[2:], jobs=2, pool="thread")
        _forget_memory()
        warm = run_plans(self.PLANS()[2:], jobs=1)
        assert active_store().stats()["hits"] == 2
        assert [r.suite for rs in warm for r in rs] == \
            ["polybench"] * 3 + ["tsvc"] * 3

    def test_failure_keeps_completed_plans(self, fresh_harness,
                                           monkeypatch):
        real = harness._execute_item

        def flaky(item):
            if item[0].optimizer == "icx":
                raise RuntimeError("boom")
            return real(item)

        monkeypatch.setattr(harness, "_execute_item", flaky)
        good = compiler_plan("polybench", "graphite")
        bad = compiler_plan("polybench", "icx")
        with pytest.raises(RuntimeError):
            run_plans([good, bad], jobs=2, pool="thread")
        assert active_store().contains(good.key())
        assert not active_store().contains(bad.key())

    def test_repeated_plans_deduplicated(self, fresh_harness):
        plan = compiler_plan("polybench", "graphite")
        a, b = run_plans([plan, plan], jobs=1)
        assert a is b

    def test_map_items_preserves_order(self):
        items = list(range(20))
        assert map_items(lambda x: x * x, items, jobs=4,
                         pool="thread") == [x * x for x in items]

    def test_map_items_serial_fallback(self):
        assert map_items(lambda x: -x, [1, 2, 3], jobs=1) == [-1, -2, -3]

    def test_resolve_pool_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_pool("ponies")


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
