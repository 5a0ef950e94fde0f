"""Conformance suite for the artifact-store contract.

One suite, two stores: each scenario is parametrized over the sharded
local store production code opens and the in-memory executable spec,
so both must answer put/get/overwrite/delete/compaction/corruption/
concurrency questions identically.  Scenarios that require real files
(corruption injection, cross-process writers, external compaction) key
off the store's ``on_disk`` capability flag.
"""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro.storage import (STORAGE_SCHEMA, InMemoryStore,
                           LocalShardedStore, StoreError, shard_of)

#: store name -> factory(root); ``local`` is checked against ``memory``
FACTORIES = {"local": LocalShardedStore, "memory": InMemoryStore}


@pytest.fixture(params=sorted(FACTORIES))
def backend(request):
    return request.param


@pytest.fixture
def store(backend, tmp_path):
    return FACTORIES[backend](str(tmp_path / "store"))


def reopen(store):
    """A second instance over the same root (fresh index, same data)."""
    return FACTORIES[store.name](store.root)


# ----------------------------------------------------------------------
# basic stream semantics
# ----------------------------------------------------------------------
class TestBasics:
    def test_roundtrip(self, store):
        store.append("s", "k", {"x": 1})
        assert store.read("s", "k") == {"x": 1}
        assert store.read("s", "missing") is None
        assert store.contains("s", "k")
        assert not store.contains("s", "missing")

    def test_open_empty_stream(self, store):
        stats = store.open("s")
        assert stats.entries == 0
        assert store.list("s") == ()

    def test_overwrite_last_write_wins(self, store):
        for i in range(5):
            store.append("s", "k", [i])
        assert store.read("s", "k") == [4]
        assert store.stream_stats("s").superseded == 4
        assert store.stream_stats("s").entries == 1

    def test_list_sorted(self, store):
        for key in ("b", "a", "c"):
            store.append("s", key, key)
        assert store.list("s") == ("a", "b", "c")

    def test_delete(self, store):
        store.append("s", "k", 1)
        assert store.delete("s", "k") is True
        assert store.read("s", "k") is None
        assert not store.contains("s", "k")
        assert store.delete("s", "k") is False  # idempotent no-op
        assert store.delete("s", "never-existed") is False

    def test_put_after_delete_revives(self, store):
        store.append("s", "k", "old")
        store.delete("s", "k")
        store.append("s", "k", "new")
        assert store.read("s", "k") == "new"
        assert reopen(store).read("s", "k") == "new"

    def test_streams_isolated(self, store):
        store.append("a", "k", "in-a")
        store.append("b", "k", "in-b")
        assert store.read("a", "k") == "in-a"
        assert store.read("b", "k") == "in-b"
        store.delete("a", "k")
        assert store.read("a", "k") is None
        assert store.read("b", "k") == "in-b"
        assert store.streams() == ("a", "b")

    def test_drop_stream(self, store):
        store.append("a", "k", 1)
        store.append("b", "k", 2)
        store.drop("a")
        assert store.read("a", "k") is None
        assert store.read("b", "k") == 2
        assert "a" not in store.streams()


# ----------------------------------------------------------------------
# payload fidelity
# ----------------------------------------------------------------------
class TestPayloads:
    NESTED = {"unicode": "héllo ☃", "nested": [1, {"a": [None]}],
              "float": 1.5, "neg": -0.125, "big": 2 ** 40,
              "bool": True, "empty": [], "text": "line\nbreak\ttab"}

    def test_nested_payload_roundtrip(self, store):
        store.append("s", "k", self.NESTED)
        assert store.read("s", "k") == self.NESTED
        assert reopen(store).read("s", "k") == self.NESTED

    def test_payloads_are_json_round_trips(self, store):
        """Backends return equal *copies*, like any store with real I/O."""
        payload = {"a": [1, 2]}
        store.append("s", "k", payload)
        got = store.read("s", "k")
        assert got == payload
        got["a"].append(3)  # mutating the copy must not leak back
        assert store.read("s", "k") == {"a": [1, 2]}

    def test_non_serializable_payload_rejected(self, store):
        with pytest.raises(TypeError):
            store.append("s", "k", object())
        assert store.read("s", "k") is None  # nothing half-written

    def test_empty_and_weird_keys(self, store):
        for key in ("", " ", "a/b", '["json",1]', "ünïcode"):
            store.append("s", key, {"key": key})
        for key in ("", " ", "a/b", '["json",1]', "ünïcode"):
            assert store.read("s", key) == {"key": key}
        fresh = reopen(store)
        assert fresh.list("s") == tuple(
            sorted(("", " ", "a/b", '["json",1]', "ünïcode")))


# ----------------------------------------------------------------------
# persistence across instances
# ----------------------------------------------------------------------
class TestPersistence:
    def test_survives_reopen(self, store):
        store.append("s", "k", [1, 2])
        assert reopen(store).read("s", "k") == [1, 2]

    def test_overwrites_survive_reopen(self, store):
        store.append("s", "k", "old")
        store.append("s", "k", "new")
        fresh = reopen(store)
        assert fresh.read("s", "k") == "new"
        assert fresh.stream_stats("s").superseded == 1

    def test_delete_survives_reopen(self, store):
        store.append("s", "k", 1)
        store.delete("s", "k")
        fresh = reopen(store)
        assert fresh.read("s", "k") is None
        assert fresh.stream_stats("s").tombstones == 1

    def test_distinct_roots_isolated(self, backend, tmp_path):
        a = FACTORIES[backend](str(tmp_path / "a"))
        b = FACTORIES[backend](str(tmp_path / "b"))
        a.append("s", "k", "a")
        assert b.read("s", "k") is None


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
class TestCompaction:
    def test_compaction_preserves_live_entries(self, store):
        for i in range(20):
            store.append("s", f"k{i % 5}", {"round": i})
        store.delete("s", "k4")
        before = {key: store.read("s", key) for key in store.list("s")}
        report = store.compact("s")
        assert report.kept == 4
        assert report.dropped_superseded == 15 + 1  # overwrites + delete
        assert report.dropped_tombstones == 1
        after = {key: store.read("s", key) for key in store.list("s")}
        assert after == before
        # a fresh instance over the compacted data agrees
        fresh = reopen(store)
        assert {k: fresh.read("s", k) for k in fresh.list("s")} == before

    def test_compaction_resets_waste_counters(self, store):
        store.append("s", "k", 1)
        store.append("s", "k", 2)
        store.delete("s", "k")
        store.compact("s")
        stats = store.stream_stats("s")
        assert stats.superseded == 0
        assert stats.tombstones == 0
        assert stats.corrupt == 0
        assert stats.entries == 0

    def test_compact_empty_stream(self, store):
        report = store.compact("s")
        assert report.kept == 0
        assert report.dropped == 0

    def test_compaction_shrinks_files(self, store):
        if not store.on_disk:
            pytest.skip("no files to shrink")
        for i in range(50):
            store.append("s", "hot-key", {"i": i, "pad": "x" * 200})
        before = store.stream_stats("s").bytes
        store.compact("s")
        after = store.stream_stats("s").bytes
        assert after < before / 10


# ----------------------------------------------------------------------
# corruption containment (file backends)
# ----------------------------------------------------------------------
class TestCorruption:
    @pytest.fixture(autouse=True)
    def _on_disk_only(self, store):
        if not store.on_disk:
            pytest.skip("corruption injection needs real files")

    def _single_shard(self, store, stream):
        [path] = [p for p in store.shard_paths(stream)
                  if p.stat().st_size]
        return path

    def test_garbage_lines_skipped_and_counted(self, store):
        store.append("s", "good", {"a": 1})
        path = self._single_shard(store, "s")
        with open(path, "a") as handle:
            handle.write("{not json\n")
            handle.write(json.dumps({"schema": 999, "key": "x",
                                     "payload": 1}) + "\n")
            handle.write(json.dumps({"missing": "fields"}) + "\n")
        fresh = reopen(store)
        assert fresh.read("s", "good") == {"a": 1}
        assert fresh.stream_stats("s").corrupt == 3

    def test_truncated_tail_skipped(self, store):
        """A mid-line crash loses only the torn record."""
        store.append("s", "k1", {"a": 1})
        store.append("s", "k1", {"a": 2})
        path = self._single_shard(store, "s")
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the last record mid-payload
        fresh = reopen(store)
        assert fresh.read("s", "k1") == {"a": 1}  # previous write wins
        assert fresh.stream_stats("s").corrupt == 1

    def test_append_after_torn_tail_heals_missing_newline(self, store):
        """An append onto a crashed shard must not fuse with the torn
        fragment — the new record gets its own line."""
        store.append("s", "k1", {"a": 1})
        path = self._single_shard(store, "s")
        path.write_bytes(path.read_bytes()[:-5])  # tear, drop newline
        healed = reopen(store)
        healed.append("s", "k1", {"b": 2})  # same key -> same shard
        assert healed.read("s", "k1") == {"b": 2}
        fresh = reopen(store)
        assert fresh.read("s", "k1") == {"b": 2}
        assert fresh.stream_stats("s").corrupt == 1  # just the fragment

    def test_compaction_repairs_corruption(self, store):
        store.append("s", "good", {"a": 1})
        path = self._single_shard(store, "s")
        with open(path, "a") as handle:
            handle.write('{"torn": tru')  # no newline: torn tail
        fresh = reopen(store)
        report = fresh.compact("s")
        assert report.dropped_corrupt == 1
        assert fresh.read("s", "good") == {"a": 1}
        # after the rewrite the shard is pristine for the next scanner
        again = reopen(store)
        assert again.stream_stats("s").corrupt == 0
        assert again.read("s", "good") == {"a": 1}

    def test_corrupt_line_inside_shard_does_not_shadow_later_lines(
            self, store):
        store.append("s", "k1", 1)
        path = self._single_shard(store, "s")
        with open(path, "a") as handle:
            handle.write("garbage garbage\n")
        store2 = reopen(store)
        store2.append("s", "k2", 2)
        fresh = reopen(store)
        live = {k: fresh.read("s", k) for k in fresh.list("s")}
        assert live.get("k1") == 1
        assert live.get("k2") == 2


# ----------------------------------------------------------------------
# sharding (local backend specifics)
# ----------------------------------------------------------------------
class TestSharding:
    def test_keys_spread_across_shards(self, tmp_path):
        store = LocalShardedStore(tmp_path / "s", shards=8)
        for i in range(64):
            store.append("s", f"key-{i}", i)
        assert len(store.shard_paths("s")) > 1
        assert sorted(store.list("s")) == sorted(
            f"key-{i}" for i in range(64))

    def test_key_always_lands_in_its_digest_shard(self, tmp_path):
        store = LocalShardedStore(tmp_path / "s", shards=8)
        store.append("s", "some-key", 1)
        expected = store.shard_path("s", shard_of("some-key", 8))
        assert expected.exists()
        assert b"some-key" in expected.read_bytes()

    def test_meta_pins_shard_count(self, tmp_path):
        """Reconfiguring shard counts must not re-home existing keys."""
        first = LocalShardedStore(tmp_path / "s", shards=2)
        for i in range(16):
            first.append("s", f"key-{i}", i)
        # a differently-configured process appends to the same store
        second = LocalShardedStore(tmp_path / "s", shards=64)
        second.append("s", "key-0", "updated")
        assert len(second.shard_paths("s")) <= 2  # pinned by meta.json
        fresh = LocalShardedStore(tmp_path / "s", shards=64)
        assert fresh.read("s", "key-0") == "updated"
        assert len(fresh.list("s")) == 16

    def test_rejects_bad_stream_names(self, tmp_path):
        store = LocalShardedStore(tmp_path / "s")
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                store.append(bad, "k", 1)

    def test_rejects_bad_shard_counts(self, tmp_path):
        for bad in (0, -1, 257):
            with pytest.raises(ValueError):
                LocalShardedStore(tmp_path / "s", shards=bad)

    def test_stale_index_recovers_after_external_compaction(
            self, tmp_path):
        """Offsets move under a reader when another process compacts."""
        writer = LocalShardedStore(tmp_path / "s")
        for i in range(10):
            writer.append("s", "churn", {"i": i})
            writer.append("s", "stable", {"i": i})
        reader = LocalShardedStore(tmp_path / "s")
        assert reader.read("s", "stable") == {"i": 9}  # index built
        writer.compact("s")  # offsets in reader's index are now stale
        assert reader.read("s", "stable") == {"i": 9}
        assert reader.read("s", "churn") == {"i": 9}


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def _mp_writer(root, backend, worker, rounds):
    store = FACTORIES[backend](root)
    for i in range(rounds):
        # every worker hammers the SAME keys: the lost-update scenario
        store.append("s", f"key-{i % 4}", {"worker": worker, "i": i})
        store.append("s", f"own-{worker}-{i}", i)


class TestConcurrency:
    def test_threaded_writers_all_land(self, store):
        def work(worker):
            for i in range(25):
                store.append("s", f"w{worker}-k{i}", [worker, i])
        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store.list("s")) == 8 * 25
        fresh = reopen(store)
        for worker in range(8):
            for i in range(25):
                assert fresh.read("s", f"w{worker}-k{i}") == [worker, i]
        assert fresh.stream_stats("s").corrupt == 0

    def test_threaded_same_key_overwrites_are_whole(self, store):
        """Concurrent writers to ONE key: some write wins, none tears."""
        def work(worker):
            for i in range(20):
                store.append("s", "contested", {"w": worker, "i": i})
        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        final = store.read("s", "contested")
        assert final["w"] in range(6) and final["i"] in range(20)
        stats = reopen(store).stream_stats("s")
        assert stats.corrupt == 0
        assert stats.superseded == 6 * 20 - 1

    def test_multiprocess_writers_never_tear_lines(self, store):
        """Satellite: concurrent processes appending the same keys must
        interleave whole records (O_APPEND + one write), never torn
        fragments."""
        if not store.on_disk:
            pytest.skip("cross-process visibility needs real files")
        ctx = multiprocessing.get_context()
        workers = [ctx.Process(target=_mp_writer,
                               args=(store.root, store.name, w, 20))
                   for w in range(4)]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join()
        assert all(proc.exitcode == 0 for proc in workers)
        # every raw line in every shard decodes: no torn appends
        fresh = reopen(store)
        for path in fresh.shard_paths("s"):
            data = path.read_bytes()
            assert data.endswith(b"\n")
            for raw in data.splitlines():
                record = json.loads(raw)
                assert record["schema"] == STORAGE_SCHEMA
        assert fresh.stream_stats("s").corrupt == 0
        # contested keys hold one of the written values; own keys all
        for i in range(4):
            value = fresh.read("s", f"key-{i}")
            assert value["worker"] in range(4)
        for worker in range(4):
            for i in range(20):
                assert fresh.read("s", f"own-{worker}-{i}") == i

    def test_short_write_raises_instead_of_tearing(self, store,
                                                   monkeypatch):
        """The atomic-append invariant is checked, not assumed: a short
        ``write()`` surfaces as StoreError rather than a torn prefix."""
        if not isinstance(store, LocalShardedStore):
            pytest.skip("spec backend has no write syscalls")
        import os as os_module

        real_write = os_module.write
        monkeypatch.setattr("repro.storage.local.os.write",
                            lambda fd, data: real_write(fd, data[:3]))
        with pytest.raises(StoreError):
            store.append("s", "k", {"a": 1})
