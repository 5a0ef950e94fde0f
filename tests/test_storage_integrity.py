"""End-to-end data integrity for the artifact plane.

Contract under test: every stored record carries a crc32 envelope;
readers never serve a record whose checksum fails (the key reads as
missing and the damage is counted); ``repro store verify`` pinpoints
corrupt/torn/mismatched lines with shard+offset diagnostics and
``--repair`` heals them by compaction.  The hypothesis bit-rot property
at the bottom is the headline: flip any single bit of any shard and no
reader ever returns altered data.
"""

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.storage import (INTEGRITY, LocalShardedStore, record_crc,
                           record_crc_ok, verify_store)
from repro.testing.faults import (FaultClause, FaultPlan, corrupt_data,
                                  install_plan)


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_STORE_VERIFY", raising=False)
    install_plan(None)
    yield
    install_plan(None)


def _shard_lines(store, stream):
    """[(path, line_index, decoded record), ...] over raw shard files."""
    out = []
    for path in store.shard_paths(stream):
        for i, line in enumerate(path.read_text().splitlines()):
            if line.strip():
                out.append((path, i, json.loads(line)))
    return out


def _stale_crc(store, stream, key, tampered=("tampered",)):
    """Rewrite ``key``'s newest stored line: new payload, old crc."""
    target = None
    for path, index, record in _shard_lines(store, stream):
        if record.get("key") == key and not record.get("tombstone"):
            target = (path, index, record)
    assert target is not None, f"no stored line for {key!r}"
    path, index, record = target
    record["payload"] = list(tampered)
    lines = path.read_text().splitlines()
    lines[index] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    store.refresh(stream)


# ----------------------------------------------------------------------
# the crc envelope
# ----------------------------------------------------------------------
class TestEnvelope:
    def test_puts_and_tombstones_carry_matching_crcs(self, tmp_path):
        store = LocalShardedStore(tmp_path, shards=2)
        store.append("s", "k", {"a": 1})
        store.append("s", "gone", 7)
        store.delete("s", "gone")
        for _path, _i, record in _shard_lines(store, "s"):
            assert isinstance(record["crc"], int)
            assert record_crc_ok(record)
            if record.get("tombstone"):
                assert record["crc"] == record_crc("gone",
                                                   tombstone=True)
        assert record_crc("k", {"a": 1}) != record_crc("k", {"a": 2})

    def test_lines_without_crc_are_rejected(self, tmp_path):
        # every writer stamps the envelope: a line without one has lost
        # its crc to damage and must not be served
        store = LocalShardedStore(tmp_path, shards=1)
        store.append("s", "anchor", 0)  # creates the stream dir
        path = store.shard_path("s", 0)
        with open(path, "a") as handle:
            handle.write(json.dumps({"schema": 1, "key": "old",
                                     "payload": [1, 2]}) + "\n")
        store.refresh("s")
        assert store.read("s", "old") is None
        assert store.stream_stats("s").mismatched == 1
        assert store.read("s", "anchor") == 0
        report = verify_store(store)
        assert not report.clean
        assert report.streams[0].mismatched == 1
        assert [i.kind for i in report.issues()] == ["mismatched"]

    def test_crc_survives_compaction(self, tmp_path):
        store = LocalShardedStore(tmp_path, shards=2)
        for i in range(8):
            store.append("s", f"k{i % 3}", {"round": i})
        store.compact("s")
        fresh = LocalShardedStore(tmp_path, shards=2)
        for _p, _i, record in _shard_lines(fresh, "s"):
            assert record_crc_ok(record)
        assert fresh.read("s", "k1") == {"round": 7}


# ----------------------------------------------------------------------
# REPRO_STORE_VERIFY
# ----------------------------------------------------------------------
class TestVerifyModes:
    def _tampered_store(self, tmp_path):
        store = LocalShardedStore(tmp_path, shards=1)
        store.append("s", "k", "v1")
        store.append("s", "k", "v2")
        _stale_crc(store, "s", "k")
        return store

    def test_read_mode_reports_the_key_missing(self, tmp_path):
        store = self._tampered_store(tmp_path)
        assert store.read("s", "k") is None  # never the tampered value
        assert store.stream_stats("s").mismatched == 1

    def test_retired_off_mode_still_verifies(self, tmp_path,
                                             monkeypatch):
        """Only ``read`` and ``paranoid`` exist; anything else reads
        like ``read``, so no setting serves an unchecked record."""
        store = self._tampered_store(tmp_path)
        monkeypatch.setenv("REPRO_STORE_VERIFY", "off")
        store.refresh("s")
        assert store.read("s", "k") is None

    def test_paranoid_mode_resurrects_the_previous_put(self, tmp_path,
                                                       monkeypatch):
        store = self._tampered_store(tmp_path)
        monkeypatch.setenv("REPRO_STORE_VERIFY", "paranoid")
        fresh = LocalShardedStore(tmp_path, shards=1)
        # the damaged line never wins the index: v1 is still good
        assert fresh.read("s", "k") == "v1"
        assert fresh.stream_stats("s").mismatched == 1

    def test_compaction_purges_mismatched_lines(self, tmp_path):
        store = self._tampered_store(tmp_path)
        report = store.compact("s")
        assert report.dropped_mismatched == 1
        fresh = LocalShardedStore(tmp_path, shards=1)
        assert fresh.read("s", "k") == "v1"  # restored from history
        assert verify_store(fresh).clean


# ----------------------------------------------------------------------
# stale compaction temp files (crash between write-temp and rename)
# ----------------------------------------------------------------------
class TestTmpOrphanGC:
    def test_orphans_are_reaped_on_stream_open(self, tmp_path):
        store = LocalShardedStore(tmp_path, shards=1)
        store.append("s", "k", 1)
        orphan = store.stream_dir("s") / "shard-00.jsonl.tmp.99999"
        orphan.write_text("half-written compaction output")
        foreign = store.stream_dir("s") / "notes.tmp.1"
        foreign.write_text("not ours")
        fresh = LocalShardedStore(tmp_path, shards=1)
        assert fresh.read("s", "k") == 1
        assert not orphan.exists()
        assert foreign.exists()  # only our naming scheme is reaped

    def test_orphan_gc_never_counts_as_damage(self, tmp_path):
        store = LocalShardedStore(tmp_path, shards=2)
        store.append("s", "k", "v")
        (store.stream_dir("s")
         / "shard-01.jsonl.tmp.4242").write_text("{")
        fresh = LocalShardedStore(tmp_path, shards=2)
        stats = fresh.stream_stats("s")
        assert stats.corrupt == 0 and stats.mismatched == 0
        assert verify_store(fresh).clean


# ----------------------------------------------------------------------
# corruption fault kinds
# ----------------------------------------------------------------------
class TestCorruptionFaults:
    def test_data_kinds_are_deterministic(self):
        data = b'{"schema":1,"key":"k","payload":3,"crc":9}\n'
        flip = FaultClause(site="s", kind="bitflip")
        once, twice = corrupt_data(flip, data), corrupt_data(flip, data)
        assert once == twice != data
        assert len(once) == len(data)
        diff = [i for i, (a, b) in enumerate(zip(once, data)) if a != b]
        assert len(diff) == 1
        assert bin(once[diff[0]] ^ data[diff[0]]).count("1") == 1
        assert once.endswith(b"\n")  # the framing newline is spared

        chop = FaultClause(site="s", kind="truncate", nbytes=6)
        assert corrupt_data(chop, data) == data[:-6]
        junk = FaultClause(site="s", kind="garbage")
        assert corrupt_data(junk, data).endswith(b"\n")

    def test_scheduled_bitflip_is_never_served(self, tmp_path):
        install_plan(FaultPlan.parse("store.append:bitflip:times=1"))
        store = LocalShardedStore(tmp_path, shards=1)
        store.append("s", "poisoned", {"x": 1})
        store.append("s", "healthy", {"x": 2})
        install_plan(None)
        fresh = LocalShardedStore(tmp_path, shards=1)
        assert fresh.read("s", "poisoned") is None
        assert fresh.read("s", "healthy") == {"x": 2}
        assert not verify_store(fresh).clean

# ----------------------------------------------------------------------
# the scrubber and `repro store verify`
# ----------------------------------------------------------------------
class TestScrub:
    def test_diagnostics_carry_shard_and_offset(self, tmp_path):
        store = LocalShardedStore(tmp_path, shards=1)
        store.append("s", "a", 1)
        store.append("s", "b", 2)
        _stale_crc(store, "s", "b")
        path = store.shard_path("s", 0)
        with open(path, "ab") as handle:
            handle.write(b"}}}garbage\n")
            handle.write(b'{"schema":1,"key":"torn","payload"')
        report = verify_store(store)
        kinds = {issue.kind: issue for issue in report.issues()}
        assert set(kinds) == {"mismatched", "corrupt", "torn"}
        for issue in kinds.values():
            assert issue.location == path.name
            assert issue.offset is not None
            assert issue.render()
        stream = report.streams[0]
        assert (stream.mismatched, stream.corrupt, stream.torn) \
            == (1, 1, 1)

    def test_cli_verify_detects_and_repairs(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        store_root = cache / "store"
        store = LocalShardedStore(store_root, shards=1)
        store.append("results", "k", "v1")
        store.append("results", "k", "v2")
        args = ["store", "verify", "--cache-dir", str(cache)]
        assert main(args) == 0
        capsys.readouterr()
        _stale_crc(store, "results", "k")
        assert main(args) == 1  # damage means a nonzero exit
        out = capsys.readouterr().out
        assert "mismatched" in out and "DAMAGED" in out
        assert main(args + ["--repair", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True
        assert doc["repair"]["dropped"] == 1
        fresh = LocalShardedStore(store_root, shards=1)
        assert fresh.read("results", "k") == "v1"

    def test_scrub_counters_reach_stats_and_metrics(self, tmp_path,
                                                    monkeypatch,
                                                    capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        INTEGRITY.reset()
        store = LocalShardedStore(tmp_path / "store", shards=1)
        store.append("results", "k", "v")
        _stale_crc(store, "results", "k")
        assert main(["store", "verify"]) == 1
        capsys.readouterr()
        assert main(["store", "stats", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["integrity"]["scrub_runs"] >= 1
        assert doc["integrity"]["scrub_flagged"] >= 1
        assert "mismatched" in doc["streams"]["results"]

        from repro.serve import ServeConfig, ServeDaemon
        daemon = ServeDaemon(ServeConfig(port=0, journal=False))
        snapshot = daemon.metrics.snapshot()
        assert snapshot["gauges"]["integrity"]["scrub_runs"] >= 1


# ----------------------------------------------------------------------
# compaction reporting (reclaimed bytes)
# ----------------------------------------------------------------------
class TestCompactReporting:
    def test_reclaimed_bytes_in_table_and_json(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        store = LocalShardedStore(cache / "store", shards=2)
        for i in range(20):
            store.append("results", "hot", {"round": i})
        assert main(["store", "compact", "--cache-dir", str(cache),
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (entry,) = doc["compacted"]
        assert entry["reclaimed_bytes"] > 0
        assert entry["bytes_before"] - entry["bytes_after"] \
            == entry["reclaimed_bytes"]
        for i in range(10):
            store.append("results", "hot", {"round": i})
        assert main(["store", "compact", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "reclaimed" in out and "->" in out


# ----------------------------------------------------------------------
# the bit-rot property (hypothesis)
# ----------------------------------------------------------------------
FIXED_PAYLOADS = {
    "alpha": {"matrix": [1, 2, 3], "ok": True},
    "beta": "a longer string payload with room for damage",
    "gamma": [0.5, None, "mixed"],
    "delta": 12345,
}


def _seeded_local(root):
    store = LocalShardedStore(root, shards=4)
    for key, payload in FIXED_PAYLOADS.items():
        store.append("s", key, payload)
    for stream in store.streams():
        store.compact(stream)  # every remaining line is live
    return store


def _flip(path: Path, offset: int, mask: int) -> None:
    blob = bytearray(path.read_bytes())
    blob[offset % len(blob)] ^= mask
    path.write_bytes(bytes(blob))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bitrot_local_never_serves_altered_data(tmp_path_factory, data):
    """Flip any single byte of any shard: reads return the original
    payload or report the key missing and count the damage — never
    altered data."""
    root = tmp_path_factory.mktemp("bitrot")
    store = _seeded_local(root)
    shards = store.shard_paths("s")
    path = data.draw(st.sampled_from(shards), label="shard")
    size = path.stat().st_size
    offset = data.draw(st.integers(0, size - 1), label="offset")
    mask = data.draw(st.sampled_from((0x01, 0x08, 0x20, 0x80)),
                     label="mask")
    _flip(path, offset, mask)

    fresh = LocalShardedStore(root, shards=4)
    damage_seen = 0
    for key, expected in FIXED_PAYLOADS.items():
        got = fresh.read("s", key)
        assert got == expected or got is None, (
            f"altered data served for {key!r}: {got!r}")
        if got is None:
            damage_seen += 1
    if damage_seen:
        # a flip inside the key field indexes the record under a
        # mutated key: the read path sees a plain miss, but the crc
        # covers the key so the scrubber always flags the damage
        assert not verify_store(fresh).clean


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
