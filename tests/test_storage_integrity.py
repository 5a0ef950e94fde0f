"""End-to-end data integrity for the artifact plane.

Contract under test: every stored line carries a crc32 of its own
bytes; readers never serve a record whose checksum fails (a scan skips
the line so an earlier put of its key wins, a read of a line damaged
since the scan reports the key missing, and the damage is counted); ``repro store verify`` pinpoints
corrupt/torn/mismatched lines with shard+offset diagnostics and
``repro store compact`` heals them.  The hypothesis bit-rot property
at the bottom is the headline: flip any single bit of any shard and no
reader ever returns altered data.
"""

import json
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.storage import INTEGRITY, LocalShardedStore, verify_store
from repro.storage import local as local_mod
from repro.storage.base import encode_line, read_line_head
from repro.testing.faults import (FaultClause, FaultPlan, corrupt_data,
                                  install_plan)


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    install_plan(None)
    yield
    install_plan(None)


def _shard_lines(store, stream):
    """[(path, offset, line, head), ...] over raw shard files; ``line``
    lacks its newline and ``head`` is :func:`read_line_head`'s
    ``(key, tombstone, crc_ok)``."""
    out = []
    for path in store.shard_paths(stream):
        offset = 0
        for line in path.read_bytes().split(b"\n")[:-1]:
            out.append((path, offset, line, read_line_head(line)))
            offset += len(line) + 1
    return out


#: rotates digits and lowercase letters: a same-length, different payload
_FORGE = bytes.maketrans(b"0123456789abcdefghijklmnopqrstuvwxyz",
                         b"1234567890bcdefghijklmnopqrstuvwxyza")


def _stale_crc(store, stream, key):
    """Forge ``key``'s newest stored put in place: a different payload
    of the same length under the old crc, so an index built before the
    damage still points at the line."""
    path, offset, line, _head = [
        entry for entry in _shard_lines(store, stream)
        if entry[3][0] == key and not entry[3][1]][-1]
    payload = json.dumps(json.loads(line)["payload"],
                         separators=(",", ":")).encode()
    forged = payload.translate(_FORGE)
    assert forged != payload
    at = offset + len(line) - 1 - len(payload)  # before the closing }
    blob = bytearray(path.read_bytes())
    assert blob[at:at + len(payload)] == payload
    blob[at:at + len(payload)] = forged
    path.write_bytes(bytes(blob))


def _schema_one_line(key, payload=None, tombstone=False):
    """A line as the schema-1 store wrote it (crc of a canonical dump)."""
    body = b"tombstone" if tombstone else json.dumps(
        payload, separators=(",", ":")).encode()
    crc = zlib.crc32(json.dumps(key).encode() + b"\x00" + body)
    record = {"schema": 1, "key": key, "crc": crc}
    record.update({"tombstone": True} if tombstone
                  else {"payload": payload})
    return json.dumps(record, separators=(",", ":")) + "\n"


# ----------------------------------------------------------------------
# the crc envelope
# ----------------------------------------------------------------------
class TestEnvelope:
    def test_puts_and_tombstones_carry_matching_crcs(self, tmp_path):
        store = LocalShardedStore(tmp_path, shards=2)
        store.append("s", "k", {"a": 1})
        store.append("s", "gone", 7)
        store.delete("s", "gone")
        lines = _shard_lines(store, "s")
        assert len(lines) == 3
        for _path, _offset, line, (key, tombstone, crc_ok) in lines:
            assert crc_ok
            crc = json.loads(line)["crc"]
            assert len(crc) == 8 and int(crc, 16) >= 0
            if tombstone:
                assert line + b"\n" == encode_line("gone",
                                                   tombstone=True)

        def crc(payload):
            return json.loads(encode_line("k", payload))["crc"]
        assert crc({"a": 1}) != crc({"a": 2})

    def test_lines_without_crc_are_rejected(self, tmp_path):
        # every writer stamps the crc: a line whose crc digits were
        # lost to damage must not be served
        store = LocalShardedStore(tmp_path, shards=1)
        store.append("s", "anchor", 0)  # creates the stream dir
        path = store.shard_path("s", 0)
        with open(path, "a") as handle:
            handle.write('{"schema":2,"crc":"","key":"old",'
                         '"payload":[1,2]}\n')
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
        for _p, _o, _line, (_key, _tomb, crc_ok) in _shard_lines(fresh,
                                                                "s"):
            assert crc_ok
        assert fresh.read("s", "k1") == {"round": 7}

    def test_schema_one_lines_are_corrupt(self, tmp_path):
        """Lines of the earlier format are skipped and counted, never
        mis-read; the key is recomputed on its next miss."""
        store = LocalShardedStore(tmp_path, shards=1)
        store.append("s", "anchor", 0)
        path = store.shard_path("s", 0)
        with open(path, "a") as handle:
            handle.write(_schema_one_line("old", [1, 2]))
            handle.write(_schema_one_line("anchor", tombstone=True))
        fresh = LocalShardedStore(tmp_path, shards=1)
        assert fresh.read("s", "old") is None
        assert fresh.read("s", "anchor") == 0  # the old tombstone too
        stats = fresh.stream_stats("s")
        assert (stats.corrupt, stats.mismatched) == (2, 0)
        assert [i.kind for i in verify_store(fresh).issues()] \
            == ["corrupt", "corrupt"]


# ----------------------------------------------------------------------
# one payload decode per read, none per scan
# ----------------------------------------------------------------------
def test_open_and_read_decode_exactly_one_payload(tmp_path, monkeypatch):
    store = LocalShardedStore(tmp_path, shards=2)
    for i in range(4):
        store.append("s", f"k{i}", {"needle": i})
    store.delete("s", "k3")
    store.append("s", "k0", {"needle": 9})
    calls = []
    real_decode = local_mod.decode_payload
    monkeypatch.setattr(local_mod, "decode_payload",
                        lambda *a: calls.append(a) or real_decode(*a))
    # every JSON decode of a payload anywhere, whoever calls it
    parsed = []
    real_raw_decode = json.JSONDecoder.raw_decode

    def raw_decode(self, s, idx=0):
        if "needle" in s:
            parsed.append(s)
        return real_raw_decode(self, s, idx)
    monkeypatch.setattr(json.JSONDecoder, "raw_decode", raw_decode)

    fresh = LocalShardedStore(tmp_path, shards=2)
    assert fresh.open("s").entries == 3
    assert (calls, parsed) == ([], [])  # the scan decodes no payload
    assert fresh.read("s", "k0") == {"needle": 9}
    assert (len(calls), len(parsed)) == (1, 1)


# ----------------------------------------------------------------------
# damage found by the scan and by reads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field", ["key", "crc", "payload"])
def test_flipped_newest_line_serves_its_predecessor(tmp_path, field):
    store = LocalShardedStore(tmp_path, shards=1)
    store.append("s", "key", {"v": 1})
    store.append("s", "key", {"v": 2})
    path = store.shard_path("s", 0)
    blob = bytearray(path.read_bytes())
    newest = blob.rindex(b"\n", 0, len(blob) - 1) + 1
    marker = {"key": b'"key":"', "crc": b'"crc":"',
              "payload": b'"v":'}[field]
    at = blob.index(marker, newest) + len(marker)
    blob[at] ^= 0x01
    path.write_bytes(bytes(blob))
    fresh = LocalShardedStore(tmp_path, shards=1)
    assert fresh.read("s", "key") == {"v": 1}
    stats = fresh.stream_stats("s")
    assert (stats.mismatched, stats.corrupt) == (1, 0)
    if field != "key":  # a flipped key names some other key
        assert fresh.damaged_keys("s") == ("key",)
    fresh.append("s", "key", {"v": 3})  # a valid write supersedes it
    assert "key" not in fresh.damaged_keys("s")


class TestVerifyModes:
    """A damaged line is caught at scan time (an earlier put wins) and,
    when the damage lands after the scan, at read time."""

    def _tampered_store(self, tmp_path):
        store = LocalShardedStore(tmp_path, shards=1)
        store.append("s", "k", "v1")
        store.append("s", "k", "v2")
        _stale_crc(store, "s", "k")
        return store

    def test_read_mode_reports_the_key_missing(self, tmp_path):
        # this store's index predates the damage: the read re-checks
        # the crc and reports the key missing
        store = self._tampered_store(tmp_path)
        assert store.read("s", "k") is None  # never the tampered value
        assert store.stream_stats("s").mismatched == 1

    def test_rescan_resurrects_the_previous_put(self, tmp_path):
        self._tampered_store(tmp_path)
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
        data = encode_line("k", 3)
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
            handle.write(encode_line("torn", 1)[:-9])
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
        assert main(["store", "compact", "--cache-dir", str(cache),
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(d["stream"], d["dropped_corrupt"] + d["dropped_mismatched"])
                for d in doc["compacted"]] == [("results", 1)]
        assert main(args + ["--format", "json"]) == 0  # healed
        assert json.loads(capsys.readouterr().out)["clean"] is True
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
        # the scan drops the damaged line, so the read sees a plain
        # miss; the scrubber classifies the same line and flags it
        assert not verify_store(fresh).clean


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
