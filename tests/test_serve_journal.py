"""The durable write-ahead request journal behind ``repro serve``.

Contract: every admitted non-streaming request is journaled
(admitted → started → completed/failed) on the artifact store's
``"journal"`` stream under a content-hash idempotency signature of its
body.  Records hold status, body, attempts, seq and error — never a
result.  Duplicates of a completed request are answered by the result
store, byte-identical to the first answer, unless they ask for
``use_store: false``; ``--recover`` replays unfinished records after a
daemon crash; ``--no-journal`` serves without one.
"""

import http.client
import json
from pathlib import Path

import pytest

from repro.api import OptimizationRequest, OptimizerSession
from repro.api.resilience import reset_resilience
from repro.evaluation.store import STORE_DIR, cache_dir
from repro.ir import parse_scop
from repro.serve import (JOURNAL_STREAM, RequestJournal, ServeConfig,
                         ServeDaemon, prune_finished, request_signature)
from repro.storage import LocalShardedStore
from repro.testing.faults import FaultPlan, install_plan

KERNEL = """
scop axpyish(N) {
  array X[N] output;
  array Y[N];
  for (i = 0; i < N; i++)
    X[i] = X[i] + 2.0 * Y[i];
}
"""

BODY = {"request": {"source": KERNEL}, "use_store": False}
#: the same computation with the result store on: only duplicates of
#: such requests are answered from the store
STORED_BODY = {"request": {"source": KERNEL}}


def _post(addr, body, timeout=120):
    conn = http.client.HTTPConnection(*addr, timeout=timeout)
    try:
        conn.request("POST", "/v1/optimize", json.dumps(body),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def _corrupt_stored_record(store, signature):
    """Rot ``signature``'s newest stored line: edit the journaled
    payload in place but keep the old crc, so the record still parses
    as JSON yet fails verification."""
    target = None
    for path in store.shard_paths(JOURNAL_STREAM):
        lines = path.read_text().splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("key") == signature \
                    and not record.get("tombstone"):
                target = (path, lines, index, record)
    assert target is not None, "no stored line to corrupt"
    path, lines, index, record = target
    record["payload"]["attempts"] = 999  # tamper; crc left stale
    lines[index] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    store.refresh(JOURNAL_STREAM)


def _expected_bytes(include_events=True):
    request = OptimizationRequest.make(
        parse_scop(KERNEL), {"N": 1500}, {"N": 8},
        system="looprag", persona="deepseek")
    session = OptimizerSession(dataset_size=40)
    result = session.optimize(request, use_store=False)
    return json.dumps(result.to_json_dict(include_events=include_events),
                      indent=2, sort_keys=True)


@pytest.fixture()
def make_daemon(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BASE", "0.001")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_resilience()
    install_plan(None)
    daemons = []

    def make(**overrides):
        options = dict(host="127.0.0.1", port=0, max_inflight=4,
                       queue_depth=4, per_client=8, drain_grace=10.0,
                       journal=True,
                       default_session={"dataset_size": 40})
        options.update(overrides)
        daemon = ServeDaemon(ServeConfig(**options))
        daemon.start()
        daemons.append(daemon)
        return daemon

    yield make
    install_plan(None)
    for daemon in daemons:
        daemon.stop(timeout=30)
    reset_resilience()


# ----------------------------------------------------------------------
# the idempotency signature
# ----------------------------------------------------------------------
class TestRequestSignature:
    def test_delivery_options_do_not_change_the_signature(self):
        base = request_signature(BODY)
        assert request_signature(dict(BODY, deadline_s=5)) == base
        assert request_signature(dict(BODY, stream=True)) == base
        assert request_signature(dict(BODY, include_events=False)) == base
        # a missing session spec and an empty one are the same request
        assert request_signature(dict(BODY, session={})) == base

    def test_content_changes_the_signature(self):
        base = request_signature(BODY)
        other_kernel = {"request": {"source": KERNEL.replace(
            "2.0", "3.0")}, "use_store": False}
        assert request_signature(other_kernel) != base
        assert request_signature(
            dict(BODY, session={"dataset_size": 8})) != base
        assert request_signature(dict(BODY, use_store=True)) != base

    def test_signature_is_stable_across_key_order(self):
        shuffled = {"use_store": False, "request": {"source": KERNEL}}
        assert request_signature(shuffled) == request_signature(BODY)


# ----------------------------------------------------------------------
# the journal state machine (unit, over a real on-disk store)
# ----------------------------------------------------------------------
class TestRequestJournal:
    def test_lifecycle_admitted_started_completed(self, tmp_path):
        journal = RequestJournal(LocalShardedStore(tmp_path / "store"))
        signature = request_signature(BODY)

        journal.admitted(signature, BODY)
        record = journal.record(signature)
        assert record["status"] == "admitted"
        assert record["attempts"] == 1
        assert record["body"] == BODY

        journal.started(signature)
        assert journal.record(signature)["status"] == "started"
        assert [sig for sig, _ in journal.unfinished()] == [signature]

        journal.completed(signature)
        record = journal.record(signature)
        assert record["status"] == "completed"
        # a pure write-ahead log: no result document is journaled
        assert set(record) == {"schema", "status", "body", "attempts",
                               "seq"}
        assert journal.unfinished() == []
        assert journal.stats().entries >= 1
        assert journal.describe().startswith(f"{JOURNAL_STREAM}@")

    def test_failed_records_do_not_short_circuit(self, tmp_path):
        journal = RequestJournal(LocalShardedStore(tmp_path / "store"))
        signature = request_signature(BODY)
        journal.admitted(signature, BODY)
        journal.started(signature)
        journal.failed(signature, {"kind": "backend", "message": "x"})

        record = journal.record(signature)
        assert record["status"] == "failed"
        assert record["error"]["kind"] == "backend"
        assert journal.unfinished() == []  # failure is a definite state

        # resubmission re-admits: attempts bumps, the error clears
        journal.admitted(signature, BODY)
        record = journal.record(signature)
        assert record["attempts"] == 2
        assert "error" not in record


# ----------------------------------------------------------------------
# the daemon end to end: dedup, recovery, refusal
# ----------------------------------------------------------------------
class TestDaemonJournal:
    def test_duplicates_short_circuit_byte_identically(self,
                                                       make_daemon):
        daemon = make_daemon()
        signature = request_signature(STORED_BODY)
        status, first = _post(daemon.address, STORED_BODY)
        assert status == 200
        assert first == _expected_bytes()
        assert daemon.metrics.get("store_hits_total") == 0

        status, second = _post(daemon.address, STORED_BODY)
        assert status == 200
        assert second == first
        assert daemon.metrics.get("store_hits_total") == 1

        # different delivery options are still the same computation
        status, third = _post(daemon.address,
                              dict(STORED_BODY, deadline_s=90))
        assert third == first
        assert daemon.metrics.get("store_hits_total") == 2

        # ... and event verbosity is applied to the store hit
        status, slim = _post(daemon.address,
                             dict(STORED_BODY, include_events=False))
        assert slim == _expected_bytes(include_events=False)
        assert daemon.metrics.get("store_hits_total") == 3
        assert daemon.metrics.get("completed_total") == 4
        # every duplicate still walked the write-ahead log
        record = daemon.journal.record(signature)
        assert record["status"] == "completed"
        assert record["attempts"] == 4
        assert "result" not in record

    def test_changed_code_signature_misses_and_recomputes(
            self, make_daemon, monkeypatch):
        daemon = make_daemon()
        signature = request_signature(STORED_BODY)
        status, first = _post(daemon.address, STORED_BODY)
        assert status == 200
        assert daemon.journal.record(signature)["status"] == "completed"

        # the daemon restarts on new code over the same cache dir: the
        # body keeps its journal signature, but the result store misses
        monkeypatch.setattr("repro.evaluation.store._CODE_SIGNATURE",
                            "0" * 16)
        assert request_signature(STORED_BODY) == signature
        status, second = _post(daemon.address, STORED_BODY)
        assert status == 200
        assert second == first
        assert daemon.metrics.get("store_hits_total") == 0
        record = daemon.journal.record(signature)
        assert record["status"] == "completed"
        assert record["attempts"] == 2

    def test_use_store_false_duplicates_are_recomputed(self,
                                                       make_daemon):
        daemon = make_daemon()
        signature = request_signature(BODY)
        for _ in range(2):
            status, text = _post(daemon.address, BODY)
            assert status == 200
            assert text == _expected_bytes()
        assert daemon.metrics.get("store_hits_total") == 0
        # still journaled: each duplicate walked the state machine
        record = daemon.journal.record(signature)
        assert record["status"] == "completed"
        assert record["attempts"] == 2

    def test_daemon_default_session_is_part_of_the_result_key(
            self, make_daemon):
        # two daemons over one cache dir, differing only in the
        # --session defaults merged into a body that names no seed
        first = make_daemon(default_session={"dataset_size": 40,
                                             "seed": 0})
        status, seed0 = _post(first.address, STORED_BODY)
        assert status == 200

        second = make_daemon(default_session={"dataset_size": 40,
                                              "seed": 3})
        status, seed3 = _post(second.address, STORED_BODY)
        assert status == 200
        assert second.metrics.get("store_hits_total") == 0  # recomputed
        request = OptimizationRequest.make(
            parse_scop(KERNEL), {"N": 1500}, {"N": 8})
        fresh = OptimizerSession(dataset_size=40, seed=3).optimize(
            request, use_store=False)
        assert seed3 == json.dumps(fresh.to_json_dict(), indent=2,
                                   sort_keys=True)
        assert seed3 != seed0

    def test_failures_are_journaled_but_re_executed(self, make_daemon):
        daemon = make_daemon()
        body = dict(BODY, session={"llm_backend": "faulty"})
        signature = request_signature(body)
        install_plan(FaultPlan.parse("llm.generate:raise:always"))

        status, text = _post(daemon.address, body)
        assert status == 502
        record = daemon.journal.record(signature)
        assert record["status"] == "failed"
        assert record["attempts"] == 1

        install_plan(None)  # circumstances improve; content unchanged
        status, text = _post(daemon.address, body)
        assert status == 200
        record = daemon.journal.record(signature)
        assert record["status"] == "completed"
        assert record["attempts"] == 2
        assert daemon.metrics.get("store_hits_total") == 0

    def test_recover_replays_unfinished_requests(self, make_daemon):
        # a daemon died mid-request: the journal holds a started record
        signature = request_signature(STORED_BODY)
        journal = RequestJournal(
            LocalShardedStore(Path(cache_dir()) / STORE_DIR))
        journal.admitted(signature, STORED_BODY)
        journal.started(signature)

        daemon = make_daemon(recover=True)  # replays during boot
        assert daemon.metrics.get("journal_replayed_total") == 1
        record = daemon.journal.record(signature)
        assert record["status"] == "completed"
        assert "result" not in record

        # the original client resubmits: a byte-identical store hit
        status, text = _post(daemon.address, STORED_BODY)
        assert status == 200
        assert text == _expected_bytes()
        assert daemon.metrics.get("store_hits_total") == 1

    def test_recover_survives_an_unreplayable_record(self, make_daemon):
        signature = "deadbeef" * 8
        journal = RequestJournal(
            LocalShardedStore(Path(cache_dir()) / STORE_DIR))
        journal.admitted(signature, {"request": {"source": "not a scop"}})

        daemon = make_daemon(recover=True)  # boots anyway
        assert daemon.metrics.get("journal_replay_failed_total") == 1
        record = daemon.journal.record(signature)
        assert record["status"] == "failed"
        assert record["error"]["kind"] == "replay_failed"

    def test_recover_refuses_a_corrupt_journal_record(self,
                                                      make_daemon):
        # the stored line rots on disk: valid JSON, stale crc
        signature = request_signature(BODY)
        store = LocalShardedStore(Path(cache_dir()) / STORE_DIR)
        journal = RequestJournal(store)
        journal.admitted(signature, BODY)
        journal.started(signature)
        _corrupt_stored_record(store, signature)

        daemon = make_daemon(recover=True)  # boots; refuses the replay
        assert daemon.metrics.get("journal_corrupt_total") == 1
        assert daemon.metrics.get("journal_replayed_total") == 0
        record = daemon.journal.record(signature)
        assert record["status"] == "failed"
        assert record["error"]["kind"] == "corrupt_record"

        # resubmission re-runs it: failure is circumstance, not content
        status, text = _post(daemon.address, BODY)
        assert status == 200
        assert text == _expected_bytes()
        assert daemon.journal.record(signature)["status"] == "completed"

    def test_no_journal_opts_out(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        daemon = ServeDaemon(ServeConfig(port=0, journal=True))
        assert daemon.journal is not None
        daemon = ServeDaemon(ServeConfig(port=0, journal=False))
        assert daemon.journal is None  # explicit opt-out works

    def test_store_stats_reports_the_journal_stream(self, make_daemon,
                                                    capsys):
        daemon = make_daemon()
        status, _ = _post(daemon.address, BODY)
        assert status == 200

        from repro.cli import main
        assert main(["store", "stats", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert JOURNAL_STREAM in doc["streams"]
        assert doc["streams"][JOURNAL_STREAM]["entries"] == 1


# ----------------------------------------------------------------------
# retention: `repro store compact --journal-keep N`
# ----------------------------------------------------------------------
class TestJournalRetention:
    def _journal_with_history(self, root):
        store = LocalShardedStore(root / "store")
        journal = RequestJournal(store)
        for i in range(5):
            journal.admitted(f"sig-{i}", {"request": i})
            journal.completed(f"sig-{i}")
        journal.admitted("pending-a", {"request": "a"})
        journal.admitted("pending-b", {"request": "b"})
        journal.started("pending-b")
        journal.admitted("sig-bad", {"request": "bad"})
        journal.failed("sig-bad", {"kind": "backend", "message": "x"})
        return store, journal

    def test_prune_keeps_newest_finished_by_seq(self, tmp_path):
        store, journal = self._journal_with_history(tmp_path)
        report = prune_finished(store, keep=2)
        # 6 finished (5 completed + 1 failed): the oldest 4 go
        assert report == {"dropped": 4, "kept_finished": 2,
                          "unfinished": 2}
        for old in ("sig-0", "sig-1", "sig-2", "sig-3"):
            assert journal.record(old) is None
        assert journal.record("sig-4")["status"] == "completed"
        assert journal.record("sig-bad")["status"] == "failed"

    def test_prune_never_touches_unfinished(self, tmp_path):
        store, journal = self._journal_with_history(tmp_path)
        prune_finished(store, keep=0)  # drop every finished record
        assert sorted(sig for sig, _ in journal.unfinished()) \
            == ["pending-a", "pending-b"]
        assert journal.record("sig-4") is None
        report = prune_finished(store, keep=100)  # nothing left to drop
        assert report["dropped"] == 0

    def test_seq_resumes_across_journal_lifetimes(self, tmp_path):
        store, journal = self._journal_with_history(tmp_path)
        high = journal.record("sig-bad")["seq"]
        reborn = RequestJournal(LocalShardedStore(tmp_path / "store"))
        reborn.admitted("later", {"request": "later"})
        assert reborn.record("later")["seq"] == high + 1

    def test_cli_journal_keep_prunes_then_compacts(self, tmp_path, capsys):
        self._journal_with_history(tmp_path)
        from repro.cli import main
        assert main(["store", "compact", "--cache-dir", str(tmp_path),
                     "--journal-keep", "2",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["journal_retention"]["dropped"] == 4
        assert doc["journal_retention"]["kept_finished"] == 2

        # the tombstoned bytes are really gone after the compaction
        fresh = LocalShardedStore(tmp_path / "store")
        stats = fresh.stream_stats(JOURNAL_STREAM)
        assert stats.entries == 4  # 2 finished survivors + 2 pending
        assert stats.tombstones == 0

        # a second, tighter pass prunes the survivors again
        assert main(["store", "compact", "--cache-dir", str(tmp_path),
                     "--journal-keep", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["journal_retention"]["dropped"] == 1
        assert doc["journal_retention"]["kept_finished"] == 1
