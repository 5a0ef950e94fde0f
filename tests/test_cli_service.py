"""CLI service surface: ``optimize --json`` and ``serve-batch``."""

import json

import pytest

from repro.cli import main

KERNEL = """
scop axpyish(N) {
  array X[N] output;
  array Y[N];
  for (i = 0; i < N; i++)
    X[i] = X[i] + 2.0 * Y[i];
}
"""


@pytest.fixture()
def kernel_file(tmp_path):
    path = tmp_path / "k.scop"
    path.write_text(KERNEL)
    return str(path)


class TestOptimizeJson:
    def test_json_is_byte_stable_and_structured(self, kernel_file,
                                                capsys):
        argv = ["optimize", kernel_file, "--dataset-size", "40",
                "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second  # byte-stable across runs

        doc = json.loads(first)
        assert set(doc) == {"request", "result", "events"}
        assert doc["request"]["target"] == "axpyish"
        assert doc["request"]["system"] == "looprag"
        assert doc["request"]["perf"] == {"N": 1500}
        assert isinstance(doc["result"]["passed"], bool)
        kinds = [e["kind"] for e in doc["events"]]
        assert kinds[0] == "request" and "selected" in kinds
        assert [e["seq"] for e in doc["events"]] == \
            list(range(len(doc["events"])))

    def test_text_and_json_agree(self, kernel_file, capsys):
        code_text = main(["optimize", kernel_file, "--dataset-size",
                          "40"])
        text = capsys.readouterr().out
        code_json = main(["optimize", kernel_file, "--dataset-size",
                          "40", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code_text == code_json
        assert f"pass: {doc['result']['passed']}" in text

    def test_events_stream_to_stderr(self, kernel_file, capsys):
        main(["optimize", kernel_file, "--dataset-size", "40",
              "--events"])
        captured = capsys.readouterr()
        assert "retrieval_done" in captured.err
        assert "retrieval_done" not in captured.out


class TestServeBatch:
    def test_batch_report(self, kernel_file, tmp_path, capsys):
        spec = {
            "session": {"dataset_size": 40, "seed": 0},
            "requests": [
                {"file": kernel_file, "system": "looprag",
                 "persona": "deepseek", "perf": {"N": 2000},
                 "test": {"N": 8}, "tag": "llm"},
                {"file": kernel_file, "system": "compiler",
                 "optimizer": "pluto", "perf": {"N": 2000},
                 "tag": "comp"},
            ],
        }
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(spec))
        out_file = tmp_path / "report.json"

        main(["serve-batch", str(batch), "--json", str(out_file),
              "--format", "json"])
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(out_file.read_text())
        assert stdout_doc == file_doc
        assert file_doc["count"] == 2
        tags = [r["request"]["tag"] for r in file_doc["results"]]
        assert tags == ["llm", "comp"]
        assert file_doc["results"][1]["request"]["optimizer"] == "pluto"

        # warm rerun (store hits) renders the identical report
        main(["serve-batch", str(batch), "--format", "json"])
        warm_doc = json.loads(capsys.readouterr().out)
        assert warm_doc == stdout_doc

    def test_bad_request_entry(self, tmp_path, capsys):
        """An entry with neither ``source`` nor ``file`` is a schema
        error: one line, exit 2."""
        batch = tmp_path / "bad.json"
        batch.write_text(json.dumps({"requests": [{"tag": "x"}]}))
        assert main(["serve-batch", str(batch)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro serve-batch: request #0: request field 'file' must "
            "name a readable file when 'source' is absent, got None\n")

    def test_missing_batch_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["serve-batch", "nonexistent.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro serve-batch: the document must be a readable file, "
            "got 'nonexistent.json'\n")


class TestSchemaErrors:
    """A request the schema refuses exits 2 with one stderr line that
    names the field (and a batch entry's index)."""

    @pytest.mark.parametrize("entry, field", [
        ({"perf": {"M": 3}}, "request field 'perf'"),
        ({"system": "compiler"}, "request field 'optimizer'"),
        ({"test": {"N": -3}}, "request field 'test'"),
        ({"perf": {"N": "x"}}, "request field 'perf'"),
    ])
    def test_serve_batch_entry(self, kernel_file, tmp_path, capsys,
                               entry, field):
        batch = tmp_path / "bad.json"
        batch.write_text(json.dumps({
            "session": {"dataset_size": 40},
            "requests": [{"file": kernel_file},
                         dict(entry, file=kernel_file)]}))
        assert main(["serve-batch", str(batch), "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.rstrip("\n")]
        assert captured.err.startswith(
            f"repro serve-batch: request #1: {field} must")

    @pytest.mark.parametrize("content, line", [
        ("[1, 2]", "repro serve-batch: the document must be an object, "
                   "got [1, 2]"),
        ('{"requests": [{"file": "nope.scop"}]}',
         "repro serve-batch: request #0: request field 'file' must name "
         "a readable file, got 'nope.scop'"),
        ("{not json", "repro serve-batch: the document must be JSON"),
    ])
    def test_serve_batch_file(self, tmp_path, capsys, content, line):
        batch = tmp_path / "bad.json"
        batch.write_text(content)
        assert main(["serve-batch", str(batch), "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(line)

    @pytest.mark.parametrize("argv, line", [
        (["serve-batch", "{batch}"], "repro serve-batch: session field "
                                     "'k' must be at least 1, got 0"),
        (["optimize", "{kernel}", "--perf", "M=3"],
         "repro optimize: request field 'perf' must bind exactly"),
        (["optimize", "{kernel}", "--test", "N=-3"],
         "repro optimize: request field 'test' must be"),
        (["compilers", "{kernel}", "--perf", "N=0"],
         "repro compilers: request field 'perf' must be"),
        # port -1 cannot bind: the check must come before serving
        (["serve", "--port", "-1", "--session", '{"seed": -1}'],
         "repro serve: session field 'seed' must be at least 0"),
    ])
    def test_command_line(self, kernel_file, tmp_path, capsys, argv, line):
        batch = tmp_path / "bad.json"
        batch.write_text(json.dumps({"session": {"k": 0}, "requests": []}))
        paths = {"{batch}": str(batch), "{kernel}": kernel_file}
        argv = [paths.get(arg, arg) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(line)


class TestExitCodes:
    """The audited contract: 0 = passed, 1 = not passed, 2 = errored."""

    def test_result_exit_code_contract(self):
        from types import SimpleNamespace

        from repro.cli import _result_exit_code

        assert _result_exit_code(
            SimpleNamespace(failure=None, passed=True)) == 0
        assert _result_exit_code(
            SimpleNamespace(failure=None, passed=False)) == 1
        # an error must not masquerade as "no passing candidate"
        assert _result_exit_code(
            SimpleNamespace(failure="boom", passed=False)) == 2
        assert _result_exit_code(
            SimpleNamespace(failure="boom", passed=True)) == 2

    def test_optimize_exit_code_matches_result(self, kernel_file,
                                               capsys):
        code = main(["optimize", kernel_file, "--dataset-size", "40",
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["failure"] is None
        assert code == (0 if doc["result"]["passed"] else 1)

    def test_serve_batch_exits_2_when_any_request_errors(
            self, kernel_file, tmp_path, capsys):
        spec = {
            "session": {"dataset_size": 40},
            "requests": [
                # an absurd time limit forces a timeout *error*
                {"file": kernel_file, "system": "compiler",
                 "optimizer": "pluto", "perf": {"N": 2000},
                 "time_limit": 1e-9, "tag": "doomed"},
                {"file": kernel_file, "system": "looprag",
                 "perf": {"N": 2000}, "test": {"N": 8}, "tag": "ok"},
            ],
        }
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(spec))

        code = main(["serve-batch", str(batch), "--no-cache",
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["errors"] == 1
        by_tag = {r["request"]["tag"]: r for r in doc["results"]}
        assert by_tag["doomed"]["result"]["failure"]
        assert by_tag["ok"]["result"]["failure"] is None

        # the table rendering surfaces the same count
        code = main(["serve-batch", str(batch), "--no-cache"])
        out = capsys.readouterr().out
        assert code == 2
        assert "1 errored" in out


class TestStoreMaintenance:
    """``repro store stats`` / ``repro store compact``."""

    @pytest.fixture()
    def populated_cache(self, tmp_path, monkeypatch):
        from repro.evaluation import store as store_mod
        from repro.evaluation.store import ResultStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store_mod._STORES.clear()
        store = ResultStore(tmp_path)
        store.put(("a",), [{"v": 1}])
        store.put(("a",), [{"v": 2}])  # superseded duplicate
        store.put(("b",), [{"v": 3}])
        yield tmp_path
        store_mod._STORES.clear()

    def test_stats_json(self, populated_cache, capsys):
        assert main(["store", "stats", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backend"] == "local"
        results = doc["streams"]["results"]
        assert results["entries"] == 2
        assert results["superseded"] == 1
        assert results["corrupt"] == 0

    def test_stats_table(self, populated_cache, capsys):
        main(["store", "stats"])
        out = capsys.readouterr().out
        assert "# store: local:" in out
        assert "results" in out and "superseded" in out

    def test_compact_then_stats_clean(self, populated_cache, capsys):
        assert main(["store", "compact", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        [report] = doc["compacted"]
        assert report["stream"] == "results"
        assert report["kept"] == 2
        assert report["dropped_superseded"] == 1

        main(["store", "stats", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["streams"]["results"]["superseded"] == 0

    def test_explicit_cache_dir(self, tmp_path, capsys):
        main(["store", "stats", "--cache-dir", str(tmp_path / "empty"),
              "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["backend"] == "local"
        assert doc["root"] == str(tmp_path / "empty" / "store")
        assert doc["streams"] == {}

    def test_maintenance_ignores_no_cache(self, populated_cache,
                                          monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        main(["store", "stats", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["streams"]["results"]["entries"] == 2


class TestBenchCacheSummary:
    def test_superseded_and_corrupt_surface_in_summary(
            self, tmp_path, monkeypatch, capsys):
        from repro.api.session import SESSIONS
        from repro.evaluation import store as store_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        SESSIONS.clear()
        store_mod._STORES.clear()
        try:
            main(["bench", "--suite", "polybench", "--system",
                  "graphite", "--limit", "2"])
            err = capsys.readouterr().err
            assert "# cache:" in err
            assert "superseded" in err and "corrupt" in err
            assert "local:" in err  # store.describe() names the backend
        finally:
            SESSIONS.clear()
            store_mod._STORES.clear()

    def test_store_flags_do_not_leak_into_later_calls(
            self, tmp_path, monkeypatch, capsys):
        """``--no-cache`` / ``--cache-dir`` / ``--limit`` hold for one
        ``main()`` call: a cached run after a ``--no-cache`` run stores
        its results, and the run after that is served from them."""
        import os

        from repro.evaluation import store as store_mod

        monkeypatch.setattr(store_mod, "_STORES", {})
        cache = str(tmp_path / "cache")

        def bench(*flags):
            before = dict(os.environ)
            main(["bench", "--suite", "polybench", "--system", "pluto",
                  "--limit", "2", *flags])
            assert dict(os.environ) == before
            return capsys.readouterr().err

        assert "(disabled)" in bench("--no-cache")
        assert "0 hits, 2 misses, 2 writes" in bench("--cache-dir", cache)
        assert "2 hits, 0 misses, 0 writes" in bench("--cache-dir", cache)

    def test_cached_bench_after_uncached_bench_fills_its_store(
            self, tmp_path, monkeypatch, capsys):
        """Results computed with the store off are not remembered: the
        same plans run again with ``--cache-dir d`` are computed again
        and written to ``d``."""
        from repro.evaluation import store as store_mod
        from repro.evaluation.store import RESULTS_STREAM, ResultStore

        monkeypatch.setattr(store_mod, "_STORES", {})
        cache = tmp_path / "cache"
        flags = ["bench", "--suite", "polybench", "--system", "polly",
                 "--limit", "2"]
        main(flags + ["--no-cache"])
        capsys.readouterr()
        main(flags + ["--cache-dir", str(cache)])
        assert "0 hits, 2 misses, 2 writes" in capsys.readouterr().err
        stored = ResultStore(cache).artifacts().list(RESULTS_STREAM)
        assert len(stored) == 2
