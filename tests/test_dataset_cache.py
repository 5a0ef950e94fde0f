"""Persistent corpus cache: build -> persist -> reload, bit-identically.

`cached_dataset` keeps corpora in the ``"datasets"`` stream of the
shared artifact store (`<cache-dir>/store/`) keyed by the results'
`code_signature()`; a corpus served from the store must be
indistinguishable from a freshly built one — same indexed texts, same
properties, and bit-identical retrieval ranks — and a changed code
signature must rebuild it.
"""

import json

import pytest

import repro.synthesis.dataset as dataset_mod
from repro.evaluation import store as result_store_mod
from repro.evaluation.store import active_artifacts, code_signature
from repro.ir import parse_scop
from repro.retrieval import Retriever
from repro.storage import STORAGE_SCHEMA
from repro.synthesis import cached_dataset
from repro.synthesis.dataset import DATASETS_STREAM, _dataset_cache_key
from repro.synthesis.store import FORMAT_VERSION, dataset_to_payload

SIZE, SEED = 10, 31


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(dataset_mod, "_DATASET_CACHE", {})
    result_store_mod._STORES.clear()
    yield tmp_path
    result_store_mod._STORES.clear()


def forget_memory():
    """Simulate a new process: drop both in-memory layers."""
    dataset_mod._DATASET_CACHE.clear()
    result_store_mod._STORES.clear()


def refuse_build(monkeypatch):
    monkeypatch.setattr(
        dataset_mod, "build_dataset",
        lambda *a, **k: pytest.fail("should load from the store"))


PROBE = """
scop probe(N) {
  array A[N][N] output;
  array B[N][N];
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      A[i][j] += B[j][i] * 2.0;
}
"""


def ranks(dataset):
    probe = parse_scop(PROBE)
    retriever = Retriever(dataset)
    out = {}
    for method in ("loop-aware", "bm25", "weighted"):
        out[method] = [(demo.entry.name, demo.score)
                       for demo in retriever.rank(probe, method)]
    return out


class TestPersistentCache:
    def test_build_persists_then_reloads(self, isolated_cache,
                                         monkeypatch):
        built = cached_dataset(SIZE, SEED)
        [key] = active_artifacts().list(DATASETS_STREAM)
        assert key.endswith(f"-n{SIZE}-s{SEED}-{code_signature()}")

        forget_memory()
        refuse_build(monkeypatch)
        loaded = cached_dataset(SIZE, SEED)
        assert len(loaded) == len(built)
        assert loaded.generator == built.generator
        assert loaded.seed == built.seed
        for a, b in zip(built, loaded):
            assert a.name == b.name
            assert a.example_text == b.example_text
            assert a.optimized_text == b.optimized_text
            assert a.recipe == b.recipe
            assert a.properties == b.properties

    def test_changed_code_signature_rebuilds_the_corpus(
            self, isolated_cache, monkeypatch):
        """An edit to any result-determining module (here: a different
        code signature) must rebuild the corpus, exactly once."""
        built = cached_dataset(SIZE, SEED)
        monkeypatch.setattr(result_store_mod, "_CODE_SIGNATURE",
                            "0123456789abcdef")
        forget_memory()
        builds = []
        real_build = dataset_mod.build_dataset
        monkeypatch.setattr(
            dataset_mod, "build_dataset",
            lambda *a, **k: builds.append(a) or real_build(*a, **k))
        rebuilt = cached_dataset(SIZE, SEED)
        forget_memory()
        assert cached_dataset(SIZE, SEED) is not rebuilt
        assert len(builds) == 1
        assert ranks(rebuilt) == ranks(built)
        # the rebuild deleted the corpus under its outdated key
        assert active_artifacts().list(DATASETS_STREAM) == (
            f"looprag-n{SIZE}-s{SEED}-0123456789abcdef",)

    def test_rebuild_keeps_other_corpora(self, isolated_cache,
                                         monkeypatch):
        """Only the rebuilt corpus's outdated keys go: a corpus of
        another size or seed stays, whatever its signature."""
        cached_dataset(SIZE, SEED)
        cached_dataset(SIZE, SEED + 1)
        cached_dataset(SIZE + 1, SEED)
        kept = set(active_artifacts().list(DATASETS_STREAM))
        kept.remove(_dataset_cache_key(SIZE, SEED, "looprag"))
        monkeypatch.setattr(result_store_mod, "_CODE_SIGNATURE",
                            "0123456789abcdef")
        forget_memory()
        cached_dataset(SIZE, SEED)
        assert set(active_artifacts().list(DATASETS_STREAM)) == kept | {
            f"looprag-n{SIZE}-s{SEED}-0123456789abcdef"}
        assert len(kept) == 2

    def test_retrieval_ranks_bit_identical(self, isolated_cache):
        built = cached_dataset(SIZE, SEED)
        forget_memory()
        loaded = cached_dataset(SIZE, SEED)
        assert built is not loaded
        assert ranks(built) == ranks(loaded)

    def test_in_process_cache_still_shared(self, isolated_cache):
        assert cached_dataset(SIZE, SEED) is cached_dataset(SIZE, SEED)

    def test_no_cache_disables_disk_layer(self, isolated_cache,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cached_dataset(SIZE, SEED)
        assert not (isolated_cache / "store").exists()

    def test_corrupt_payload_rebuilds(self, isolated_cache):
        built = cached_dataset(SIZE, SEED)
        key = _dataset_cache_key(SIZE, SEED, "looprag")
        # a current-format payload whose entry holds a program as a dict
        # (the format-2 shape) must fail on load, not on first access
        damaged = dataset_to_payload(built)
        damaged["entries"][0]["program"] = {"name": "ex"}
        for bad in ({"format": -1, "entries": "garbage"}, damaged):
            active_artifacts().append(DATASETS_STREAM, key, bad)
            forget_memory()
            rebuilt = cached_dataset(SIZE, SEED)
            assert len(rebuilt) == SIZE
            # the rebuild republished a valid payload over the bad one
            payload = active_artifacts().read(DATASETS_STREAM, key)
            assert payload["format"] == FORMAT_VERSION
            assert len(payload["entries"]) == SIZE
            assert isinstance(payload["entries"][0]["program"], str)
        stats = active_artifacts().stream_stats(DATASETS_STREAM)
        # each rebuild compacted the stream: no bad overwrite survives
        assert (stats.entries, stats.superseded) == (1, 0)

    def test_schema_one_corpus_is_rebuilt_as_schema_two(
            self, isolated_cache, monkeypatch):
        """A store holding only a corpus line of the earlier store
        format rebuilds the corpus, rewrites it in the current format
        and compacts the dead line away."""
        built = cached_dataset(SIZE, SEED)
        key = _dataset_cache_key(SIZE, SEED, "looprag")
        payload = active_artifacts().read(DATASETS_STREAM, key)
        [path] = active_artifacts().shard_paths(DATASETS_STREAM)
        path.write_text(json.dumps({"schema": 1, "key": key,
                                    "payload": payload, "crc": 0}) + "\n")
        forget_memory()
        builds = []
        real_build = dataset_mod.build_dataset
        monkeypatch.setattr(
            dataset_mod, "build_dataset",
            lambda *a, **k: builds.append(a) or real_build(*a, **k))
        rebuilt = cached_dataset(SIZE, SEED)
        assert len(builds) == 1
        assert ranks(rebuilt) == ranks(built)
        stats = active_artifacts().stream_stats(DATASETS_STREAM)
        assert (stats.entries, stats.corrupt) == (1, 0)
        [new] = path.read_bytes().splitlines()
        assert json.loads(new)["schema"] == STORAGE_SCHEMA == 2
        assert json.loads(new)["payload"] == payload

    def test_rebuild_reclaims_an_undecodable_corpus_line(
            self, isolated_cache):
        """Scans skip a dead line every time it is read; the rebuild
        that replaces it must also remove it from the shard."""
        cached_dataset(SIZE, SEED)
        [path] = active_artifacts().shard_paths(DATASETS_STREAM)
        good = path.read_bytes()
        path.write_bytes(b'{"schema":2,"key":\x00 not a store line\n')
        forget_memory()
        assert active_artifacts().stream_stats(
            DATASETS_STREAM).corrupt == 1
        cached_dataset(SIZE, SEED)
        stats = active_artifacts().stream_stats(DATASETS_STREAM)
        assert (stats.entries, stats.corrupt) == (1, 0)
        assert path.read_bytes() == good
