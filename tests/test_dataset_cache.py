"""Persistent corpus cache: build -> persist -> reload, bit-identically.

`cached_dataset` keeps corpora in the ``"datasets"`` stream of the
shared artifact store (`<cache-dir>/store/`) keyed by
`dataset_signature()`; a corpus served from the store must be
indistinguishable from a freshly built one — same signature, same
indexed texts, same properties, and bit-identical retrieval ranks.
"""

import os

import pytest

import repro.synthesis.dataset as dataset_mod
from repro.evaluation import store as result_store_mod
from repro.evaluation.store import active_artifacts
from repro.ir import parse_scop
from repro.retrieval import Retriever
from repro.synthesis import cached_dataset, dataset_signature
from repro.synthesis.dataset import DATASETS_STREAM, _dataset_cache_key

SIZE, SEED = 10, 31


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    # every scenario here is backend-agnostic: inherit an ambient
    # REPRO_STORE_BACKEND (the CI store-stress matrix sets it)
    monkeypatch.setenv("REPRO_STORE_BACKEND",
                       os.environ.get("REPRO_STORE_BACKEND") or "local")
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
        assert dataset_signature(SIZE, SEED) in key

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
        # the signature is a pure function of (key, sources): identical
        assert dataset_signature(SIZE, SEED) == dataset_signature(SIZE,
                                                                  SEED)

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
        cached_dataset(SIZE, SEED)
        key = _dataset_cache_key(SIZE, SEED, "looprag")
        active_artifacts().append(DATASETS_STREAM, key,
                                  {"format": -1, "entries": "garbage"})
        forget_memory()
        rebuilt = cached_dataset(SIZE, SEED)
        assert len(rebuilt) == SIZE
        # the rebuild republished a valid payload over the bad one
        payload = active_artifacts().read(DATASETS_STREAM, key)
        assert payload["format"] == 2
        assert len(payload["entries"]) == SIZE
        stats = active_artifacts().stream_stats(DATASETS_STREAM)
        assert stats.superseded == 2  # bad overwrite + rebuild
