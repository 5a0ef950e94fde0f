"""Dataset persistence round-trip tests."""

import numpy as np
import pytest

import repro.synthesis.store as store_mod
from repro.runtime import run
from repro.synthesis import build_dataset, load_dataset, save_dataset
from repro.synthesis.store import dataset_from_payload, dataset_to_payload


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(size=15, seed=51)


class TestRoundTrip:
    def test_save_load_preserves_count(self, dataset, tmp_path):
        path = str(tmp_path / "corpus.json")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(dataset)
        assert loaded.generator == dataset.generator
        assert loaded.seed == dataset.seed

    def test_examples_semantically_identical(self, dataset, tmp_path):
        path = str(tmp_path / "corpus.json")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        for original, restored in zip(dataset, loaded):
            a = run(original.example, {"N": 9})
            b = run(restored.example, {"N": 9})
            assert a.checksum == pytest.approx(b.checksum)

    def test_recipes_replayed(self, dataset, tmp_path):
        path = str(tmp_path / "corpus.json")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        for original, restored in zip(dataset, loaded):
            assert restored.recipe.kinds() == original.recipe.kinds()
            a = run(original.optimized, {"N": 9})
            b = run(restored.optimized, {"N": 9})
            for name in a.outputs:
                assert np.allclose(a.outputs[name], b.outputs[name],
                                   rtol=1e-6, equal_nan=True)

    def test_loaded_dataset_retrievable(self, dataset, tmp_path):
        from repro.retrieval import Retriever
        path = str(tmp_path / "corpus.json")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        retriever = Retriever(loaded)
        target = dataset[0].example
        ranked = retriever.rank(target, top_n=3)
        assert ranked and ranked[0].entry.name == dataset[0].name

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 99, "entries": []}')
        with pytest.raises(ValueError):
            load_dataset(str(path))

    def test_format_one_rejected(self, dataset):
        payload = dataset_to_payload(dataset)
        payload["format"] = 1
        with pytest.raises(ValueError, match="format 1"):
            dataset_from_payload(payload)

    def test_load_never_reprints_programs(self, dataset, monkeypatch):
        """Stored texts are used as-is: loading a corpus must not pay
        for printing every example and optimized program again."""
        payload = dataset_to_payload(dataset)

        def refuse(program):
            raise AssertionError(f"re-printed {program.name}")

        monkeypatch.setattr(store_mod, "scop_body_to_c", refuse)
        loaded = dataset_from_payload(payload)
        assert len(loaded) == len(dataset)
        for original, restored in zip(dataset, loaded):
            assert (restored.example.fingerprint()
                    == original.example.fingerprint())
            assert (restored.optimized.fingerprint()
                    == original.optimized.fingerprint())
            assert restored.example_text == original.example_text
            assert restored.optimized_text == original.optimized_text

    def test_file_is_human_readable(self, dataset, tmp_path):
        path = tmp_path / "corpus.json"
        save_dataset(dataset, str(path))
        text = path.read_text()
        assert "for (" in text        # pseudo-C bodies
        assert '"kind"' in text       # recipe steps
