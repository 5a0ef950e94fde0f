"""Dataset persistence round-trip tests: each corpus goes through
``dataset_to_payload``, JSON text and ``dataset_from_payload``, the
path the ``datasets`` stream of the artifact store takes."""

import json
import random

import numpy as np
import pytest

import repro.ir.serialize as serialize_mod
import repro.synthesis.dataset as dataset_mod
import repro.synthesis.store as store_mod
from repro.llm.prompts import demo_prompt
from repro.retrieval import Retriever
from repro.runtime import run
from repro.synthesis import (build_dataset, dataset_from_payload,
                             dataset_to_payload)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(size=15, seed=51)


def _round_trip(dataset):
    """``dataset`` stored as JSON text and loaded back."""
    return dataset_from_payload(json.loads(json.dumps(
        dataset_to_payload(dataset))))


class TestRoundTrip:
    def test_save_load_preserves_count(self, dataset):
        loaded = _round_trip(dataset)
        assert len(loaded) == len(dataset)
        assert loaded.generator == dataset.generator
        assert loaded.seed == dataset.seed

    def test_examples_semantically_identical(self, dataset):
        loaded = _round_trip(dataset)
        for original, restored in zip(dataset, loaded):
            a = run(original.example, {"N": 9})
            b = run(restored.example, {"N": 9})
            assert a.checksum == pytest.approx(b.checksum)

    def test_recipes_replayed(self, dataset):
        loaded = _round_trip(dataset)
        for original, restored in zip(dataset, loaded):
            assert restored.recipe.kinds() == original.recipe.kinds()
            a = run(original.optimized, {"N": 9})
            b = run(restored.optimized, {"N": 9})
            for name in a.outputs:
                assert np.allclose(a.outputs[name], b.outputs[name],
                                   rtol=1e-6, equal_nan=True)

    def test_loaded_dataset_retrievable(self, dataset):
        loaded = _round_trip(dataset)
        retriever = Retriever(loaded)
        target = dataset[0].example
        ranked = retriever.rank(target, top_n=3)
        assert ranked and ranked[0].entry.name == dataset[0].name

    def test_format_version_checked(self):
        with pytest.raises(ValueError):
            dataset_from_payload(json.loads('{"format": 99, "entries": []}'))

    def test_format_one_rejected(self, dataset):
        payload = dataset_to_payload(dataset)
        payload["format"] = 1
        with pytest.raises(ValueError, match="format 1"):
            dataset_from_payload(payload)

    def test_format_two_rejected(self, dataset):
        payload = dataset_to_payload(dataset)
        payload["format"] = 2
        with pytest.raises(ValueError, match="format 2"):
            dataset_from_payload(payload)

    @pytest.mark.parametrize("field,value", [
        ("program", {"name": "ex"}), ("optimized", None),
        ("features", "S1")])
    def test_malformed_entry_rejected(self, dataset, field, value):
        payload = dataset_to_payload(dataset)
        payload["entries"][-1][field] = value
        with pytest.raises(ValueError, match="malformed"):
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

    def test_load_and_retrieval_parse_no_program(self, dataset,
                                                 monkeypatch, gemm):
        """Loading, indexing, ranking and prompting read only the stored
        texts and features: no program is parsed until one is read."""
        payload = dataset_to_payload(dataset)

        def refuse(data):
            raise AssertionError(f"parsed {data['name']}")

        for module in (serialize_mod, dataset_mod):
            monkeypatch.setattr(module, "program_from_json", refuse)
        loaded = dataset_from_payload(payload)
        retriever = Retriever(loaded)
        demos = retriever.demonstrations(gemm, random.Random(0))
        assert demos
        prompt = demo_prompt(gemm, "target", demos)
        assert demos[0].entry.example_text in prompt.text
        monkeypatch.undo()
        for original, restored in zip(dataset, loaded):
            assert (restored.example.fingerprint()
                    == original.example.fingerprint())
            assert (restored.optimized.fingerprint()
                    == original.optimized.fingerprint())

    def test_file_is_human_readable(self, dataset):
        text = json.dumps(dataset_to_payload(dataset), indent=1)
        assert "for (" in text        # pseudo-C bodies
        assert '"kind"' in text       # recipe steps
