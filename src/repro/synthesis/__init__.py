"""Dataset synthesis: the parameter-driven generator and baselines."""

from .colagen import ColaGenSynthesizer
from .dataset import (DATASET_PARAMS, Dataset, DatasetEntry,
                      build_dataset, cached_dataset, transformation_kinds)
from .generator import ExampleSynthesizer, SynthesisError
from .parameters import NAME_LIST, SIZE_LIST, LoopParameters
from .store import dataset_from_payload, dataset_to_payload

__all__ = [
    "ColaGenSynthesizer",
    "DATASET_PARAMS", "Dataset", "DatasetEntry",
    "build_dataset", "cached_dataset", "transformation_kinds",
    "ExampleSynthesizer", "SynthesisError",
    "NAME_LIST", "SIZE_LIST", "LoopParameters",
    "dataset_from_payload", "dataset_to_payload",
]
