"""Dataset persistence.

The paper publishes its synthesized corpus as an artifact; this module
serialises a :class:`Dataset` to a single JSON document and loads it
back.  Each entry keeps a human-readable ``source`` view in the
pseudo-C dialect and its recipe as argument dicts, so a stored corpus
is readable and diffable.

The format (3) is built to be *retrieval-ready* on load.  Per entry it
stores:

* ``program`` and ``optimized`` — the *structural* IR of both programs
  (``repro.ir.serialize``), each as one compact JSON string.  The
  printer/parser round-trip is readable but not faithful (schedule
  constants renumber, so replaying a recipe against a re-parsed example
  can fail or drift); the IR is.  Loading keeps the strings and
  :class:`DatasetEntry` parses one only when something reads
  ``example`` or ``optimized``;
* ``example_text`` / ``optimized_text`` — the exact indexed texts BM25
  ranks and demonstration prompts show;
* ``properties`` — the extracted
  :class:`~repro.analysis.properties.LoopProperties`;
* ``features`` — the example's LAScore features
  (``repro.retrieval.features``): per statement its name and, per
  feature kind, ``[key, count]`` pairs.

Ranking reads only the texts and the features, so loading a corpus and
indexing it for retrieval parses no program.  A loaded corpus is still
*bit-identical* to the built one — same fingerprints, same retrieval
ranks, same demonstration prompts — without re-running PLuTo, recipe
replay, property or feature extraction.  This is what lets
``cached_dataset`` persist corpora across processes: the document built
by :func:`dataset_to_payload` is appended to the ``"datasets"`` stream
of the shared artifact store (``.repro_cache/store/datasets/``; see
:mod:`repro.storage`).  Any other format is rejected, and so is an
entry of the wrong shape.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, List, Tuple

from ..analysis.properties import LoopProperties
from ..codegen import scop_body_to_c
from ..ir.program import Program
from ..ir.serialize import program_to_json
from ..retrieval.features import StatementFeatures
from ..transforms import TransformRecipe, TransformStep
from .dataset import Dataset, DatasetEntry

FORMAT_VERSION = 3


def _program_source(entry: DatasetEntry) -> str:
    program = entry.example
    decls: List[str] = []
    for name, value in program.scalars:
        decls.append(f"scalars {name}={value};")
    for decl in program.arrays:
        dims = "".join(f"[{d}]" for d in decl.dims)
        out = " output" if decl.name in program.outputs else ""
        decls.append(f"array {decl.name}{dims}{out};")
    return (f"scop {program.name}({', '.join(program.params)}) {{\n"
            + "\n".join(decls) + "\n"
            + scop_body_to_c(program) + "\n}")


def _recipe_to_json(recipe: TransformRecipe) -> List[Dict[str, Any]]:
    return [{"kind": step.kind, "args": step.arg_dict()}
            for step in recipe.steps]


def _recipe_from_json(data: List[Dict[str, Any]]) -> TransformRecipe:
    steps = [TransformStep.make(item["kind"], **item["args"])
             for item in data]
    return TransformRecipe(tuple(steps))


def _properties_to_json(props: LoopProperties) -> Dict[str, Any]:
    payload = asdict(props)
    for name, value in payload.items():
        if isinstance(value, tuple):
            payload[name] = list(value)
    return payload


def _properties_from_json(data: Dict[str, Any]) -> LoopProperties:
    return LoopProperties(
        n_statements=int(data["n_statements"]),
        bounds_iter_refs=int(data["bounds_iter_refs"]),
        loop_depth=int(data["loop_depth"]),
        perfect=bool(data["perfect"]),
        n_dependences=int(data["n_dependences"]),
        dep_types=tuple(str(t) for t in data["dep_types"]),
        max_dep_distance=int(data["max_dep_distance"]),
        n_arrays=int(data["n_arrays"]),
        array_names=tuple(str(n) for n in data["array_names"]),
        total_array_cells=int(data["total_array_cells"]),
        index_signatures=tuple(str(s) for s in data["index_signatures"]),
    )


def _ir_to_json(program: Program) -> str:
    return json.dumps(program_to_json(program), separators=(",", ":"))


def _features_to_json(features: Tuple[StatementFeatures, ...]
                      ) -> List[Any]:
    return [[stmt.statement,
             [[kind, [list(item) for item in items]]
              for kind, items in stmt.features]]
            for stmt in features]


def _features_from_json(data: List[Any]) -> Tuple[StatementFeatures, ...]:
    return tuple(
        StatementFeatures(statement=name, features=tuple(
            (kind, tuple(map(tuple, items))) for kind, items in kinds))
        for name, kinds in data)


def _entry_from_json(item: Dict[str, Any]) -> DatasetEntry:
    program, optimized = item["program"], item["optimized"]
    features = item["features"]
    # a foreign or damaged entry fails here, not on first access
    if not (isinstance(program, str) and isinstance(optimized, str)
            and isinstance(features, list)):
        raise ValueError(f"malformed dataset entry {item.get('name')!r}")
    return DatasetEntry(
        name=item["name"],
        example_ir=program,
        example_text=item["example_text"],
        optimized_ir=optimized,
        optimized_text=item["optimized_text"],
        recipe=_recipe_from_json(item["recipe"]),
        properties=_properties_from_json(item["properties"]),
        stored_features=_features_from_json(features),
    )


def dataset_to_payload(dataset: Dataset) -> Dict[str, Any]:
    """The format-3 JSON document for ``dataset``: what the persistent
    corpus cache appends to the ``"datasets"`` stream of the shared
    artifact store, the one place a corpus is persisted."""
    return {
        "format": FORMAT_VERSION,
        "generator": dataset.generator,
        "seed": dataset.seed,
        "entries": [
            {
                "name": entry.name,
                "source": _program_source(entry),  # human-readable view
                "recipe": _recipe_to_json(entry.recipe),
                "program": _ir_to_json(entry.example),
                "optimized": _ir_to_json(entry.optimized),
                "example_text": entry.example_text,
                "optimized_text": entry.optimized_text,
                "properties": _properties_to_json(entry.properties),
                "features": _features_to_json(entry.features),
            }
            for entry in dataset
        ],
    }


def dataset_from_payload(payload: Dict[str, Any]) -> Dataset:
    """Rebuild a :class:`Dataset` from its format-3 JSON document,
    parsing no program."""
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format {payload.get('format')!r}")
    entries = tuple(_entry_from_json(item) for item in payload["entries"])
    return Dataset(entries=entries,
                   generator=payload["generator"],
                   seed=payload["seed"])
