"""Dataset persistence.

The paper publishes its synthesized corpus as an artifact; this module
serialises a :class:`Dataset` to a single JSON file and loads it back.
Programs round-trip through the pseudo-C dialect (the printer emits it,
the Clan-substitute parser reads it), recipes through their argument
dicts — so a stored corpus is human-readable and diffable.

Only *original* example programs are stored as text; the optimized
versions are reconstructed by replaying the stored recipe, which keeps
the file compact and guarantees recipe/optimized consistency.

Format 2 additionally stores, per entry, the *structural* IR of both
programs (``repro.ir.serialize`` — the printer/parser round-trip is
readable but not faithful: schedule constants renumber, so replaying a
recipe against a re-parsed example can fail or drift), the exact
indexed texts (``example_text`` / ``optimized_text``) and the extracted
:class:`~repro.analysis.properties.LoopProperties`.  A loaded corpus is
therefore *bit-identical* to the built one — same fingerprints, same
retrieval ranks, same demonstration prompts — without re-running PLuTo,
recipe replay or property extraction.  This is what lets
``cached_dataset`` persist corpora across processes: the document built
by :func:`dataset_to_payload` is appended to the ``"datasets"`` stream
of the shared artifact store (``.repro_cache/store/datasets/``; see
:mod:`repro.storage`).  Any other format is rejected.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, List

from ..analysis.properties import LoopProperties
from ..codegen import scop_body_to_c
from ..ir.serialize import program_from_json, program_to_json
from ..transforms import TransformRecipe, TransformStep
from .dataset import Dataset, DatasetEntry

FORMAT_VERSION = 2


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


def dataset_to_payload(dataset: Dataset) -> Dict[str, Any]:
    """The format-2 JSON document for ``dataset``.

    This is both what :func:`save_dataset` writes to standalone files
    and what the persistent corpus cache appends to the ``"datasets"``
    stream of the shared artifact store — one payload format, two
    transports.
    """
    return {
        "format": FORMAT_VERSION,
        "generator": dataset.generator,
        "seed": dataset.seed,
        "entries": [
            {
                "name": entry.name,
                "source": _program_source(entry),  # human-readable view
                "recipe": _recipe_to_json(entry.recipe),
                "program": program_to_json(entry.example),
                "optimized": program_to_json(entry.optimized),
                "example_text": entry.example_text,
                "optimized_text": entry.optimized_text,
                "properties": _properties_to_json(entry.properties),
            }
            for entry in dataset
        ],
    }


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset to ``path`` as JSON."""
    with open(path, "w") as handle:
        json.dump(dataset_to_payload(dataset), handle, indent=1)


def load_dataset(path: str) -> Dataset:
    """Load a dataset written by :func:`save_dataset`."""
    with open(path) as handle:
        payload = json.load(handle)
    return dataset_from_payload(payload)


def dataset_from_payload(payload: Dict[str, Any]) -> Dataset:
    """Rebuild a :class:`Dataset` from its format-2 JSON document."""
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format {payload.get('format')!r}")
    entries: List[DatasetEntry] = []
    for item in payload["entries"]:
        entries.append(DatasetEntry(
            name=item["name"],
            example=program_from_json(item["program"]),
            example_text=item["example_text"],
            optimized=program_from_json(item["optimized"]),
            optimized_text=item["optimized_text"],
            recipe=_recipe_from_json(item["recipe"]),
            properties=_properties_from_json(item["properties"]),
        ))
    return Dataset(entries=tuple(entries),
                   generator=payload["generator"],
                   seed=payload["seed"])
