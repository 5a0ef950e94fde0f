"""Dataset construction: (example, optimized version, data flow) triples.

Mirrors Figure 5's flow: the code generator synthesizes example codes, the
optimization compiler (PLuTo) produces optimized versions + the applied
recipe, and the analyzers (our dependence/property extraction standing in
for Clan + CAnDL) contribute the data-flow information.  Entries carry the
pseudo-C text of both versions — that text is what BM25 indexes and what
demonstration prompts show.

The paper synthesizes 135,364 examples; the generator here is the same
algorithm, only the corpus is scaled down: every caller names its size
(a session's default is ``api.session.DEFAULT_DATASET_SIZE``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from ..analysis.properties import LoopProperties, extract_properties
from ..codegen import scop_body_to_c
from ..compilers.pluto import Pluto
from ..ir.program import Program
from ..ir.serialize import program_from_json
from ..transforms import TransformRecipe
from .colagen import ColaGenSynthesizer
from .generator import ExampleSynthesizer, SynthesisError

if TYPE_CHECKING:
    from ..retrieval.features import StatementFeatures

#: parameter binding used when PLuTo optimizes examples (the paper's
#: -custom-context global-parameter specification)
DATASET_PARAMS = {"N": 1500}

#: the corpus generators :func:`build_dataset` knows
GENERATORS = ("looprag", "colagen")


#: a program, or its IR as compact JSON text (``repro.ir.serialize``)
ProgramIR = Union[Program, str]


def _program(ir: ProgramIR) -> Program:
    return program_from_json(json.loads(ir)) if isinstance(ir, str) else ir


@dataclass(frozen=True)
class DatasetEntry:
    """One (example, optimized, dataflow) triple.

    A built entry holds its two programs.  A loaded one
    (``synthesis.store``) holds their IR as JSON text and its stored
    retrieval features instead: ranking reads only the indexed texts
    and :attr:`features`, so :attr:`example` and :attr:`optimized` are
    parsed on first access.
    """

    name: str
    example_ir: ProgramIR
    example_text: str
    optimized_ir: ProgramIR
    optimized_text: str
    recipe: TransformRecipe
    properties: LoopProperties
    #: the example's LAScore features; ``None`` extracts them on first
    #: access to :attr:`features`
    stored_features: Optional[Tuple["StatementFeatures", ...]] = None

    @cached_property
    def example(self) -> Program:
        return _program(self.example_ir)

    @cached_property
    def optimized(self) -> Program:
        return _program(self.optimized_ir)

    @cached_property
    def features(self) -> Tuple["StatementFeatures", ...]:
        """The example's LAScore features (``retrieval.features``)."""
        if self.stored_features is not None:
            return self.stored_features
        from ..retrieval.features import program_features

        return program_features(self.example)


@dataclass(frozen=True)
class Dataset:
    """An indexed corpus of demonstration candidates."""

    entries: tuple
    generator: str
    seed: int

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx: int) -> DatasetEntry:
        return self.entries[idx]


def build_dataset(size: int, seed: int = 0,
                  generator: str = "looprag") -> Dataset:
    """Synthesize ``size`` examples and optimize each with PLuTo."""
    if generator == "looprag":
        synth = ExampleSynthesizer(base_seed=seed)
        make = synth.synthesize
    elif generator == "colagen":
        cola = ColaGenSynthesizer(base_seed=seed)
        make = cola.synthesize
    else:
        raise ValueError(f"unknown generator {generator!r}")
    pluto = Pluto()

    entries: List[DatasetEntry] = []
    index = 0
    while len(entries) < size and index < size * 3:
        index += 1
        try:
            example = make(index)
        except SynthesisError:
            continue
        result = pluto.optimize(example, DATASET_PARAMS)
        if not result.ok:
            continue
        props = extract_properties(example)
        entries.append(DatasetEntry(
            name=example.name,
            example_ir=example,
            example_text=scop_body_to_c(example),
            optimized_ir=result.program,
            optimized_text=scop_body_to_c(result.program),
            recipe=result.recipe,
            properties=props,
        ))
    return Dataset(entries=tuple(entries), generator=generator, seed=seed)


_DATASET_CACHE = {}


#: artifact-store stream holding persisted corpora (the result store's
#: sibling in the same `<cache-dir>/store/`; see `repro.storage`)
DATASETS_STREAM = "datasets"


def _dataset_cache_key(size: int, seed: int, generator: str) -> str:
    """Stream key of the persisted corpus.

    The key embeds the result key's code signature
    (``repro.evaluation.store.code_signature``), so any edit to a
    result-determining module changes the key — a stale corpus is
    never found again, and the rebuild deletes it (a rebuild also
    compacts away superseded and undecodable lines).
    """
    from ..evaluation.store import code_signature

    return f"{generator}-n{size}-s{seed}-{code_signature()}"


def _load_persistent(size: int, seed: int, generator: str):
    from ..evaluation.store import active_artifacts

    store = active_artifacts()
    if store is None:
        return None
    from .store import dataset_from_payload

    payload = store.read(DATASETS_STREAM,
                         _dataset_cache_key(size, seed, generator))
    if payload is None:
        return None
    try:
        return dataset_from_payload(payload)
    except Exception:
        return None  # foreign/damaged payload: rebuild and rewrite


def _store_persistent(dataset: Dataset, size: int, seed: int,
                      generator: str) -> None:
    from ..evaluation.store import active_artifacts

    store = active_artifacts()
    if store is None:
        return
    from .store import dataset_to_payload

    key = _dataset_cache_key(size, seed, generator)
    # one atomic append: concurrent processes racing on a cold cache
    # each publish a complete record (last write wins) instead of
    # interleaving fragments
    store.append(DATASETS_STREAM, key, dataset_to_payload(dataset))
    # a rebuild usually means the old line is dead (damaged, an older
    # store format, superseded, or keyed by an older code signature):
    # reclaim it now rather than have every later process map and skip
    # it; next to a rebuild's tens of seconds the rewrite is free
    prefix = key[:key.rindex("-") + 1]  # this corpus, any signature
    for old in store.list(DATASETS_STREAM):
        if old.startswith(prefix) and old != key:
            store.delete(DATASETS_STREAM, old)
    store.compact(DATASETS_STREAM)


def cached_dataset(size: int, seed: int = 0,
                   generator: str = "looprag") -> Dataset:
    """Memoized :func:`build_dataset` with an on-disk layer.

    Corpora are cached at two levels: in-process (experiments share
    corpora) and persistently in the ``"datasets"`` stream of the
    shared artifact store (``<cache-dir>/store/``), keyed by the
    corpus parameters and the same code signature as results (see
    :func:`_dataset_cache_key`) — the ~tens-of-seconds synthesis +
    PLuTo-optimization build is paid once per machine, not once per
    process.  ``REPRO_CACHE_DIR`` moves the store and
    ``REPRO_NO_CACHE`` disables the disk layer, exactly like the result
    store.  Loaded corpora are bit-identical to built ones (exact
    indexed texts, properties and retrieval features are stored — see
    ``synthesis.store``), so retrieval ranks and demonstrations don't
    depend on which level served the corpus.
    """
    key = (size, seed, generator)
    dataset = _DATASET_CACHE.get(key)
    if dataset is None:
        dataset = _load_persistent(size, seed, generator)
        if dataset is None:
            dataset = build_dataset(size, seed, generator)
            _store_persistent(dataset, size, seed, generator)
        _DATASET_CACHE[key] = dataset
    return dataset


def transformation_kinds(dataset: Dataset) -> dict:
    """Which transformation kinds the optimized corpus triggers (Table 4)."""
    counts = {}
    for entry in dataset:
        for kind in entry.recipe.kinds():
            counts[kind] = counts.get(kind, 0) + 1
    return counts
