"""Dataset construction: (example, optimized version, data flow) triples.

Mirrors Figure 5's flow: the code generator synthesizes example codes, the
optimization compiler (PLuTo) produces optimized versions + the applied
recipe, and the analyzers (our dependence/property extraction standing in
for Clan + CAnDL) contribute the data-flow information.  Entries carry the
pseudo-C text of both versions — that text is what BM25 indexes and what
demonstration prompts show.

The paper synthesizes 135,364 examples; the generator here is the same
algorithm, only the default corpus size is scaled down (DESIGN.md) and is
configurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..analysis.properties import LoopProperties, extract_properties
from ..codegen import scop_body_to_c
from ..compilers.pluto import Pluto
from ..ir.program import Program
from ..transforms import TransformRecipe
from .colagen import ColaGenSynthesizer
from .generator import ExampleSynthesizer, SynthesisError

#: parameter binding used when PLuTo optimizes examples (the paper's
#: -custom-context global-parameter specification)
DATASET_PARAMS = {"N": 1500}

DEFAULT_DATASET_SIZE = 300


@dataclass(frozen=True)
class DatasetEntry:
    """One (example, optimized, dataflow) triple."""

    name: str
    example: Program
    example_text: str
    optimized: Program
    optimized_text: str
    recipe: TransformRecipe
    properties: LoopProperties


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


def build_dataset(size: int = DEFAULT_DATASET_SIZE, seed: int = 0,
                  generator: str = "looprag",
                  optimizer: Optional[Pluto] = None,
                  progress: Optional[Callable[[int], None]] = None
                  ) -> Dataset:
    """Synthesize ``size`` examples and optimize each with PLuTo."""
    if generator == "looprag":
        synth = ExampleSynthesizer(base_seed=seed)
        make = synth.synthesize
    elif generator == "colagen":
        cola = ColaGenSynthesizer(base_seed=seed)
        make = cola.synthesize
    else:
        raise ValueError(f"unknown generator {generator!r}")
    pluto = optimizer or Pluto()

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
            example=example,
            example_text=scop_body_to_c(example),
            optimized=result.program,
            optimized_text=scop_body_to_c(result.program),
            recipe=result.recipe,
            properties=props,
        ))
        if progress is not None:
            progress(len(entries))
    return Dataset(entries=tuple(entries), generator=generator, seed=seed)


_DATASET_CACHE = {}


#: artifact-store stream holding persisted corpora (the result store's
#: sibling in the same `<cache-dir>/store/`; see `repro.storage`)
DATASETS_STREAM = "datasets"


def _dataset_cache_key(size: int, seed: int, generator: str) -> str:
    """Stream key of the persisted corpus.

    The key embeds :func:`dataset_signature`, so any edit to a
    corpus-determining module changes the key — stale corpora are
    simply never found again (``make clean-cache`` reclaims them, and
    ``repro store compact`` drops superseded ones).
    """
    sig = dataset_signature(size, seed, generator)
    return f"{generator}-n{size}-s{seed}-{sig}"


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

    # one atomic append: concurrent processes racing on a cold cache
    # each publish a complete record (last write wins) instead of
    # interleaving fragments
    store.append(DATASETS_STREAM,
                 _dataset_cache_key(size, seed, generator),
                 dataset_to_payload(dataset))


def cached_dataset(size: int = DEFAULT_DATASET_SIZE, seed: int = 0,
                   generator: str = "looprag") -> Dataset:
    """Memoized :func:`build_dataset` with an on-disk layer.

    Corpora are cached at two levels: in-process (experiments share
    corpora) and persistently in the ``"datasets"`` stream of the
    shared artifact store (``<cache-dir>/store/``) keyed by
    :func:`dataset_signature` — the ~tens-of-seconds synthesis +
    PLuTo-optimization build is paid once per machine, not once per
    process.  ``REPRO_CACHE_DIR`` moves the store,
    ``REPRO_STORE_BACKEND`` swaps its backend, and ``REPRO_NO_CACHE``
    disables the disk layer, exactly like the result store.  Loaded
    corpora are bit-identical to built ones (exact indexed texts and
    properties are stored — see ``synthesis.store``), so retrieval
    ranks and demonstrations don't depend on which level served the
    corpus.
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


_SIGNATURE_CACHE = {}


def dataset_signature(size: int = DEFAULT_DATASET_SIZE, seed: int = 0,
                      generator: str = "looprag") -> str:
    """Stable content signature of a synthesized corpus.

    The evaluation layer's persistent result store keys runs on this,
    and the on-disk corpus cache embeds it in its file names: two
    processes get the same signature iff they would build the same
    corpus — the (size, seed, generator) parameters *and* the sources
    of every corpus-determining module agree.  That closure covers the
    synthesizers, PLuTo and the compiler passes it drives, the
    transform implementations recipes replay, the dependence/property
    analyses (both engines), the C printer whose text BM25 indexes, and
    the (de)serialization itself.  Editing any of those changes the
    signature and invalidates stored corpora/results instead of
    silently serving stale ones.
    """
    key = (size, seed, generator)
    if key not in _SIGNATURE_CACHE:
        import hashlib
        import inspect
        import sys

        from ..analysis import dependences as dependences_module
        from ..analysis import properties as properties_module
        from ..analysis import vectorized as vectorized_module
        from ..codegen import cprinter as cprinter_module
        from ..compilers import passes as passes_module
        from ..compilers import pluto as pluto_module
        from ..ir import serialize as serialize_module
        from ..transforms import (fusion, interchange, parallel, recipe,
                                  scalar, skewing, tiling)
        from . import colagen as colagen_module
        from . import generator as generator_module
        from . import parameters as parameters_module
        from . import store as store_module

        digest = hashlib.sha256(repr(key).encode())
        for module in (generator_module, colagen_module,
                       parameters_module, pluto_module, passes_module,
                       dependences_module, vectorized_module,
                       properties_module, cprinter_module,
                       recipe, fusion, interchange, parallel, scalar,
                       skewing, tiling, serialize_module, store_module,
                       sys.modules[__name__]):
            digest.update(inspect.getsource(module).encode())
        _SIGNATURE_CACHE[key] = digest.hexdigest()[:16]
    return _SIGNATURE_CACHE[key]


def transformation_kinds(dataset: Dataset) -> dict:
    """Which transformation kinds the optimized corpus triggers (Table 4)."""
    counts = {}
    for entry in dataset:
        for kind in entry.recipe.kinds():
            counts[kind] = counts.get(kind, 0) + 1
    return counts
