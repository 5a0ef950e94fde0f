"""Domain registries: the named parts a session is assembled from.

Four families (plus the transform registry that lives with the
transforms themselves):

* ``LLM_BACKENDS`` — ``name -> factory(persona, seed) -> llm``.  An llm
  object must provide ``generate(prompt, slot, round_tag)`` and
  ``note_result(slot, passed)`` (the :class:`repro.llm.SimulatedLLM`
  protocol).  ``"simulated"`` is the built-in paper backend; a real
  API-backed client registers here without touching the pipeline.
* ``BASE_COMPILER_REGISTRY`` — the ``-O3`` base compilers every
  measured binary goes through (gcc / clang / icx).
* ``OPTIMIZER_REGISTRY`` — the optimizing-compiler baselines
  (``name -> Optimizer`` class, instantiated per use).
* ``RETRIEVAL_METHODS`` — demonstration ranking strategies:
  ``name -> strategy(retriever, target, rng) -> [RetrievedDemo]``.
  The built-ins delegate to :meth:`repro.retrieval.Retriever.rank`'s
  three methods (loop-aware / bm25 / weighted, the Table 6 ablation).

The artifact store is not a registry family: every store client opens
:class:`repro.storage.LocalShardedStore`.

Unknown names raise :class:`repro.registry.UnknownComponentError`,
whose message lists every registered name.
"""

from __future__ import annotations

import random
from typing import Callable, List

from ..compilers import (BASE_COMPILERS, Graphite, IcxOptimizer,
                         Perspective, Polly, Pluto)
from ..llm.personas import Persona
from ..llm.simulated import SimulatedLLM
from ..registry import (DuplicateComponentError, Registry,
                        UnknownComponentError)
from ..retrieval.retriever import METHODS, RetrievedDemo, Retriever
from ..transforms import TRANSFORMS

__all__ = [
    "LLM_BACKENDS", "BASE_COMPILER_REGISTRY", "OPTIMIZER_REGISTRY",
    "RETRIEVAL_METHODS", "TRANSFORMS",
    "DuplicateComponentError", "Registry", "UnknownComponentError",
]

# ----------------------------------------------------------------------
# LLM backends
# ----------------------------------------------------------------------
LLM_BACKENDS = Registry("LLM backend")


@LLM_BACKENDS.register_as("simulated")
def _simulated_backend(persona: Persona, seed: int) -> SimulatedLLM:
    return SimulatedLLM(persona, seed)


# ----------------------------------------------------------------------
# Compilers
# ----------------------------------------------------------------------
BASE_COMPILER_REGISTRY = Registry("base compiler")
for _name, _compiler in BASE_COMPILERS.items():
    BASE_COMPILER_REGISTRY.register(_name, _compiler)

OPTIMIZER_REGISTRY = Registry("optimizing compiler")
for _name, _cls in (("pluto", Pluto), ("polly", Polly),
                    ("graphite", Graphite), ("perspective", Perspective),
                    ("icx", IcxOptimizer)):
    OPTIMIZER_REGISTRY.register(_name, _cls)


# ----------------------------------------------------------------------
# Retrieval methods
# ----------------------------------------------------------------------
RETRIEVAL_METHODS = Registry("retrieval method")


def _builtin_method(method: str) -> Callable:
    def _strategy(retriever: Retriever, target, rng: random.Random
                  ) -> List[RetrievedDemo]:
        return retriever.demonstrations(target, rng, method)
    _strategy.__name__ = f"retrieve_{method.replace('-', '_')}"
    return _strategy


for _method in METHODS:
    RETRIEVAL_METHODS.register(_method, _builtin_method(_method))
