"""Domain registries: the named parts a session is assembled from.

Three families (plus the transform registry that lives with the
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

Retrieval methods and the artifact store are not registry families: a
session names one of :data:`repro.retrieval.retriever.METHODS`
(loop-aware / bm25 / weighted, the Table 6 ablation), and every store
client opens :class:`repro.storage.LocalShardedStore`.

Unknown names raise :class:`repro.registry.UnknownComponentError`,
whose message lists every registered name.
"""

from __future__ import annotations

from ..compilers import (BASE_COMPILERS, Graphite, IcxOptimizer,
                         Perspective, Polly, Pluto)
from ..llm.personas import Persona
from ..llm.simulated import SimulatedLLM
from ..registry import (DuplicateComponentError, Registry,
                        UnknownComponentError)
from ..transforms import TRANSFORMS

__all__ = [
    "LLM_BACKENDS", "BASE_COMPILER_REGISTRY", "OPTIMIZER_REGISTRY",
    "TRANSFORMS",
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

