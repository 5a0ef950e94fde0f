"""LOOPRAG reproduction — retrieval-augmented loop transformation
optimization for Static Control Parts (SCoPs).

Public API tour:

* ``repro.ir``            — parse/build SCoP programs (the Clan substitute)
* ``repro.transforms``    — the loop transformation vocabulary + recipes
* ``repro.analysis``      — dependences, legality, loop properties
* ``repro.machine``       — the analytical performance model + trace sim
* ``repro.runtime``       — the schedule-ordered interpreter
* ``repro.compilers``     — PLuTo / Polly / Graphite / Perspective / ICX
* ``repro.synthesis``     — the parameter-driven dataset generator
* ``repro.retrieval``     — BM25 + LAScore demonstration retrieval
* ``repro.llm``           — Appendix-E prompts + simulated LLM personas
* ``repro.testing``       — mutation + differential testing
* ``repro.pipeline``      — the four-step feedback loop
* ``repro.api``           — the service API: sessions, named parts, events
* ``repro.suites``        — PolyBench (30) / TSVC (84) / LORE (49)
* ``repro.evaluation``    — every table and figure of the paper

Quickstart::

    from repro.api import OptimizationRequest, OptimizerSession
    from repro.ir import parse_scop

    session = OptimizerSession(dataset_size=300)
    program = parse_scop(my_scop_source)
    result = session.optimize(OptimizationRequest.make(
        program, perf_params={"N": 2000}, test_params={"N": 8}))
    print(result.speedup, result.recipe)

Batches reuse the session's corpus/retriever/caches and fan out across
workers (bit-identical to serial)::

    results = session.optimize_many(requests, jobs=4)
"""

from .ir import parse_scop
from .llm import DEEPSEEK_V3, GPT_4O, PERSONAS
from .synthesis import build_dataset, cached_dataset

__version__ = "1.1.0"


def __getattr__(name):
    # the service API imports lazily, keeping ``import repro`` light
    # and cycle-free
    if name in ("OptimizerSession", "OptimizationRequest",
                "OptimizationResult"):
        from . import api
        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "parse_scop",
    "DEEPSEEK_V3", "GPT_4O", "PERSONAS",
    "OptimizerSession", "OptimizationRequest", "OptimizationResult",
    "build_dataset", "cached_dataset",
    "__version__",
]
