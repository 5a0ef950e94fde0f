"""GCC-Graphite (``-floop-nest-optimize -floop-parallelize-all``).

Graphite's polyhedral pass is famously conservative in production GCC: it
recognises SCoPs with strict semantic rules (the TSVC ``dummy`` call makes
detection fail, Appendix C; annotating it pure triggers DCE of the whole
loop instead) and rarely restructures.  Modeled behaviour: bail to the
original program whenever any loop-carried flow dependence exists,
otherwise parallelize the outermost loop.  Net effect ≈ 1.0× on PolyBench
and LORE — Table 1's Graphite rows.
"""

from __future__ import annotations

from typing import Mapping

from ..analysis.dependences import KIND_RAW, dependences
from ..ir.program import Program
from ..transforms import TransformRecipe
from .base import Optimizer, OptimizerResult
from .passes import parallelize_outermost


class Graphite(Optimizer):
    """The GCC-Graphite pipeline."""

    name = "graphite"
    base_compiler = "gcc"

    def optimize(self, program: Program,
                 params: Mapping[str, int]) -> OptimizerResult:
        if "dummy-call" in program.tags:
            if "pure-annotated" in program.tags:
                return self._fail(
                    program, "dce: pure-annotated call makes the outer "
                             "computation loop dead and it is eliminated")
            return self._fail(program, "scop-detection: opaque call")
        deps = dependences(program)
        if any(d.kind == KIND_RAW and d.loop_carried for d in deps):
            # conservative bail-out: emit the original code
            return self._done(program, TransformRecipe())
        program, steps = parallelize_outermost(program, deps,
                                               search_depth=1)
        return self._done(program, TransformRecipe(tuple(steps)))
