"""ICX (``-O3 -qopenmp -xHost``) — the general-purpose Intel compiler.

Without ``-parallel`` ICX does not auto-parallelize; its edge is an
aggressive vectorizer that also handles reductions.  Modeled as: no loop
restructuring, reduction-capable auto-vectorization (the ``icx`` base
compiler's ``finalize``).
"""

from __future__ import annotations

from typing import Mapping

from ..analysis.dependences import dependences
from ..ir.program import Program
from ..transforms import TransformRecipe
from .base import ICX, Optimizer, OptimizerResult
from .passes import vectorize_innermost


class IcxOptimizer(Optimizer):
    """The ICX pipeline: vectorization only."""

    name = "icx"
    base_compiler = "icx"

    def optimize(self, program: Program,
                 params: Mapping[str, int]) -> OptimizerResult:
        deps = dependences(program)
        program, steps = vectorize_innermost(program, deps,
                                             allow_reductions=True)
        return self._done(program, TransformRecipe(tuple(steps)))
