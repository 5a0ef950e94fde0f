"""PLuTo — the polyhedral source-to-source optimizer (demonstration source).

Models PLuTo 0.11.4 with ``-tile -parallel -nocloogbacktrack`` (§5): loop
alignment (per-statement interchange), maximal fusion, band permutation for
locality, rectangular tiling (with a skew fallback to legalise pipelined
bands) and outermost parallelisation.  PLuTo does **not** emit SIMD
pragmas; its output relies on the base compiler, whose auto-vectorizer
bails on tiled min/max bounds — the cause of PLuTo's weak TSVC numbers in
Table 3.

On the paper's ``syrk``/``gemm`` this pipeline reproduces Listing 1
verbatim: interchange ``k``/``j`` in S2, fuse S1 into the band, tile
``i``/``j`` by 32, ``#pragma omp parallel`` on the tile loop.
"""

from __future__ import annotations

from typing import Mapping

from ..analysis.dependences import dependences
from ..ir.program import Program
from ..transforms import TransformRecipe
from .base import Optimizer, OptimizerResult
from .passes import (align_statement_loops, best_band_permutation,
                     distribute_for_tiling, fuse_greedily,
                     parallelize_outermost, tile_shared_band,
                     tile_statement_tails)


class Pluto(Optimizer):
    """The PLuTo pipeline."""

    name = "pluto"
    base_compiler = "gcc"

    def __init__(self, tile_size: int = 32) -> None:
        self.tile_size = tile_size

    def optimize(self, program: Program,
                 params: Mapping[str, int]) -> OptimizerResult:
        # Clan-style SCoP detection is purely syntactic (Appendix C): the
        # TSVC dummy call is treated as a statement and detection succeeds.
        deps = dependences(program)
        steps = []

        program, s = align_statement_loops(program, deps)
        steps += s
        program, s = fuse_greedily(program, deps)
        steps += s
        program, s = best_band_permutation(program, deps, params)
        steps += s
        program, s = tile_shared_band(program, deps, self.tile_size,
                                      allow_skew=True, min_depth=1)
        steps += s
        if not s:
            program, s = distribute_for_tiling(program, deps,
                                               self.tile_size)
            steps += s
        program, s = tile_statement_tails(program, deps, self.tile_size)
        steps += s
        program, s = parallelize_outermost(program, deps)
        steps += s
        return self._done(program, TransformRecipe(tuple(steps)))
