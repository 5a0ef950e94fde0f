"""Clang-Polly (``-mllvm -polly -polly-parallel -polly-tiling``).

Polly integrates the polyhedral model into LLVM with strict semantic SCoP
detection (Appendix C): an opaque call inside the region rejects the SCoP
unless annotated pure.  Its pipeline here: distribute statements into
separate nests, tile the first two loops of each nest, and parallelize the
outermost legal loop; vectorization is left to Clang's auto-vectorizer,
which handles Polly's *untiled* nests (flat TSVC loops — hence Polly's
strong TSVC row in Table 1) but not min/max tile bounds.  Compared to
PLuTo it lacks the alignment/fusion/permutation passes and deep tiling,
which is why it trails PLuTo on PolyBench (Table 1 vs Table 3).
"""

from __future__ import annotations

from typing import Mapping

from ..analysis.dependences import dependences, is_legal_schedule
from ..ir.program import Program
from ..transforms import (TransformError, TransformRecipe, TransformStep,
                          statement_loop_columns)
from .base import Optimizer, OptimizerResult
from .passes import parallelize_outermost


class Polly(Optimizer):
    """The Clang-Polly pipeline."""

    name = "polly"
    base_compiler = "clang"

    def optimize(self, program: Program,
                 params: Mapping[str, int]) -> OptimizerResult:
        if "dummy-call" in program.tags and \
                "pure-annotated" not in program.tags:
            return self._fail(program, "scop-detection: call to opaque "
                                       "function inside region")
        deps = dependences(program)
        steps = []

        # Unlike PLuTo, production Polly does not restructure statement
        # grouping to enable tiling — per-statement tiling must be legal
        # against the program as written, which fails on interleaved
        # multi-statement nests (gemm) and is the main reason Polly trails
        # PLuTo on PolyBench (Table 1 vs Table 3).

        # tile each statement's own band (depth >= 2), skipping duplicated
        # dimensions earlier per-statement tilings may have inserted
        for stmt in list(program.statements):
            cols = []
            seen = set()
            current = program.statement(stmt.name)
            sched = current.schedule.padded(program.schedule_width)
            for col in statement_loop_columns(program, stmt.name):
                signature = str(sched.dims[col])
                if signature not in seen:
                    seen.add(signature)
                    cols.append(col)
            if len(cols) < 2:
                continue
            cols = cols[:2]  # Polly's default band depth
            step = TransformStep.make("tiling", columns=list(cols),
                                      sizes=[32] * len(cols),
                                      stmts=[stmt.name])
            try:
                candidate = step.apply(program)
            except TransformError:
                continue
            if is_legal_schedule(candidate, deps):
                program = candidate
                steps.append(step)

        program, s = parallelize_outermost(program, deps)
        steps += s
        return self._done(program, TransformRecipe(tuple(steps)))
