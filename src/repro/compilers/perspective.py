"""Perspective — speculative automatic parallelization (ASPLOS'20).

Perspective profiles the program, speculates that unobserved dependences do
not occur, parallelizes the outermost loop as speculative DOALL with
runtime validation, and falls back on misspeculation.  Modeled failure
modes mirror §6.2.1: a profiling pass that times out on huge iteration
counts (the reason TSVC is excluded) and an analysis/validation planner
that gives up on dependence-dense regions (low pass@k on PolyBench).

Anti (WAR) and output (WAW) dependences are privatizable, so only carried
flow (RAW) dependences block speculation.  Validation overhead limits
scaling — the evaluation harness runs Perspective results on a machine
capped at fewer effective threads.
"""

from __future__ import annotations

from typing import Mapping

from ..analysis.dependences import KIND_RAW, dependences, parallel_violations
from ..ir.program import Program
from ..machine.model import DEFAULT_MACHINE, MachineModel
from ..transforms import TransformError, TransformRecipe, TransformStep
from ..transforms.base import dynamic_columns

from .base import Optimizer, OptimizerResult

#: modeled ceiling for the profiling run (outermost loops of TSVC exceed it)
PROFILE_ITER_LIMIT = 4.0e9
#: dependence classes beyond which the validation planner gives up
ANALYSIS_DEP_LIMIT = 12

#: effective threads under speculative validation overhead
SPECULATION_THREADS = 12


class Perspective(Optimizer):
    """The Perspective speculative-DOALL pipeline."""

    name = "perspective"
    base_compiler = "clang"
    machine_override: MachineModel = DEFAULT_MACHINE.with_threads(
        SPECULATION_THREADS)

    def optimize(self, program: Program,
                 params: Mapping[str, int]) -> OptimizerResult:
        total = 1.0
        for stmt in program.statements:
            size = 1.0
            for spec in stmt.domain.iters:
                size *= max(1, stmt.domain.extent_hint(spec.name, params))
            total = max(total, size)
        if total > PROFILE_ITER_LIMIT:
            return self._fail(program,
                              "profiling-timeout: PROFILE_TIMEOUT exceeded")
        deps = dependences(program)
        if len(deps) > ANALYSIS_DEP_LIMIT:
            return self._fail(program,
                              "analysis: too many dependence classes for "
                              "the validation planner")
        for col in dynamic_columns(program)[:2]:
            carried_flow = [d for d in parallel_violations(program, deps, col)
                            if d.kind == KIND_RAW]
            if carried_flow:
                continue
            step = TransformStep.make("parallel", col=col)
            try:
                return self._done(step.apply(program),
                                  TransformRecipe((step,)))
            except TransformError:
                continue
        return self._fail(program,
                          "speculation: carried flow dependence on every "
                          "outer loop")
