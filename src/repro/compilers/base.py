"""Compiler baseline plumbing.

Every baseline of Table 1 is modeled as a pipeline over the IR:

* a **base compiler** (:class:`BaseCompiler`: GCC / Clang / ICX at ``-O3``)
  provides ``finalize`` — the auto-vectorization every measured binary gets
  ("all codes are compiled using GCC", §6.1);
* an **optimizer** (:class:`Optimizer`: Graphite, Polly, Perspective,
  PLuTo) provides ``optimize(program, params)`` returning an
  :class:`OptimizerResult` with the transformed program, the
  :class:`TransformRecipe` it applied, and a failure reason when SCoP
  detection / profiling / timeouts abort (the paper's per-compiler
  pass@k losses).

Auto-vectorization rules follow the production compilers they model: only
innermost loops with plain (non-tiled, guard-free) bounds, only when no
dependence is carried at that level; reductions vectorize only for
compilers flagged ``vectorizes_reductions`` (ICX).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.dependences import Dependence, dependences
from ..ir.program import Program
from ..ir.schedule import TileDim
from ..transforms import TransformRecipe, innermost_column, pad_statements
from ..transforms.base import dynamic_columns


@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of one optimizing-compiler run."""

    compiler: str
    program: Program
    recipe: TransformRecipe
    ok: bool
    failure: Optional[str] = None

    @property
    def changed(self) -> bool:
        return bool(self.recipe)


class Optimizer:
    """Interface of the optimizing compilers."""

    name = "optimizer"
    #: the :data:`BASE_COMPILERS` key whose ``-O3`` finalizes this
    #: optimizer's output (§6.1)
    base_compiler: str

    def optimize(self, program: Program,
                 params: Mapping[str, int]) -> OptimizerResult:
        raise NotImplementedError

    def _fail(self, program: Program, reason: str) -> OptimizerResult:
        return OptimizerResult(self.name, program, TransformRecipe(),
                               ok=False, failure=reason)

    def _done(self, program: Program,
              recipe: TransformRecipe) -> OptimizerResult:
        return OptimizerResult(self.name, program, recipe, ok=True)


def _stmt_has_tiles(program: Program, stmt_name: str) -> bool:
    stmt = program.statement(stmt_name)
    return any(isinstance(d, TileDim) for d in stmt.schedule.dims)


def vector_violations(program: Program, deps: Sequence[Dependence],
                      col: int, stmt_names: Sequence[str]) -> List[Dependence]:
    """Dependences carried at ``col`` that involve the given statements."""
    from ..analysis.dependences import parallel_violations

    names = set(stmt_names)
    return [dep for dep in parallel_violations(program, deps, col)
            if dep.source in names or dep.target in names]


def concurrency_violations(program: Program, deps: Sequence[Dependence],
                           col: int,
                           forgive_reductions: bool = True
                           ) -> List[Dependence]:
    """Dependences that make column ``col`` unsafe to run concurrently.

    With ``forgive_reductions`` a self-dependence through the accumulation
    target of a reduction statement is excused — the semantics an OpenMP
    ``reduction(+:...)`` clause (or ``simd reduction``) provides.  LLMs
    routinely emit those clauses; PLuTo/Graphite do not, which is part of
    why LOOPRAG wins the TSVC reduction kernels (s311..s319) in Table 3.
    """
    from ..analysis.dependences import parallel_violations

    violations = parallel_violations(program, deps, col)
    if not forgive_reductions:
        return violations
    kept = []
    for dep in violations:
        if dep.source == dep.target:
            try:
                stmt = program.statement(dep.target)
            except KeyError:
                kept.append(dep)
                continue
            if (dep.array == stmt.body.lhs.array
                    and _is_reduction(program, dep.target, col)):
                continue
        kept.append(dep)
    return kept


def _is_reduction(program: Program, stmt_name: str, col: int) -> bool:
    """The statement accumulates into a location invariant at ``col``."""
    stmt = program.statement(stmt_name)
    if stmt.body.op not in ("+=", "-=", "*="):
        return False
    sched = stmt.schedule.padded(program.schedule_width)
    dim = sched.dims[col]
    if not dim.is_dynamic:
        return False
    dim_vars = set(dim.expr.variables())
    for ix in stmt.body.lhs.indices:
        if set(ix.variables()) & dim_vars:
            return False
    return True


@dataclass(frozen=True)
class BaseCompiler:
    """A base ``-O3`` compiler providing auto-vectorization."""

    name: str = "gcc"
    vectorizes_reductions: bool = False
    vectorizes_guarded: bool = False

    def finalize(self, program: Program,
                 source: Optional[Program] = None) -> Program:
        """Mark auto-vectorizable innermost loops (idempotent).

        ``source`` is the program ``program`` was transformed from.  When
        both share a :meth:`~repro.ir.program.Program.kernel_key` (the
        same statements in the same order, differing at most in
        schedules and marks — every transform in ``transforms/``
        produces such a candidate), the carried-dependence question is
        answered from the padded source's dependences under the
        candidate's schedules, the polyhedral convention of judging
        every schedule against the original program's dependences.  The
        source's relation is memoized by the request's baseline
        ``finalize(source)``, so a candidate concretizes nothing.  Any
        other candidate is judged on its own dependences.
        """
        judged = (source if source is not None
                  and program.kernel_key() == source.kernel_key()
                  else program)
        deps = dependences(pad_statements(judged))
        program = pad_statements(program)
        by_col: Dict[int, List[str]] = {}
        for stmt in program.statements:
            col = innermost_column(program, stmt.name)
            if col is None or col in program.vector_dims:
                continue
            if _stmt_has_tiles(program, stmt.name):
                # min/max tile bounds defeat the auto-vectorizer
                continue
            if stmt.guards and not self.vectorizes_guarded:
                continue
            by_col.setdefault(col, []).append(stmt.name)
        marked = set(program.vector_dims)
        for col, names in sorted(by_col.items()):
            violations = vector_violations(program, deps, col, names)
            if violations:
                reductions = all(
                    _is_reduction(program, dep.target, col)
                    and dep.source == dep.target
                    for dep in violations)
                if not (reductions and self.vectorizes_reductions):
                    continue
            marked.add(col)
        if marked == set(program.vector_dims):
            return program
        return program.with_vector(frozenset(marked)).with_provenance(
            f"{self.name}-autovec(cols={sorted(marked)})")


GCC = BaseCompiler(name="gcc")
#: LLVM's loop vectorizer if-converts simple guards that GCC gives up on
CLANG = BaseCompiler(name="clang", vectorizes_guarded=True)
ICX = BaseCompiler(name="icx", vectorizes_reductions=True,
                   vectorizes_guarded=True)

BASE_COMPILERS: Dict[str, BaseCompiler] = {
    "gcc": GCC, "clang": CLANG, "icx": ICX,
}
