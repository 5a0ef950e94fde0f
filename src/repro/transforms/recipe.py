"""Transformation recipes: named, replayable compositions.

A recipe is the serialized form of "what the optimizer did": the dataset
stores one per optimized example (so the retriever can hand an LLM the
composition behind a demonstration), Table 4 counts the kinds appearing in
a corpus, and the simulated LLM adapts recipes from demonstrations onto
target programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Sequence, Tuple,
                    Union)

from ..ir.program import Program
from ..memo import memoized
from ..registry import UnknownComponentError, lookup
from .base import TransformError
from .fusion import distribute, fuse
from .interchange import interchange
from .parallel import parallelize, vectorize
from .scalar import accumulate_in_register
from .skewing import shift, skew
from .tiling import tile

#: Transformation kinds (Table 4 vocabulary + pragmas + scalar renaming).
KIND_TILING = "tiling"
KIND_INTERCHANGE = "interchange"
KIND_SKEWING = "skewing"
KIND_FUSION = "fusion"
KIND_DISTRIBUTION = "distribution"
KIND_SHIFTING = "shifting"
KIND_PARALLEL = "parallel"
KIND_VECTORIZE = "vectorize"
KIND_REG_ACCUM = "reg_accum"

LOOP_KINDS = (KIND_TILING, KIND_INTERCHANGE, KIND_SKEWING, KIND_FUSION,
              KIND_DISTRIBUTION, KIND_SHIFTING)
ALL_KINDS = LOOP_KINDS + (KIND_PARALLEL, KIND_VECTORIZE, KIND_REG_ACCUM)


def _apply_tiling(program: Program, args: Dict[str, Any]) -> Program:
    return tile(program, args["columns"], args.get("sizes", 32),
                args.get("stmts"), args.get("at"))


def _apply_interchange(program: Program, args: Dict[str, Any]) -> Program:
    return interchange(program, args["col_a"], args["col_b"],
                       args.get("stmts"))


def _apply_skewing(program: Program, args: Dict[str, Any]) -> Program:
    return skew(program, args["target_col"], args["source_col"],
                args["factor"], args.get("stmts"))


def _apply_fusion(program: Program, args: Dict[str, Any]) -> Program:
    return fuse(program, args["col"], args.get("stmts"))


def _apply_distribution(program: Program, args: Dict[str, Any]) -> Program:
    return distribute(program, args["col"], args.get("stmts"))


def _apply_shifting(program: Program, args: Dict[str, Any]) -> Program:
    return shift(program, args["stmt"], args["col"], args["offset"])


def _apply_parallel(program: Program, args: Dict[str, Any]) -> Program:
    return parallelize(program, args["col"])


def _apply_vectorize(program: Program, args: Dict[str, Any]) -> Program:
    return vectorize(program, args["col"])


def _apply_reg_accum(program: Program, args: Dict[str, Any]) -> Program:
    return accumulate_in_register(program, args["stmt"])


#: transform appliers by kind: ``(program, args dict) -> Program``.
#: :meth:`TransformStep.apply` dispatches through this table, so
#: recipes, the simulated LLMs and the compilers all reach a
#: transformation by its kind.
TRANSFORMS = {
    KIND_TILING: _apply_tiling,
    KIND_INTERCHANGE: _apply_interchange,
    KIND_SKEWING: _apply_skewing,
    KIND_FUSION: _apply_fusion,
    KIND_DISTRIBUTION: _apply_distribution,
    KIND_SHIFTING: _apply_shifting,
    KIND_PARALLEL: _apply_parallel,
    KIND_VECTORIZE: _apply_vectorize,
    KIND_REG_ACCUM: _apply_reg_accum,
}


def _resolve_applier(kind: str):
    """Table lookup re-raised as the package's own error type."""
    try:
        return lookup(TRANSFORMS, "transformation kind", kind)
    except UnknownComponentError as exc:
        raise TransformError(str(exc)) from None


@dataclass(frozen=True)
class TransformStep:
    """One transformation with its arguments."""

    kind: str
    args: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(kind: str, **args: Any) -> "TransformStep":
        _resolve_applier(kind)  # validate eagerly
        frozen = tuple(sorted(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in args.items()))
        return TransformStep(kind, frozen)

    def arg_dict(self) -> Dict[str, Any]:
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.args}

    def apply(self, program: Program) -> Program:
        """Apply this step; raises :class:`TransformError` on failure.

        Memoized (:func:`_applied`): the candidates of one request repeat
        the same applications many times over; a hit returns the very
        same :class:`Program` object, so the keys and schedule facts
        memoized on the instance are paid once.  A failure is memoized
        too and raised afresh on every hit.
        """
        applied = _applied(self, program)
        if isinstance(applied, TransformError):
            raise TransformError(*applied.args)
        return applied

    def __str__(self) -> str:
        rendered = ", ".join(f"{k}={v}" for k, v in self.args)
        return f"{self.kind}({rendered})"


@memoized(4096, key=lambda step, program: (
    program.fingerprint(), program.name, program.provenance,
    tuple(s.reg_accum for s in program.statements), step))
def _applied(step: TransformStep,
             program: Program) -> Union[Program, TransformError]:
    """``step`` applied to ``program``, or the error it raised.

    The key is every field a transform reads or copies (the
    fingerprint's statement text omits ``reg_accum``) plus the step.
    """
    try:
        return _resolve_applier(step.kind)(program, step.arg_dict())
    except TransformError as exc:
        # no traceback: the cache must not pin the failing frames
        return TransformError(*exc.args)


@dataclass(frozen=True)
class TransformRecipe:
    """An ordered sequence of steps applied to a program."""

    steps: Tuple[TransformStep, ...] = ()

    @staticmethod
    def of(*steps: TransformStep) -> "TransformRecipe":
        return TransformRecipe(tuple(steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __bool__(self) -> bool:
        return bool(self.steps)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(step.kind for step in self.steps))

    def without(self, index: int) -> "TransformRecipe":
        return TransformRecipe(
            self.steps[:index] + self.steps[index + 1:])

    def apply(self, program: Program) -> Program:
        """Apply all steps; raises :class:`TransformError` on failure."""
        for step in self.steps:
            program = step.apply(program)
        return program

    def try_apply(self, program: Program) -> Tuple[Program, List[int]]:
        """Apply what applies; return (program, indices of skipped steps)."""
        skipped: List[int] = []
        for index, step in enumerate(self.steps):
            try:
                program = step.apply(program)
            except TransformError:
                skipped.append(index)
        return program, skipped

    def describe(self) -> str:
        if not self.steps:
            return "<identity>"
        return " ; ".join(str(s) for s in self.steps)

    def __str__(self) -> str:
        return self.describe()
