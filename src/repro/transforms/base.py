"""Shared plumbing for loop transformations.

Transformations are pure functions ``Program -> Program`` that rewrite
statement schedules (and occasionally guards/flags).  They do **not**
guarantee legality: that mirrors reality — a compiler pass must consult the
dependence checker before keeping a rewrite, while an LLM persona may skip
that step and emit a semantically broken candidate.  Legality lives in
``repro.analysis.dependences``.

Schedule dimensions are addressed by *aligned column index*: the position
in the program-wide padded schedule matrix (see
:meth:`Program.aligned_schedules`).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from ..ir.program import Program
from ..ir.schedule import ConstDim, LoopDim, Schedule, TileDim
from ..ir.statement import Statement
from ..memo import memo_on


class TransformError(ValueError):
    """A transformation that cannot be applied to this program."""


def pad_statements(program: Program) -> Program:
    """Return an equivalent program with all schedules at equal width.

    Memoized on the instance (the class is frozen, so the padded twin
    never goes stale): a source program padded at the start of a
    request hands every later call the same object, whose analysis key
    and dependences are then already paid for.
    """
    def pad() -> Program:
        width = program.schedule_width
        return program.with_statements(
            [s.with_schedule(s.schedule.padded(width))
             for s in program.statements])
    return memo_on(program, "_padded", pad)


def dynamic_columns(program: Program) -> Tuple[int, ...]:
    """Columns that are dynamic (loop/tile) for at least one statement,
    memoized on the instance."""
    def columns() -> Tuple[int, ...]:
        schedules = program.aligned_schedules()
        return tuple(col for col in range(program.schedule_width)
                     if any(sched.dims[col].is_dynamic
                            for sched in schedules))
    return memo_on(program, "_dynamic_columns", columns)


def shared_band(program: Program) -> List[int]:
    """Columns dynamic for *every* statement — the fusable/tilable band."""
    schedules = program.aligned_schedules()
    width = program.schedule_width
    return [col for col in range(width)
            if all(sched.dims[col].is_dynamic for sched in schedules)]


def statement_loop_columns(program: Program, stmt_name: str) -> List[int]:
    """Dynamic columns of one statement, outermost first."""
    idx = [s.name for s in program.statements].index(stmt_name)
    sched = program.aligned_schedules()[idx]
    return [col for col, dim in enumerate(sched.dims) if dim.is_dynamic]


def innermost_column(program: Program, stmt_name: str) -> Optional[int]:
    cols = statement_loop_columns(program, stmt_name)
    return cols[-1] if cols else None


def selected(program: Program,
             stmts: Optional[Sequence[str]]) -> Set[str]:
    """Resolve an optional statement-name selection (default: all)."""
    names = {s.name for s in program.statements}
    if stmts is None:
        return names
    chosen = set(stmts)
    unknown = chosen - names
    if unknown:
        raise TransformError(f"unknown statements {sorted(unknown)}")
    return chosen


def shift_pragma_columns(dims: FrozenSet[int], at: int,
                         count: int) -> FrozenSet[int]:
    """Remap pragma column indices after inserting ``count`` dims at ``at``."""
    return frozenset(d if d < at else d + count for d in dims)


def rebuild(program: Program, stmts: Sequence[Statement],
            note: str) -> Program:
    return program.with_statements(stmts).with_provenance(note)
