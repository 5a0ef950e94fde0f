"""Static validation of SCoP programs — the "compilation" surface.

The feedback pipeline (§4.3) classifies failures into CE / IA / RE / ET /
IC.  ``validate_program`` is what produces CE: a candidate emitted by an
LLM persona that references undeclared arrays, uses wrong subscript ranks,
scopes iterators incorrectly or carries malformed schedules fails here with
a compiler-style message that is fed back verbatim in the prompt.
"""

from __future__ import annotations

from typing import List

from ..memo import memo_on
from .program import Program
from .schedule import TileDim


class CompileError(ValueError):
    """A candidate that does not "compile"."""

    def __init__(self, messages: List[str]) -> None:
        super().__init__("; ".join(messages))
        self.messages = list(messages)


def check_program(program: Program) -> List[str]:
    """Return the list of diagnostics (empty when the program is valid).

    The diagnostics are memoized on the instance: the feedback pipeline
    validates every emitted candidate, and emissions repeat programs.
    """
    return list(memo_on(program, "_diagnostics",
                        lambda: tuple(_diagnose(program))))


def _diagnose(program: Program) -> List[str]:
    errors: List[str] = []
    declared = {a.name: a for a in program.arrays}
    scalar_names = {name for name, _ in program.scalars}
    params = set(program.params)

    if not program.statements:
        errors.append("error: empty SCoP")

    for array in program.arrays:
        for dim in array.dims:
            bad = set(dim.variables()) - params
            if bad:
                errors.append(
                    f"error: size of array '{array.name}' references "
                    f"non-parameter names {sorted(bad)}")

    for out in program.outputs:
        if out not in declared:
            errors.append(f"error: output array '{out}' is not declared")

    for stmt in program.statements:
        try:
            stmt.domain.validate(program.params)
        except ValueError as exc:
            errors.append(f"error: in '{stmt.name}': {exc}")
        iter_names = set(stmt.domain.iterator_names)
        visible = iter_names | params

        for ref, is_write in stmt.all_refs():
            decl = declared.get(ref.array)
            if decl is None:
                errors.append(
                    f"error: '{ref.array}' undeclared in '{stmt.name}'")
                continue
            if len(ref.indices) != decl.rank:
                errors.append(
                    f"error: '{ref.array}' has rank {decl.rank} but "
                    f"'{stmt.name}' subscripts it with {len(ref.indices)} "
                    "indices")
            for ix in ref.indices:
                bad = set(ix.variables()) - visible
                if bad:
                    errors.append(
                        f"error: subscript of '{ref.array}' in "
                        f"'{stmt.name}' uses undefined names {sorted(bad)}")

        for guard in stmt.guards:
            bad = set(guard.variables()) - visible
            if bad:
                errors.append(
                    f"error: guard in '{stmt.name}' uses undefined names "
                    f"{sorted(bad)}")

        for dim in stmt.schedule.dims:
            if isinstance(dim, TileDim) and dim.size <= 0:
                errors.append(
                    f"error: non-positive tile size in '{stmt.name}'")
            if dim.is_dynamic:
                expr = dim.expr  # type: ignore[union-attr]
                bad = set(expr.variables()) - visible
                if bad:
                    errors.append(
                        f"error: schedule of '{stmt.name}' uses undefined "
                        f"names {sorted(bad)}")

    seen = set()
    for stmt in program.statements:
        if stmt.name in seen:
            errors.append(f"error: duplicate statement name '{stmt.name}'")
        seen.add(stmt.name)

    width = program.schedule_width
    for dim_index in program.parallel_dims | program.vector_dims:
        if not 0 <= dim_index < width:
            errors.append(
                f"error: pragma on schedule dimension {dim_index} out of "
                f"range [0, {width})")
    return errors


def validate_program(program: Program) -> None:
    """Raise :class:`CompileError` when the program is malformed."""
    errors = check_program(program)
    if errors:
        raise CompileError(errors)
