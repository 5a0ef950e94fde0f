"""Intent materialisation and slip injection for simulated LLMs.

A persona reasons in *abstract intents* ("tile the band by 32",
"interchange toward stride-1") learned from demonstrations or its own
repertoire; :func:`materialize` concretises an intent against the current
program the way an LLM rewrites code — heuristically, with no solver.

Slips turn a correct candidate into the paper's failure classes through
*real* mechanisms: a corrupted bound or dropped guard executes to wrong
outputs (IA) or out-of-bounds accesses (RE); an undeclared identifier
fails validation (CE).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ir.affine import Affine, var
from ..ir.domain import Domain, IterSpec
from ..ir.expr import Ref
from ..ir.program import Program
from ..machine.analytical import _array_strides, _ref_step
from ..machine.loopview import build_view
from ..memo import memo_on
from ..transforms import (TransformError, TransformStep, innermost_column,
                          shared_band, statement_loop_columns)
from ..transforms.base import dynamic_columns


@dataclass(frozen=True)
class Intent:
    """Abstract transformation intention."""

    kind: str
    size: int = 32
    factor: int = 1
    offset: int = 1

    def __str__(self) -> str:
        return f"intent:{self.kind}"


def intents_from_recipe(recipe) -> List[Intent]:
    """Abstract the demonstrated composition (what the LLM 'learns')."""
    intents: List[Intent] = []
    seen = set()
    for step in recipe.steps:
        if step.kind in seen:
            continue
        seen.add(step.kind)
        args = step.arg_dict()
        sizes = args.get("sizes") or [32]
        intents.append(Intent(
            kind=step.kind,
            size=int(sizes[0]) if step.kind == "tiling" else 32,
            factor=int(args.get("factor", 1)),
            offset=int(args.get("offset", 1))))
    return intents


# ----------------------------------------------------------------------
# Materialisation heuristics
# ----------------------------------------------------------------------
def _stride_pair(program: Program, rng: random.Random
                 ) -> Optional[Tuple[int, int, Tuple[str, ...]]]:
    """Find (col_a, col_b, stmts) whose swap improves innermost stride.

    The candidate list is memoized on the program instance; only the
    draw among them is per call.
    """
    candidates = memo_on(program, "_stride_pairs",
                         lambda: _stride_pairs(program))
    if not candidates:
        return None
    return rng.choice(candidates)


def _stride_pairs(program: Program) -> Tuple[Tuple[int, int,
                                                   Tuple[str, ...]], ...]:
    params = {p: 64 for p in program.params}
    strides_of = _array_strides(program, params)
    candidates = []
    for stmt in program.statements:
        cols = statement_loop_columns(program, stmt.name)
        if len(cols) < 2:
            continue
        view = build_view(program, stmt, params)
        if not view.loops:
            continue
        inner = view.loops[-1]
        for ref, _w in stmt.all_refs():
            inner_step = abs(_ref_step(ref, inner, strides_of[ref.array]))
            if inner_step <= 1:
                continue
            for other in view.loops[:-1]:
                other_step = abs(_ref_step(ref, other,
                                           strides_of[ref.array]))
                if other_step == 1:
                    candidates.append((other.col, inner.col, (stmt.name,)))
    return tuple(candidates)


def materialize(intent: Intent, program: Program,
                rng: random.Random) -> Optional[TransformStep]:
    """Concretise one intent against the current program."""
    kind = intent.kind
    dyn = dynamic_columns(program)
    if not dyn:
        return None
    if kind == "tiling":
        band = shared_band(program) or dyn[:1]
        band = band[:3]
        return TransformStep.make("tiling", columns=list(band),
                                  sizes=[intent.size] * len(band))
    if kind == "interchange":
        pair = _stride_pair(program, rng)
        if pair is None:
            if len(dyn) < 2:
                return None
            col_a, col_b = rng.sample(dyn, 2)
            return TransformStep.make("interchange",
                                      col_a=min(col_a, col_b),
                                      col_b=max(col_a, col_b))
        col_a, col_b, stmts = pair
        return TransformStep.make("interchange", col_a=col_a, col_b=col_b,
                                  stmts=stmts)
    if kind == "fusion":
        col = _const_col(program, want_distinct=True)
        if col is None:
            return None
        return TransformStep.make("fusion", col=col)
    if kind == "distribution":
        col = _const_col(program, want_distinct=False)
        if col is None:
            return None
        return TransformStep.make("distribution", col=col)
    if kind == "skewing":
        band = shared_band(program)
        if len(band) < 2:
            return None
        return TransformStep.make("skewing", target_col=band[1],
                                  source_col=band[0],
                                  factor=intent.factor or 1)
    if kind == "shifting":
        if len(program.statements) < 2:
            return None
        stmt = rng.choice(program.statements[1:])
        cols = statement_loop_columns(program, stmt.name)
        if not cols:
            return None
        return TransformStep.make("shifting", stmt=stmt.name,
                                  col=cols[0], offset=intent.offset or 1)
    if kind == "parallel":
        for col in dyn[:2]:
            if col not in program.parallel_dims:
                return TransformStep.make("parallel", col=col)
        return None
    if kind == "vectorize":
        inner_cols = sorted({
            innermost_column(program, s.name)
            for s in program.statements}
            - {None} - set(program.vector_dims))
        if not inner_cols:
            return None
        return TransformStep.make("vectorize", col=rng.choice(inner_cols))
    if kind == "reg_accum":
        accums = [s.name for s in program.statements
                  if s.body.op in ("+=", "-=", "*=") and not s.reg_accum]
        if not accums:
            return None
        return TransformStep.make("reg_accum", stmt=rng.choice(accums))
    return None


def _const_col(program: Program, want_distinct: bool) -> Optional[int]:
    schedules = program.aligned_schedules()
    if len(schedules) < 2:
        return None
    for col in range(program.schedule_width):
        if any(s.dims[col].is_dynamic for s in schedules):
            continue
        values = {s.dims[col].value for s in schedules}
        if want_distinct and len(values) > 1:
            return col
        if not want_distinct and len(values) == 1:
            return col
    return None


# ----------------------------------------------------------------------
# Slips
# ----------------------------------------------------------------------
def semantic_slip(program: Program, rng: random.Random
                  ) -> Tuple[Program, str]:
    """Corrupt the candidate in a way only testing can catch (IA/RE)."""
    choices = ["shrink_bound", "extend_bound", "illegal_swap"]
    if any(s.guards for s in program.statements):
        choices.append("drop_guard")
    kind = rng.choice(choices)
    stmts = list(program.statements)
    si = rng.randrange(len(stmts))
    stmt = stmts[si]
    if kind == "drop_guard":
        guarded = [s for s in stmts if s.guards]
        stmt = rng.choice(guarded)
        new = stmt.with_guards(stmt.guards[1:])
        return program.with_statement(stmt.name, new), "dropped a guard"
    if kind in ("shrink_bound", "extend_bound") and stmt.domain.iters:
        delta = -1 if kind == "shrink_bound" else 1
        level = rng.randrange(stmt.domain.depth)
        specs = list(stmt.domain.iters)
        spec = specs[level]
        specs[level] = IterSpec(spec.name, spec.lowers,
                                tuple(u + delta for u in spec.uppers))
        new = stmt.with_domain(Domain(tuple(specs)))
        return (program.with_statement(stmt.name, new),
                f"off-by-one bound on {spec.name}")
    # illegal_swap: reorder two of the statement's own dimensions
    cols = statement_loop_columns(program, stmt.name)
    if len(cols) >= 2:
        a, b = rng.sample(cols, 2)
        try:
            step = TransformStep.make("interchange", col_a=min(a, b),
                                      col_b=max(a, b), stmts=[stmt.name])
            return step.apply(program), "unchecked interchange"
        except TransformError:
            pass
    return program, "no-op slip"


def syntax_slip(program: Program, rng: random.Random
                ) -> Tuple[Program, str]:
    """Corrupt the candidate so that it fails to compile (CE)."""
    stmts = list(program.statements)
    stmt = rng.choice(stmts)
    if rng.random() < 0.5:
        body = stmt.body.rename_arrays({stmt.body.lhs.array: "tmp_buf"})
        new = stmt.with_body(body)
        detail = "undeclared identifier 'tmp_buf'"
    else:
        lhs = stmt.body.lhs
        bad = Ref(lhs.array, lhs.indices + (var("t99"),))
        new = stmt.with_body(
            stmt.body.__class__(bad, stmt.body.op, stmt.body.rhs))
        detail = "subscript rank mismatch / undefined iterator 't99'"
    return program.with_statement(stmt.name, new), detail
