"""Reusable optimizer passes (building blocks of PLuTo/Polly pipelines).

Each pass returns ``(program, steps)`` where ``steps`` are the
:class:`TransformStep`s actually applied (already applied to the returned
program).  Passes only keep *legal* rewrites — they consult the dependence
witnesses of the original program — and only keep *profitable* ones when a
cost comparison is requested.
"""

from __future__ import annotations

import itertools
from typing import List, Mapping, Optional, Sequence, Tuple

from ..analysis.dependences import (Dependence, is_legal_schedule,
                                    is_parallel_dim)
from ..ir.program import Program
from ..ir.schedule import ConstDim
from ..machine.analytical import estimate_cached
from ..machine.model import DEFAULT_MACHINE
from ..transforms import (TransformError, TransformStep, fuse, interchange,
                          pad_statements, parallelize, shared_band, skew,
                          tile)
from ..transforms.base import dynamic_columns

Steps = List[TransformStep]


def align_statement_loops(program: Program,
                          deps: Sequence[Dependence]
                          ) -> Tuple[Program, Steps]:
    """Per-statement interchange toward cross-statement loop alignment.

    When statement ``S`` carries iterator ``j`` at a deep column while a
    sibling statement carries the *same expression* at a shallower column,
    swapping the two makes later fusion/tiling possible — this is exactly
    the ``syrk`` interchange of §2.2 (``k``/``j`` in S2 so S2's ``j`` lines
    up with S1's).
    """
    program = pad_statements(program)
    steps: Steps = []
    changed = True
    guard = 0
    while changed and guard < 8:
        changed = False
        guard += 1
        schedules = program.aligned_schedules()
        for si, stmt in enumerate(program.statements):
            sched = schedules[si]
            own_cols = [c for c, d in enumerate(sched.dims) if d.is_dynamic]
            for shallow, deep in itertools.combinations(own_cols, 2):
                deep_expr = str(sched.dims[deep])
                shallow_expr = str(sched.dims[shallow])
                if deep_expr == shallow_expr:
                    continue
                aligned_here = _peer_expr_at(program, si, shallow)
                if deep_expr not in aligned_here:
                    continue
                if shallow_expr in _peer_expr_at(program, si, deep):
                    continue  # swap would just trade one alignment for another
                step = TransformStep.make("interchange", col_a=shallow,
                                          col_b=deep, stmts=[stmt.name])
                try:
                    candidate = step.apply(program)
                except TransformError:
                    continue
                if is_legal_schedule(candidate, deps):
                    program = candidate
                    steps.append(step)
                    changed = True
                    break
            if changed:
                break
    return program, steps


def _peer_expr_at(program: Program, si: int, col: int) -> set:
    exprs = set()
    for sj, sched in enumerate(program.aligned_schedules()):
        if sj == si or col >= len(sched.dims):
            continue
        dim = sched.dims[col]
        if dim.is_dynamic:
            exprs.add(str(dim))
    return exprs


def fuse_greedily(program: Program,
                  deps: Sequence[Dependence]) -> Tuple[Program, Steps]:
    """Maximal legal fusion at every constant column, left to right.

    When plain fusion is illegal, retry after *shifting* later
    statements by a small offset on the following loop dimension — the
    classic fusion-enabling shift (it realigns producer/consumer
    iterations, Listing 5's ``t3 - t4 < t4`` alignment).
    """
    program = pad_statements(program)
    steps: Steps = []
    width = program.schedule_width
    col = 0
    while col < width:
        schedules = program.aligned_schedules()
        if any(s.dims[col].is_dynamic for s in schedules):
            col += 1
            continue
        values = {s.dims[col].value for s in schedules}
        if len(values) < 2:
            col += 1
            continue
        step = TransformStep.make("fusion", col=col)
        try:
            candidate = step.apply(program)
        except TransformError:
            col += 1
            continue
        if is_legal_schedule(candidate, deps):
            program = candidate
            steps.append(step)
        elif col + 1 < width:
            fused = _fuse_with_shift(program, deps, col)
            if fused is not None:
                program, shift_steps = fused
                steps += shift_steps
        col += 1
    return program, steps


def _fuse_with_shift(program: Program, deps: Sequence[Dependence],
                     col: int) -> Optional[Tuple[Program, Steps]]:
    """Try shifting trailing statements to legalise fusion at ``col``."""
    later = [s.name for s in program.statements[1:]]
    for offset in (1, 2):
        candidate = program
        steps: Steps = []
        try:
            for name in later:
                stmt = candidate.statement(name)
                sched = stmt.schedule.padded(candidate.schedule_width)
                if col + 1 >= len(sched.dims) or \
                        not sched.dims[col + 1].is_dynamic:
                    return None
                shift_step = TransformStep.make(
                    "shifting", stmt=name, col=col + 1, offset=offset)
                candidate = shift_step.apply(candidate)
                steps.append(shift_step)
            fuse_step = TransformStep.make("fusion", col=col)
            candidate = fuse_step.apply(candidate)
            steps.append(fuse_step)
        except TransformError:
            continue
        if is_legal_schedule(candidate, deps):
            return candidate, steps
    return None


def _permutation_steps(cols: Sequence[int],
                       order: Sequence[int]) -> Steps:
    """Decompose a column permutation into interchange transpositions."""
    current = list(cols)
    target = [cols[i] for i in order]
    steps: Steps = []
    for pos in range(len(current)):
        if current[pos] == target[pos]:
            continue
        other = current.index(target[pos])
        steps.append(TransformStep.make("interchange",
                                        col_a=current[pos],
                                        col_b=current[other]))
        current[pos], current[other] = current[other], current[pos]
    return steps


def best_band_permutation(program: Program, deps: Sequence[Dependence],
                          params: Mapping[str, int]
                          ) -> Tuple[Program, Steps]:
    """Search loop orders of the shared band (at most four deep) for the
    cheapest legal one."""
    band = shared_band(program)
    if len(band) < 2 or len(band) > 4:
        return program, []
    best_prog = program
    best_steps: Steps = []
    best_cost = estimate_cached(program, params, DEFAULT_MACHINE).cycles
    for order in itertools.permutations(range(len(band))):
        if list(order) == sorted(order):
            continue
        steps = _permutation_steps(band, order)
        candidate = program
        try:
            for step in steps:
                candidate = step.apply(candidate)
        except TransformError:
            continue
        if not is_legal_schedule(candidate, deps):
            continue
        cost = estimate_cached(candidate, params, DEFAULT_MACHINE).cycles
        if cost < best_cost * 0.999:
            best_cost = cost
            best_prog = candidate
            best_steps = steps
    return best_prog, best_steps


def tile_shared_band(program: Program, deps: Sequence[Dependence],
                     tile_size: int = 32,
                     allow_skew: bool = True,
                     min_depth: int = 1) -> Tuple[Program, Steps]:
    """Tile the shared band; optionally try a skew to legalise it."""
    band = shared_band(program)
    if len(band) < min_depth or not band:
        return program, []
    step = TransformStep.make("tiling", columns=list(band),
                              sizes=[tile_size] * len(band))
    try:
        tiled = step.apply(program)
    except TransformError:
        return program, []
    if is_legal_schedule(tiled, deps):
        return tiled, [step]
    if allow_skew and len(band) >= 2:
        skew_step = TransformStep.make("skewing", target_col=band[1],
                                       source_col=band[0], factor=1)
        try:
            skewed = skew_step.apply(program)
            tiled = step.apply(skewed)
        except TransformError:
            return program, []
        if is_legal_schedule(tiled, deps):
            return tiled, [skew_step, step]
    return program, []


def distribute_for_tiling(program: Program, deps: Sequence[Dependence],
                          tile_size: int = 32) -> Tuple[Program, Steps]:
    """Split a fused loop whose band cannot be tiled, then tile the parts.

    PLuTo's fallback when cross-statement dependences inside a fused loop
    make rectangular tiling illegal: distributing the statements into
    consecutive nests removes the intra-loop interleaving constraint and
    per-nest tiling becomes legal.
    """
    if len(program.statements) < 2:
        return program, []
    schedules = program.aligned_schedules()
    width = program.schedule_width
    for col in range(width):
        if any(s.dims[col].is_dynamic for s in schedules):
            continue
        values = [s.dims[col].value for s in schedules]
        if len(set(values)) != 1:
            continue  # only split genuinely fused groups
        step = TransformStep.make("distribution", col=col)
        try:
            candidate = step.apply(program)
        except TransformError:
            continue
        if not is_legal_schedule(candidate, deps):
            continue
        tiled, tile_steps = tile_shared_band(candidate, deps, tile_size,
                                             allow_skew=False, min_depth=1)
        if tile_steps:
            return tiled, [step] + tile_steps
    return program, []


def tile_statement_tails(program: Program, deps: Sequence[Dependence],
                         tile_size: int = 32) -> Tuple[Program, Steps]:
    """Tile per-statement loops left outside the shared band.

    After band tiling, a statement may keep untiled deep loops (gemm's
    reduction ``k`` after the ``i``/``j`` band).  Tiling them — with the
    tile loop hoisted just below the existing tile band — shrinks the
    point-band footprint so the temporal-reuse discounts actually apply.
    """
    from ..ir.schedule import TileDim

    steps: Steps = []
    for stmt_ref in [s.name for s in program.statements]:
        stmt = program.statement(stmt_ref)
        sched = stmt.schedule.padded(program.schedule_width)
        tiled_exprs = {str(d.expr) for d in sched.dims
                       if isinstance(d, TileDim)}
        if not tiled_exprs:
            continue
        last_tile_col = max(c for c, d in enumerate(sched.dims)
                            if isinstance(d, TileDim))
        candidates = [
            c for c, d in enumerate(sched.dims)
            if d.is_dynamic and not isinstance(d, TileDim)
            and str(d.expr) not in tiled_exprs and c > last_tile_col]
        if not candidates:
            continue
        step = TransformStep.make(
            "tiling", columns=candidates[:1],
            sizes=[tile_size], stmts=[stmt_ref], at=last_tile_col + 1)
        try:
            candidate = step.apply(program)
        except TransformError:
            continue
        if is_legal_schedule(candidate, deps):
            program = candidate
            steps.append(step)
    return program, steps


def parallelize_outermost(program: Program, deps: Sequence[Dependence],
                          search_depth: int = 3) -> Tuple[Program, Steps]:
    """Mark the outermost legal dynamic column as OpenMP-parallel."""
    for col in dynamic_columns(program)[:search_depth]:
        if col in program.parallel_dims:
            return program, []
        if is_parallel_dim(program, deps, col):
            step = TransformStep.make("parallel", col=col)
            try:
                return step.apply(program), [step]
            except TransformError:
                return program, []
    return program, []


def vectorize_innermost(program: Program, deps: Sequence[Dependence],
                        allow_reductions: bool = True
                        ) -> Tuple[Program, Steps]:
    """Explicitly mark legal innermost columns as SIMD (pragma simd)."""
    from .base import _is_reduction, vector_violations
    from ..transforms import innermost_column

    steps: Steps = []
    by_col = {}
    for stmt in program.statements:
        col = innermost_column(program, stmt.name)
        if col is not None and col not in program.vector_dims:
            by_col.setdefault(col, []).append(stmt.name)
    for col, names in sorted(by_col.items()):
        violations = vector_violations(program, deps, col, names)
        if violations:
            ok = allow_reductions and all(
                dep.source == dep.target
                and _is_reduction(program, dep.target, col)
                for dep in violations)
            if not ok:
                continue
        step = TransformStep.make("vectorize", col=col)
        try:
            program = step.apply(program)
            steps.append(step)
        except TransformError:
            continue
    return program, steps
