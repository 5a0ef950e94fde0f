"""Analytical performance model (the native-execution substitute).

Prices a transformed SCoP on a :class:`MachineModel` using classic
reuse-distance reasoning (Wolf & Lam style):

* **compute** — body operations × instances, divided by SIMD width when the
  innermost loop is vectorized (full / reduction / gather efficiencies);
* **memory** — per array reference, a spatial miss rate from the innermost
  stride, discounted once per *temporal reuse loop* (a loop the reference
  is invariant in) whose inner footprint fits the cache — this is exactly
  the effect loop tiling, interchange and fusion buy;
* **parallelism** — compute scales by ``min(threads, trip)`` at the
  outermost OpenMP-parallel loop (with an efficiency factor) while memory
  scales only up to the bandwidth cap; each region entry pays a fork/join
  overhead;
* **overheads** — per-instance loop bookkeeping, min/max-bound entry costs
  for tiled nests (the reason PLuTo's useless tiling of flat TSVC loops is
  a pessimisation), and guard evaluation.

The model is deterministic, O(statements × references), independent of the
problem size, and validated against the trace-driven cache simulator in
``tests/test_machine_validation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..ir.expr import Ref
from ..ir.program import Program
from ..ir.statement import Statement
from ..memo import memoized
from .loopview import LoopInfo, LoopView, build_view, estimate_guard_fraction
from .model import DEFAULT_MACHINE, MachineModel

_GUARD_SAMPLE_PARAM = 8


@dataclass(frozen=True)
class StatementCost:
    """Cycle breakdown for one statement."""

    statement: str
    instances: float
    compute_cycles: float
    memory_cycles: float
    overhead_cycles: float
    misses: float
    parallel_degree: float
    vectorized: bool

    @property
    def cycles(self) -> float:
        return self.compute_cycles + self.memory_cycles + self.overhead_cycles


@dataclass(frozen=True)
class TimeEstimate:
    """Modeled execution of a whole program."""

    seconds: float
    cycles: float
    statements: Tuple[StatementCost, ...]

    @property
    def total_misses(self) -> float:
        return sum(s.misses for s in self.statements)


def _array_strides(program: Program, params: Mapping[str, int]
                   ) -> Dict[str, Tuple[int, ...]]:
    strides: Dict[str, Tuple[int, ...]] = {}
    for decl in program.arrays:
        shape = decl.shape(params)
        out: List[int] = []
        acc = 1
        for size in reversed(shape):
            out.append(acc)
            acc *= max(1, size)
        strides[decl.name] = tuple(reversed(out))
    return strides


def _ref_step(ref: Ref, loop: LoopInfo, strides: Tuple[int, ...]) -> int:
    """Address delta (elements) caused by one increment of ``loop``."""
    deltas = loop.steps()
    total = 0
    for stride, index in zip(strides, ref.indices):
        for name, delta in deltas.items():
            total += stride * index.coeff(name) * delta
    return total


def _distinct_refs(stmt: Statement) -> List[Tuple[Ref, bool]]:
    """References deduplicated by text (the lhs of ``+=`` counts once)."""
    seen: Dict[str, Tuple[Ref, bool]] = {}
    for ref, is_write in stmt.all_refs():
        key = str(ref)
        prev = seen.get(key)
        if prev is None or (is_write and not prev[1]):
            seen[key] = (ref, is_write)
    return list(seen.values())


def _iter_spans(loops: Tuple[LoopInfo, ...],
                view: Optional[LoopView] = None) -> Dict[str, float]:
    """Values covered per iterator inside a subset of loops.

    A tile loop of trip 47 and its point loop of trip 32 together span
    47×32 ≈ 1500 values of the iterator — multiplying trips per iterator
    (rather than per loop) avoids double-counting blocked nests.  Spans
    are clamped to the iterator's true extent so skewed dimensions (whose
    trip is a sum of extents) don't overestimate coverage.
    """
    spans: Dict[str, float] = {}
    for loop in loops:
        for name, delta in loop.step_of:
            if delta != 0:
                spans[name] = spans.get(name, 1.0) * max(1.0, loop.trip)
    if view is not None:
        for name in list(spans):
            extent = view.extent_of(name)
            if extent is not None:
                spans[name] = min(spans[name], float(extent))
    return spans


def _footprint_lines(ref: Ref, loops: Tuple[LoopInfo, ...],
                     strides: Tuple[int, ...],
                     machine: MachineModel,
                     view: Optional[LoopView] = None) -> float:
    """Cache lines touched by ``ref`` while the given loops iterate."""
    spans = _iter_spans(loops, view)
    elements = 1.0
    for index in ref.indices:
        extent = 1.0
        for name in index.variables():
            if name in spans:
                extent += abs(index.coeff(name)) * (spans[name] - 1.0)
        elements *= max(1.0, extent)
    contiguous = any(abs(_ref_step(ref, loop, strides)) == 1
                     for loop in loops)
    per_line = machine.line_bytes / machine.elem_bytes
    return max(1.0, elements / per_line if contiguous else elements)


def _ref_misses(ref: Ref, is_write: bool, stmt: Statement, view: LoopView,
                strides: Tuple[int, ...], machine: MachineModel,
                capacity: float) -> float:
    """Estimated cache misses for one reference over the whole statement."""
    loops = view.loops
    if not loops:
        return 1.0
    steps = [_ref_step(ref, loop, strides) for loop in loops]
    if stmt.reg_accum and is_write:
        # the running value lives in a register across the innermost loop
        steps[-1] = 0
    inner_step_bytes = abs(steps[-1]) * machine.elem_bytes
    if inner_step_bytes == 0:
        rate = 0.0
    elif inner_step_bytes >= machine.line_bytes:
        rate = 1.0
    else:
        rate = inner_step_bytes / machine.line_bytes

    misses = view.total_iters * rate
    # Temporal-reuse discounts: a loop the reference is invariant in whose
    # inner footprint fits the cache turns repeated sweeps into hits.
    for index in range(len(loops) - 1, -1, -1):
        if steps[index] != 0:
            continue
        inner = loops[index + 1:]
        lines = _footprint_lines(ref, inner, strides, machine, view)
        if lines * machine.line_bytes <= capacity:
            misses /= max(1.0, loops[index].trip)
    # Spatial reuse carried by a *non-innermost* small-stride loop: the
    # sweep of the loops inside it must survive in L1 for neighbouring
    # iterations to hit the same line (classic group-spatial reuse).
    for index in range(len(loops) - 1):
        step_bytes = abs(steps[index]) * machine.elem_bytes
        if 0 < step_bytes < machine.line_bytes:
            inner = loops[index + 1:]
            lines = _footprint_lines(ref, inner, strides, machine, view)
            if lines * machine.line_bytes <= machine.l1_bytes:
                misses *= step_bytes / machine.line_bytes
            break
    # Warm-cache residency: measurements average runs after a warm-up
    # (§6.1, five runs after the first attempt), so a reference whose
    # whole footprint fits in the cache never misses in steady state.
    unique_lines = _footprint_lines(ref, loops, strides, machine, view)
    if unique_lines * machine.line_bytes <= capacity:
        return 0.0
    # Cold-miss floor: every distinct line must be fetched once.
    misses = max(misses, min(unique_lines, view.total_iters))
    return min(misses, view.total_iters)


def _vector_factor(stmt: Statement, view: LoopView,
                   strides_of: Mapping[str, Tuple[int, ...]],
                   machine: MachineModel) -> float:
    """Compute-cycle divisor when the innermost loop is vectorized."""
    inner = view.innermost
    if inner is None or not inner.vectorized:
        return 1.0
    contiguous = 0
    gathered = 0
    for ref, is_write in _distinct_refs(stmt):
        step = abs(_ref_step(ref, inner, strides_of[ref.array]))
        if step <= 1:
            contiguous += 1
        else:
            gathered += 1
    if contiguous == 0:
        return 1.0  # all-gather loop: SIMD does not pay
    efficiency = machine.vector_efficiency
    lhs_step = abs(_ref_step(stmt.body.lhs, inner,
                             strides_of[stmt.body.lhs.array]))
    if stmt.body.op in ("+=", "-=", "*=") and lhs_step == 0:
        efficiency = machine.reduction_vector_efficiency
    if gathered:
        efficiency *= contiguous / (contiguous + gathered)
    return max(1.0, machine.vector_width * efficiency)


def _statement_cost(program: Program, stmt: Statement,
                    params: Mapping[str, int],
                    machine: MachineModel,
                    strides_of: Mapping[str, Tuple[int, ...]]
                    ) -> StatementCost:
    guard_params = {p: _GUARD_SAMPLE_PARAM for p in program.params}
    guard_frac = estimate_guard_fraction(stmt, guard_params)
    view = build_view(program, stmt, params, guard_frac)
    iters = max(1.0, view.total_iters)

    # --- compute ------------------------------------------------------
    ops = stmt.body.op_count() + 1  # +1 for address arithmetic
    compute = iters * ops * machine.cycles_per_op
    vec = _vector_factor(stmt, view, strides_of, machine)
    compute /= vec

    # --- memory ---------------------------------------------------------
    refs = _distinct_refs(stmt)
    arrays = {ref.array for ref, _w in refs}
    capacity = machine.cache_bytes / max(1, len(arrays))
    misses = 0.0
    for ref, is_write in refs:
        misses += _ref_misses(ref, is_write, stmt, view,
                              strides_of[ref.array], machine, capacity)
    memory = misses * machine.miss_penalty

    # --- overheads --------------------------------------------------------
    # per-instance bookkeeping is amortised across vector lanes
    overhead = iters * machine.loop_overhead / vec
    inner = view.innermost
    has_tiles = any(loop.is_tile for loop in view.loops)
    if inner is not None and has_tiles:
        entries = iters / max(1.0, inner.trip)
        overhead += entries * machine.tile_entry_overhead
    if stmt.guards:
        domain_iters = iters / max(guard_frac, 1e-9)
        overhead += domain_iters * len(stmt.guards)

    # --- parallelism -----------------------------------------------------
    degree = 1.0
    region_entries = 0.0
    for idx, loop in enumerate(view.loops):
        if loop.parallel:
            degree = min(float(machine.threads), max(1.0, loop.trip))
            region_entries = 1.0
            for outer in view.loops[:idx]:
                region_entries *= max(1.0, outer.trip)
            break
    if degree > 1.0:
        compute /= degree * machine.parallel_efficiency
        overhead /= degree * machine.parallel_efficiency
        memory /= min(degree, machine.mem_parallel_cap)
        overhead += region_entries * machine.parallel_region_overhead

    return StatementCost(
        statement=stmt.name, instances=iters,
        compute_cycles=compute, memory_cycles=memory,
        overhead_cycles=overhead, misses=misses,
        parallel_degree=degree,
        vectorized=bool(inner is not None and inner.vectorized and vec > 1))


def estimate(program: Program, params: Mapping[str, int],
             machine: MachineModel = DEFAULT_MACHINE) -> TimeEstimate:
    """Model the execution time of ``program`` at ``params``."""
    strides_of = _array_strides(program, params)
    costs = [
        _statement_cost(program, stmt, params, machine, strides_of)
        for stmt in program.statements]
    cycles = sum(c.cycles for c in costs) + 1_000.0  # region constant
    return TimeEstimate(seconds=machine.seconds(cycles),
                        cycles=cycles, statements=tuple(costs))


@memoized(16384, key=lambda program, params, machine=DEFAULT_MACHINE: (
    program.fingerprint(), tuple(s.reg_accum for s in program.statements),
    tuple(sorted(params.items())), machine.name, machine.threads))
def estimate_cached(program: Program, params: Mapping[str, int],
                    machine: MachineModel = DEFAULT_MACHINE) -> TimeEstimate:
    """Memoized :func:`estimate`.

    Keyed by the program fingerprint plus the per-statement ``reg_accum``
    flags, which the estimate prices but the fingerprint's statement
    text omits.
    """
    return estimate(program, params, machine)
