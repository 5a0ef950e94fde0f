"""Loop-nest views: per-statement loop structure recovered from schedules.

The analytical cost model does not execute programs; it reasons about the
loop nest each statement runs under after transformation.  A
:class:`LoopView` reconstructs that nest from the statement's (aligned)
schedule: one :class:`LoopInfo` per dynamic dimension, outermost first,
each carrying a trip-count estimate, the iterator displacement caused by
one increment of that loop (``step_of``), and parallel/vector flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..ir.program import Program
from ..ir.schedule import TileDim
from ..ir.statement import Statement


@dataclass(frozen=True)
class LoopInfo:
    """One loop of a statement's reconstructed nest."""

    col: int                      # aligned schedule column
    is_tile: bool
    tile_size: int                # 1 for plain loops
    primary: Optional[str]        # iterator this loop "owns"
    trip: float
    step_of: Tuple[Tuple[str, int], ...]  # iterator deltas per increment
    parallel: bool
    vectorized: bool

    def steps(self) -> Dict[str, int]:
        return dict(self.step_of)


@dataclass(frozen=True)
class LoopView:
    """The reconstructed nest of one statement plus instance counts."""

    statement: str
    loops: Tuple[LoopInfo, ...]
    total_iters: float
    guard_fraction: float
    #: true iterator extents — footprint math clamps per-iterator spans
    #: here so skewed dimensions don't overestimate coverage
    extents: Tuple[Tuple[str, int], ...] = ()

    @property
    def innermost(self) -> Optional[LoopInfo]:
        return self.loops[-1] if self.loops else None

    def extent_of(self, name: str) -> Optional[int]:
        return dict(self.extents).get(name)


def _affine_extent(expr, extents: Mapping[str, int]) -> float:
    """Range estimate of an affine expression over iterator boxes."""
    total = 0.0
    for name in expr.variables():
        total += abs(expr.coeff(name)) * max(1.0, extents.get(name, 1))
    return max(1.0, total)


def _domain_size(stmt: Statement, params: Mapping[str, int]) -> float:
    """Estimated instance count with triangular correction (midpoints)."""
    total = 1.0
    for spec in stmt.domain.iters:
        total *= max(1.0, stmt.domain.extent_hint(spec.name, params))
    return total


def build_view(program: Program, stmt: Statement,
               params: Mapping[str, int],
               guard_fraction: float = 1.0) -> LoopView:
    """Reconstruct the loop nest of one statement."""
    width = program.schedule_width
    sched = stmt.schedule.padded(width)
    iter_names = list(stmt.domain.iterator_names)
    extents: Dict[str, int] = {
        name: max(1, stmt.domain.extent_hint(name, params))
        for name in iter_names}

    loops: List[LoopInfo] = []
    claimed: set = set()
    tile_sizes: Dict[str, int] = {}   # iterator -> innermost covering tile
    seen_dims: set = set()
    for col, dim in enumerate(sched.dims):
        if not dim.is_dynamic:
            continue
        # duplicated dimensions (inserted by per-statement tiling for the
        # unselected statements) carry no iteration structure of their own
        signature = str(dim)
        if signature in seen_dims:
            continue
        seen_dims.add(signature)
        expr = dim.expr  # type: ignore[union-attr]
        own_vars = [v for v in expr.variables() if v in extents]
        if not own_vars:
            continue
        parallel = col in program.parallel_dims
        vectorized = col in program.vector_dims
        if isinstance(dim, TileDim):
            trip = max(1.0, math.ceil(_affine_extent(expr, extents)
                                      / dim.size))
            primary = own_vars[0]
            for v in own_vars:
                size = tile_sizes.get(v)
                tile_sizes[v] = dim.size if size is None else min(size,
                                                                  dim.size)
            steps = tuple((v, dim.size * (1 if expr.coeff(v) >= 0 else -1))
                          for v in own_vars)
            loops.append(LoopInfo(col=col, is_tile=True, tile_size=dim.size,
                                  primary=primary, trip=trip,
                                  step_of=steps, parallel=parallel,
                                  vectorized=vectorized))
            continue
        primary = next((v for v in own_vars if v not in claimed),
                       own_vars[0])
        claimed.add(primary)
        extent = float(extents[primary])
        covering = tile_sizes.get(primary)
        if covering is not None:
            trip = min(float(covering), extent)
        elif len(own_vars) == 1:
            trip = extent
        else:
            trip = _affine_extent(expr, extents)
        direction = 1 if expr.coeff(primary) >= 0 else -1
        loops.append(LoopInfo(col=col, is_tile=False, tile_size=1,
                              primary=primary, trip=max(1.0, trip),
                              step_of=((primary, direction),),
                              parallel=parallel, vectorized=vectorized))

    total = _domain_size(stmt, params) * max(0.0, min(1.0, guard_fraction))
    # Normalise trips so their product matches the true instance count:
    # skewed dimensions over-estimate (range of i+j exceeds the trip of a
    # rectangular loop) and the product would otherwise double-count.
    raw = 1.0
    for info in loops:
        raw *= info.trip
    if loops and raw > 0 and total > 0:
        factor = total / raw
        if factor < 1.0:
            scaled = []
            remaining = factor
            for info in loops:
                if not info.is_tile and remaining < 1.0:
                    new_trip = max(1.0, info.trip * remaining)
                    remaining = (remaining * info.trip) / new_trip
                    info = LoopInfo(col=info.col, is_tile=info.is_tile,
                                    tile_size=info.tile_size,
                                    primary=info.primary, trip=new_trip,
                                    step_of=info.step_of,
                                    parallel=info.parallel,
                                    vectorized=info.vectorized)
                scaled.append(info)
            loops = scaled
    return LoopView(statement=stmt.name, loops=tuple(loops),
                    total_iters=total, guard_fraction=guard_fraction,
                    extents=tuple(sorted(extents.items())))


def estimate_guard_fraction(stmt: Statement,
                            params: Mapping[str, int]) -> float:
    """Fraction of domain points whose guards hold, by small enumeration
    (of at most 20,000 points)."""
    if not stmt.guards:
        return 1.0
    total = 0
    passed = 0
    for point in stmt.domain.enumerate(params):
        total += 1
        env = dict(params)
        env.update(point)
        if stmt.guards_hold(env):
            passed += 1
        if total >= 20_000:
            break
    if total == 0:
        return 1.0
    return passed / total
