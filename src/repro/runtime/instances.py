"""Batched statement-instance enumeration.

Enumerating every statement instance, mapping it through the statement's
schedule and sorting the result globally is the common prologue of the
interpreter, the dependence concretizer and the trace simulator.  The seed
repo did it three times over with per-instance Python loops: one dict copy
and one recursive affine walk per instance, then a sort of millions of
Python tuples.  This module does it once, in bulk:

* :func:`domain_points` enumerates a domain level by level into one
  ``(points, depth)`` int64 array — bounds that reference outer iterators
  are evaluated as vectorized affine maps over the partial point matrix;
* :func:`sorted_instances` evaluates every statement's (aligned) schedule
  as a vectorized affine map and orders all instances with one
  ``np.lexsort`` (stable, so instances tying on the full schedule key and
  statement index keep source enumeration order — exactly what the Python
  ``list.sort`` on ``(key, si)`` tuples produced);
* :func:`instance_list` adapts the batch back to the legacy
  ``(key tuple, statement index, point dict)`` list for the scalar
  consumers (the reference interpreter and the dependence tracker).

Budgets are enforced during enumeration, like the scalar loops enforced
them: the caller supplies the exception to raise when the instance count
exceeds the budget, so the interpreter can raise
:class:`~repro.runtime.interpreter.BudgetExceededError` and the dependence
analysis its ``RuntimeError`` with unchanged messages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

#: ``affine_column`` moved to ``ir.affine`` (shared with the analysis
#: engines); re-exported here for the runtime-side consumers
from ..ir.affine import affine_column  # noqa: F401
from ..ir.domain import Domain
from ..ir.program import Program
from ..ir.schedule import dim_column
from ..memo import memo_on

#: column environment: iterator name -> int64 column vector
Columns = Dict[str, np.ndarray]


def domain_points(domain: Domain, params: Mapping[str, int],
                  limit: Optional[int] = None,
                  exceeded: Optional[Callable[[], Exception]] = None
                  ) -> np.ndarray:
    """All points of ``domain`` as an ``(n, depth)`` int64 array.

    Rows appear in source (nested-loop) order, matching
    ``Domain.enumerate``.  When ``limit`` is given and the point count
    would exceed it, raises ``exceeded()``; intermediate levels that grow
    past the limit defer to the scalar enumerator, which counts complete
    points exactly (an outer level larger than the budget can still yield
    few complete points when inner ranges are empty).
    """
    points = np.zeros((1, 0), dtype=np.int64)
    columns: Columns = {}
    for level, spec in enumerate(domain.iters):
        n = len(points)
        lo = affine_column(spec.lowers[0], columns, params, n)
        for bound in spec.lowers[1:]:
            np.maximum(lo, affine_column(bound, columns, params, n), out=lo)
        hi = affine_column(spec.uppers[0], columns, params, n)
        for bound in spec.uppers[1:]:
            np.minimum(hi, affine_column(bound, columns, params, n), out=hi)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        if limit is not None and total > limit:
            if level == len(domain.iters) - 1:
                raise exceeded()
            return _scalar_points(domain, params, limit, exceeded)
        reps = np.repeat(np.arange(n), counts)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        values = (np.arange(total, dtype=np.int64)
                  - np.repeat(starts, counts) + np.repeat(lo, counts))
        points = np.column_stack([points[reps], values])
        columns = {s.name: points[:, i]
                   for i, s in enumerate(domain.iters[:level + 1])}
    return points


def _scalar_points(domain: Domain, params: Mapping[str, int],
                   limit: int, exceeded: Callable[[], Exception]
                   ) -> np.ndarray:
    """Fallback enumeration with exact per-point budget accounting."""
    names = domain.iterator_names
    rows: List[Tuple[int, ...]] = []
    for point in domain.enumerate(params):
        if len(rows) >= limit:
            raise exceeded()
        rows.append(tuple(point[name] for name in names))
    if not rows:
        return np.zeros((0, len(names)), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


@dataclass(frozen=True)
class InstanceBatch:
    """Every instance of a program, sorted into global execution order.

    ``points[si]`` holds statement ``si``'s domain points in source order;
    the flat ``si`` / ``row`` vectors describe the global schedule order:
    position ``g`` executes instance ``points[si[g]][row[g]]``.  ``keys``
    are the evaluated (aligned) schedule vectors in the same global order.
    """

    points: Tuple[np.ndarray, ...]
    si: np.ndarray
    row: np.ndarray
    keys: np.ndarray

    def __len__(self) -> int:
        return len(self.si)

    def order_digest(self) -> str:
        """Hash of the global order ``si``/``row``, memoized on the batch
        (equal-length vectors, so the concatenation is unambiguous)."""
        return memo_on(self, "_order_digest", lambda: hashlib.blake2b(
            self.si.tobytes() + self.row.tobytes(),
            digest_size=16).hexdigest())

    def statement_order(self, si: int) -> np.ndarray:
        """Statement ``si``'s points gathered into global execution order."""
        return self.points[si][self.row[self.si == si]]

    def run_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Maximal same-statement runs as ``(starts, ends)`` index arrays."""
        n = len(self.si)
        if n == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        cuts = np.flatnonzero(np.diff(self.si)) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [n]))
        return starts, ends


def guard_mask(program: Program, si: int, points: np.ndarray,
               params: Mapping[str, int]) -> np.ndarray:
    """Boolean mask of points whose guards all hold (vectorized)."""
    stmt = program.statements[si]
    n = len(points)
    mask = np.ones(n, dtype=bool)
    if not stmt.guards or n == 0:
        return mask
    columns = {name: points[:, d]
               for d, name in enumerate(stmt.domain.iterator_names)}
    for guard in stmt.guards:
        mask &= affine_column(guard, columns, params, n) >= 0
    return mask


def sorted_instances(program: Program, params: Mapping[str, int],
                     budget: int,
                     exceeded: Callable[[int], Exception],
                     honor_guards: bool = False) -> InstanceBatch:
    """Enumerate, schedule and globally order every statement instance.

    ``exceeded`` receives the budget and must build the exception to raise
    when enumeration passes it (counted per enumerated domain point,
    before guard filtering — the same accounting as the scalar loops).
    With ``honor_guards`` instances whose guards fail are dropped before
    sorting, as the dependence concretizer requires.
    """
    schedules = program.aligned_schedules()
    width = max((len(s.dims) for s in schedules), default=0)
    per_points: List[np.ndarray] = []
    per_keys: List[np.ndarray] = []
    per_si: List[np.ndarray] = []
    per_row: List[np.ndarray] = []
    count = 0
    for si, stmt in enumerate(program.statements):
        remaining = budget - count

        def _exceed() -> Exception:
            return exceeded(budget)

        points = domain_points(stmt.domain, params, remaining, _exceed)
        count += len(points)
        rows = np.arange(len(points), dtype=np.int64)
        if honor_guards:
            mask = guard_mask(program, si, points, params)
            rows = rows[mask]
        kept = points[rows]
        columns = {name: kept[:, d]
                   for d, name in enumerate(stmt.domain.iterator_names)}
        keys = np.empty((len(kept), width), dtype=np.int64)
        for d, dim in enumerate(schedules[si].dims):
            keys[:, d] = dim_column(dim, columns, params, len(kept))
        per_points.append(points)
        per_keys.append(keys)
        per_si.append(np.full(len(kept), si, dtype=np.int64))
        per_row.append(rows)
    keys = (np.concatenate(per_keys) if per_keys
            else np.zeros((0, width), dtype=np.int64))
    si_vec = (np.concatenate(per_si) if per_si
              else np.zeros(0, dtype=np.int64))
    row_vec = (np.concatenate(per_row) if per_row
               else np.zeros(0, dtype=np.int64))
    # lexsort's last key is primary: schedule key dims outrank the
    # statement index, mirroring sort-by-(key, si); stability keeps
    # source enumeration order within full ties
    order = np.lexsort((si_vec,) + tuple(keys[:, d]
                                         for d in range(width - 1, -1, -1)))
    return InstanceBatch(points=tuple(per_points), si=si_vec[order],
                         row=row_vec[order], keys=keys[order])


def instance_list(program: Program, params: Mapping[str, int],
                  budget: int,
                  exceeded: Callable[[int], Exception],
                  honor_guards: bool = False
                  ) -> List[Tuple[Tuple[int, ...], int, Dict[str, int]]]:
    """The batch as the legacy ``(key, si, point)`` list, in global order.

    Point dicts hold Python ints (``tolist``), so downstream formatting
    and arithmetic behave exactly as with the scalar enumeration.
    """
    batch = sorted_instances(program, params, budget, exceeded,
                             honor_guards=honor_guards)
    names = [stmt.domain.iterator_names for stmt in program.statements]
    keys = batch.keys.tolist()
    si_vec = batch.si.tolist()
    rows = batch.row.tolist()
    point_rows = [pts.tolist() for pts in batch.points]
    items: List[Tuple[Tuple[int, ...], int, Dict[str, int]]] = []
    for g, si in enumerate(si_vec):
        items.append((tuple(keys[g]), si,
                      dict(zip(names[si], point_rows[si][rows[g]]))))
    return items
