"""Trace-driven LRU cache simulator.

Executes the program's *access trace* (schedule order, small sizes) through
a fully-associative LRU cache and counts misses per array.  It exists to
validate the analytical model: tests assert both models agree on the
*direction* of transformation effects (tiling reduces misses, a bad
interchange increases them) even though absolute counts differ.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from ..ir.program import Program
from .model import DEFAULT_MACHINE


@dataclass(frozen=True)
class TraceResult:
    accesses: int
    misses: int
    per_array_misses: Tuple[Tuple[str, int], ...]

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class LineCache:
    """Fully-associative LRU cache of fixed byte capacity."""

    def __init__(self, capacity_bytes: int, line_bytes: int) -> None:
        if capacity_bytes < line_bytes:
            raise ValueError("cache smaller than one line")
        self.lines = max(1, capacity_bytes // line_bytes)
        self.line_bytes = line_bytes
        self._store: "OrderedDict[int, None]" = OrderedDict()
        self.misses = 0
        self.accesses = 0

    def touch(self, address_bytes: int) -> bool:
        """Access one byte address; returns True on hit."""
        line = address_bytes // self.line_bytes
        self.accesses += 1
        if line in self._store:
            self._store.move_to_end(line)
            return True
        self.misses += 1
        self._store[line] = None
        if len(self._store) > self.lines:
            self._store.popitem(last=False)
        return False


def simulate_trace(program: Program, params: Mapping[str, int],
                   capacity_bytes: int = 0) -> TraceResult:
    """Run the access trace (at most 400,000 instances) through an LRU
    cache of the default machine's line size.

    ``capacity_bytes`` defaults to the machine cache size; tests typically
    shrink it so small problem sizes still exercise capacity misses.
    """
    machine = DEFAULT_MACHINE
    capacity = capacity_bytes or machine.cache_bytes
    cache = LineCache(capacity, machine.line_bytes)
    per_array: Dict[str, int] = {}

    # array base offsets in one flat byte-addressed space
    bases: Dict[str, int] = {}
    strides: Dict[str, Tuple[int, ...]] = {}
    offset = 0
    for decl in program.arrays:
        shape = decl.shape(params)
        row: list = []
        acc = 1
        for size in reversed(shape):
            row.append(acc)
            acc *= max(1, size)
        strides[decl.name] = tuple(reversed(row))
        bases[decl.name] = offset
        offset += acc * machine.elem_bytes + machine.line_bytes

    # batched enumeration + schedule sort shared with the interpreter
    # engines; addresses are then precomputed per statement as vectorized
    # affine maps, leaving only the inherently sequential LRU walk scalar
    from ..runtime.instances import affine_column, sorted_instances

    batch = sorted_instances(
        program, params, 400_000,
        lambda _b: RuntimeError("trace budget exceeded"),
        honor_guards=True)

    arrays_by_stmt = []
    addr_rows = []
    for si, stmt in enumerate(program.statements):
        points = batch.statement_order(si)
        n = len(points)
        cols = {name: points[:, d]
                for d, name in enumerate(stmt.domain.iterator_names)}
        refs = [ref for ref, _is_write in stmt.all_refs()]
        arrays_by_stmt.append([ref.array for ref in refs])
        addresses = np.empty((n, len(refs)), dtype=np.int64)
        for k, ref in enumerate(refs):
            stride = strides[ref.array]
            flat = np.zeros(n, dtype=np.int64)
            for s, ix in zip(stride, ref.indices):
                flat += s * affine_column(ix, cols, params, n)
            addresses[:, k] = bases[ref.array] + flat * machine.elem_bytes
        addr_rows.append(addresses.tolist())

    cursors = [0] * len(program.statements)
    touch = cache.touch
    for si in batch.si.tolist():
        row = addr_rows[si][cursors[si]]
        cursors[si] += 1
        names = arrays_by_stmt[si]
        for k, address in enumerate(row):
            before = cache.misses
            touch(address)
            if cache.misses != before:
                name = names[k]
                per_array[name] = per_array.get(name, 0) + 1

    return TraceResult(accesses=cache.accesses, misses=cache.misses,
                       per_array_misses=tuple(sorted(per_array.items())))
