"""2d+1 schedules.

A statement's schedule maps each domain point to an integer vector; global
execution order is the lexicographic order of those vectors across all
statements (schedule-tree semantics flattened to vectors, §2.1).

Dimensions come in three kinds:

* :class:`ConstDim` — static "text" dimensions separating statements,
* :class:`LoopDim` — an affine function of the original iterators
  (interchange permutes these, skewing/shifting rewrite their expression),
* :class:`TileDim` — ``floor(expr / size)``, the block dimension introduced
  by loop tiling.  Using an explicit floor keeps the executed order exact
  without re-deriving tile-local domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple, Union

import numpy as np

from ..memo import memoized_str
from .affine import Affine, aff, affine_column


@dataclass(frozen=True)
class ConstDim:
    """Static dimension: orders statements textually."""

    value: int

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.value

    def rename(self, mapping: Mapping[str, str]) -> "ConstDim":
        return self

    @property
    def is_dynamic(self) -> bool:
        return False

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class LoopDim:
    """Dynamic dimension: an affine function of iterators."""

    expr: Affine

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.expr.evaluate(env)

    def rename(self, mapping: Mapping[str, str]) -> "LoopDim":
        return LoopDim(self.expr.rename(dict(mapping)))

    @property
    def is_dynamic(self) -> bool:
        return True

    def __str__(self) -> str:
        return str(self.expr)


@dataclass(frozen=True)
class TileDim:
    """Dynamic block dimension ``floor(expr / size)`` from loop tiling."""

    expr: Affine
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"tile size must be positive, got {self.size}")

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.expr.evaluate(env) // self.size

    def rename(self, mapping: Mapping[str, str]) -> "TileDim":
        return TileDim(self.expr.rename(dict(mapping)), self.size)

    @property
    def is_dynamic(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"floor(({self.expr})/{self.size})"


SchedDim = Union[ConstDim, LoopDim, TileDim]


@dataclass(frozen=True)
class Schedule:
    """A statement schedule: a tuple of dimensions."""

    dims: Tuple[SchedDim, ...]

    @staticmethod
    def canonical(iterators: Sequence[str],
                  positions: Sequence[int]) -> "Schedule":
        """Build the 2d+1 form ``[c0, i1, c1, i2, ..., id, cd]``.

        ``positions`` has ``d+1`` entries: the textual position at each
        nesting level (the constants of the 2d+1 vector).
        """
        if len(positions) != len(iterators) + 1:
            raise ValueError("need d+1 textual positions for d iterators")
        dims: List[SchedDim] = []
        for pos, name in zip(positions, iterators):
            dims.append(ConstDim(pos))
            dims.append(LoopDim(aff(Affine.var(name))))
        dims.append(ConstDim(positions[-1]))
        return Schedule(tuple(dims))

    def evaluate(self, env: Mapping[str, int]) -> Tuple[int, ...]:
        return tuple(dim.evaluate(env) for dim in self.dims)

    def evaluate_columns(self, columns: Mapping[str, "np.ndarray"],
                         params: Mapping[str, int],
                         length: int) -> "np.ndarray":
        """Batch :meth:`evaluate`: one ``(length, len(dims))`` int64 row
        of schedule keys per environment row.

        Iterators resolve through ``columns``, parameters through
        ``params`` — the same precedence (and the same ``KeyError`` on
        unbound names) as the scalar evaluator.
        """
        keys = np.empty((length, len(self.dims)), dtype=np.int64)
        for d, dim in enumerate(self.dims):
            keys[:, d] = dim_column(dim, columns, params, length)
        return keys

    @property
    def depth(self) -> int:
        """Number of dynamic dimensions."""
        return sum(1 for d in self.dims if d.is_dynamic)

    def dynamic_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.dims) if d.is_dynamic)

    def padded(self, length: int) -> "Schedule":
        """Pad with trailing zero constants (schedules compare elementwise)."""
        if len(self.dims) >= length:
            return self
        return Schedule(self.dims + tuple(
            ConstDim(0) for _ in range(length - len(self.dims))))

    def with_dim(self, index: int, dim: SchedDim) -> "Schedule":
        dims = list(self.dims)
        dims[index] = dim
        return Schedule(tuple(dims))

    def insert_dims(self, index: int,
                    new_dims: Sequence[SchedDim]) -> "Schedule":
        dims = list(self.dims)
        dims[index:index] = list(new_dims)
        return Schedule(tuple(dims))

    def rename(self, mapping: Mapping[str, str]) -> "Schedule":
        return Schedule(tuple(d.rename(mapping) for d in self.dims))

    @memoized_str
    def __str__(self) -> str:
        return "[" + ", ".join(str(d) for d in self.dims) + "]"


def dim_column(dim: SchedDim, columns: Mapping[str, "np.ndarray"],
               params: Mapping[str, int], length: int) -> "np.ndarray":
    """One schedule dimension evaluated over column vectors.

    ``TileDim`` uses int64 floor division, which matches Python ``//``
    semantics for negatives — block indices of shifted/skewed spaces
    stay exact.
    """
    if isinstance(dim, ConstDim):
        return np.full(length, dim.value, dtype=np.int64)
    col = affine_column(dim.expr, columns, params, length)
    if isinstance(dim, TileDim):
        return col // dim.size
    return col


def align_schedules(schedules: Sequence[Schedule]) -> List[Schedule]:
    """Pad a set of schedules to a common length for lexicographic order."""
    width = max(len(s.dims) for s in schedules)
    return [s.padded(width) for s in schedules]
