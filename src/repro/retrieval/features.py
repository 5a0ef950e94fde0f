"""Loop feature extraction for retrieval (Appendix D, Figure 13).

Two feature families per statement, both *name-free* so that renaming
arrays or iterators does not change them (§4.2 — renaming never affects
which transformations apply):

* **schedule features** — the 2d+1 vector split into constant (partial
  order) and iterator dimensions; iterator dims are encoded by position;
* **array index features** — one item per subscript dimension per
  reference, as the tuple of (iterator-position, coefficient) pairs plus
  the constant column, tagged read or write.  All-zero iterator columns
  are dropped so references of different depths can still match.

Features are *multisets* (``Counter``): the LAScore equations count
intersections.  Each feature is keyed by its canonical string, the
``repr`` of its tuple (all parts are ints and strings, so two features
are equal exactly when their strings are).  String keys are what lets a
stored corpus persist its features as plain JSON (``synthesis.store``)
and load them back without re-extracting them from the programs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Tuple

from ..ir.program import Program
from ..ir.schedule import ConstDim, TileDim
from ..ir.statement import Statement

#: feature family names (the j axis in Eqs 2-4)
FEATURE_KINDS = ("schedule", "write_index", "read_index")


@dataclass(frozen=True)
class StatementFeatures:
    """Feature multisets of one statement."""

    statement: str
    features: Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...]

    def counter(self, kind: str) -> Counter:
        for name, items in self.features:
            if name == kind:
                return Counter(dict(items))
        return Counter()


def _iterator_positions(stmt: Statement) -> Dict[str, int]:
    return {name: pos
            for pos, name in enumerate(stmt.domain.iterator_names)}


def _schedule_items(stmt: Statement) -> Counter:
    positions = _iterator_positions(stmt)
    items: Counter = Counter()
    for level, dim in enumerate(stmt.schedule.dims):
        if isinstance(dim, ConstDim):
            items[("const", level, dim.value)] += 1
            continue
        coeffs = tuple(sorted(
            (positions[v], dim.expr.coeff(v))
            for v in dim.expr.variables() if v in positions))
        tag = "tile" if isinstance(dim, TileDim) else "iter"
        items[(tag, level, coeffs, dim.expr.const)] += 1
    return items


def _index_items(stmt: Statement, want_write: bool) -> Counter:
    positions = _iterator_positions(stmt)
    items: Counter = Counter()
    for ref, is_write in stmt.all_refs():
        if is_write != want_write:
            continue
        for dim_pos, index in enumerate(ref.indices):
            coeffs = tuple(sorted(
                (positions[v], index.coeff(v))
                for v in index.variables()
                if v in positions and index.coeff(v) != 0))
            # zero columns removed: only non-zero coefficients encoded
            items[(dim_pos, coeffs, index.const)] += 1
    return items


def statement_features(stmt: Statement) -> StatementFeatures:
    """Extract the three feature multisets of one statement."""
    packed = []
    for kind, counter in (
            ("schedule", _schedule_items(stmt)),
            ("write_index", _index_items(stmt, True)),
            ("read_index", _index_items(stmt, False))):
        packed.append((kind, tuple(sorted(
            (repr(item), count) for item, count in counter.items()))))
    return StatementFeatures(statement=stmt.name,
                             features=tuple(packed))


def program_features(program: Program) -> Tuple[StatementFeatures, ...]:
    """Features for every statement, in schedule (textual) order."""
    return tuple(statement_features(stmt) for stmt in program.statements)


def intersection_count(a: Counter, b: Counter) -> int:
    """Multiset intersection size, Count(F_T ∩ F_E)."""
    return sum((a & b).values())
