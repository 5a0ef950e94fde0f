"""Loop property extraction (§2.1, Figure 4).

The eleven properties the paper models — loop structure (number of
statements, loop bounds, loop depth, loop schedule), data dependence
(number, type, distance) and array access (number of arrays, names, sizes,
indexes) — are extracted here from a :class:`Program`.  Figure 9's
distribution study buckets eight of them into four clusters (A–D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..ir.program import Program
from ..ir.schedule import ConstDim
from .dependences import dependences


@dataclass(frozen=True)
class LoopProperties:
    """The paper's eleven loop properties for one SCoP."""

    n_statements: int
    bounds_iter_refs: int          # bounds referencing outer iterators
    loop_depth: int
    perfect: bool                  # loop schedule shape (§2.1)
    n_dependences: int
    dep_types: Tuple[str, ...]
    max_dep_distance: int
    n_arrays: int
    array_names: Tuple[str, ...]
    total_array_cells: int
    index_signatures: Tuple[str, ...]


def _is_perfect(program: Program) -> bool:
    """All statements at max depth with identical non-final const dims."""
    depth = program.max_depth
    if any(s.domain.depth != depth for s in program.statements):
        return False
    consts = None
    for sched in program.aligned_schedules():
        own = tuple(d.value for d in sched.dims[:-1]
                    if isinstance(d, ConstDim))
        if consts is None:
            consts = own
        elif own != consts:
            return False
    return True


def extract_properties(program: Program) -> LoopProperties:
    """Extract all eleven loop properties (array sizes at 32 per
    parameter)."""
    deps = dependences(program)
    bounds_refs = 0
    for stmt in program.statements:
        outer = set(program.params)
        for spec in stmt.domain.iters:
            for bound in spec.lowers + spec.uppers:
                if set(bound.variables()) - set(program.params):
                    bounds_refs += 1
            outer.add(spec.name)
    max_dist = 0
    for dep in deps:
        for vec in dep.distances:
            for v in vec:
                max_dist = max(max_dist, abs(v))
    names = tuple(sorted(program.array_names()))
    size_params = {p: 32 for p in program.params}
    cells = sum(
        int(_prod(decl.shape(size_params))) for decl in program.arrays)
    signatures: List[str] = []
    for stmt in program.statements:
        for ref, is_write in stmt.all_refs():
            marker = "W" if is_write else "R"
            sig = marker + ":" + ",".join(str(ix) for ix in ref.indices)
            signatures.append(sig)
    return LoopProperties(
        n_statements=len(program.statements),
        bounds_iter_refs=bounds_refs,
        loop_depth=program.max_depth,
        perfect=_is_perfect(program),
        n_dependences=len(deps),
        dep_types=tuple(sorted({d.kind for d in deps})),
        max_dep_distance=max_dist,
        n_arrays=len(program.arrays),
        array_names=names,
        total_array_cells=cells,
        index_signatures=tuple(sorted(signatures)),
    )


def _prod(values: Tuple[int, ...]) -> int:
    out = 1
    for v in values:
        out *= max(1, v)
    return out


# ----------------------------------------------------------------------
# Figure 9 clustering: eight properties, four clusters A-D each
# ----------------------------------------------------------------------
FIG9_PROPERTIES = ("NStmts", "Bound", "Depth", "Schedule",
                   "NDeps", "DepType", "NArrays", "ArraySize")

_CLUSTERS = "ABCD"


def _bucket(value: int, edges: Tuple[int, int, int]) -> str:
    """Cluster by three inclusive upper edges: A<=e0 < B<=e1 < C<=e2 < D."""
    for label, edge in zip(_CLUSTERS, edges):
        if value <= edge:
            return label
    return "D"


def property_cluster(name: str, props: LoopProperties) -> str:
    """Assign one property value to cluster A/B/C/D (Figure 9)."""
    if name == "NStmts":
        return _bucket(props.n_statements, (1, 2, 4))
    if name == "Bound":
        return _bucket(props.bounds_iter_refs, (0, 1, 3))
    if name == "Depth":
        return _bucket(props.loop_depth, (1, 2, 3))
    if name == "Schedule":
        # perfect/imperfect × single/multi statement
        if props.perfect:
            return "A" if props.n_statements == 1 else "B"
        return "C" if props.n_statements <= 2 else "D"
    if name == "NDeps":
        # the paper's own example clustering: 0-2 / 3-5 / 6-10 / 11+
        return _bucket(props.n_dependences, (2, 5, 10))
    if name == "DepType":
        kinds = set(props.dep_types)
        if not kinds:
            return "A"
        if kinds == {"RAW"}:
            return "B"
        if len(kinds) == 2:
            return "C"
        if len(kinds) >= 3:
            return "D"
        return "B"
    if name == "NArrays":
        return _bucket(props.n_arrays, (1, 2, 3))
    if name == "ArraySize":
        return _bucket(props.total_array_cells, (1100, 2200, 4400))
    raise KeyError(name)


def cluster_distribution(programs: Sequence[Program]
                         ) -> Dict[str, Dict[str, float]]:
    """Per-property cluster percentage distribution over a corpus."""
    counts: Dict[str, Dict[str, int]] = {
        prop: {c: 0 for c in _CLUSTERS} for prop in FIG9_PROPERTIES}
    for program in programs:
        props = extract_properties(program)
        for prop in FIG9_PROPERTIES:
            counts[prop][property_cluster(prop, props)] += 1
    total = max(1, len(programs))
    return {prop: {c: 100.0 * n / total for c, n in buckets.items()}
            for prop, buckets in counts.items()}
