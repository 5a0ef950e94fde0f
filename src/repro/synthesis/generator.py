"""Parameter-driven example-code synthesis (Algorithm 1, §4.1).

The generator turns one sampled :class:`LoopParameters` configuration into
a *legal* SCoP program:

1. a random loop tree gives the schedule matrix (loop depth / statement
   index / number of statements);
2. iterator bounds come from ``Iterator Bound`` (triangular bounds with the
   sampled probability) with safety margins derived from ``Dep Distance``
   and ``Array Indexes`` — this is the decoupling that prevents the
   "array index out of bounds" contradictions §4.1 describes;
3. arrays are assigned with *priority*: dependence-derived references
   (``Write Dep`` → WAW targets, ``Read Dep`` → WAR/RAW reads) override
   the random ``Array List`` choice;
4. dependence sources are always earlier statements, which together with
   the explicit cycle check makes circular dependences impossible
   (the contradiction-check mechanism);
5. the result is validated and interpreted once at a tiny size — any
   residual contradiction resamples the configuration.

Synthesized programs use one global parameter ``N``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.affine import Affine, aff, var
from ..ir.domain import Domain, IterSpec
from ..ir.expr import Assignment, Bin, Const, Expr, Ref
from ..ir.program import ArrayDecl, Program, make_program
from ..ir.schedule import Schedule
from ..ir.statement import Statement
from ..ir.validate import check_program
from ..runtime.interpreter import run
from .parameters import NAME_LIST, SIZE_LIST, LoopParameters

_PARAM = "N"
_TINY = {"N": 9}
_MAX_LOOPS = 7
_MAX_ATTEMPTS = 12


class SynthesisError(RuntimeError):
    """The sampled configuration could not be realised legally."""


@dataclass
class _LoopNode:
    iterator: str
    depth: int
    upper_iter: Optional[str]  # triangular bound, when set
    children: List["_LoopNode"] = field(default_factory=list)
    items: List[object] = field(default_factory=list)  # statements + loops


@dataclass
class _StmtDraft:
    index: int
    path: List[_LoopNode]
    positions: List[int]
    lhs: Optional[Ref] = None
    reads: List[Ref] = field(default_factory=list)
    op: str = "="
    #: indices of statements this one's refs derive from (cycle check)
    sources: List[int] = field(default_factory=list)

    def iterators(self) -> List[str]:
        return [node.iterator for node in self.path]


#: loop-bound safety margin; all subscript constants are clamped to ±_MARGIN
#: so every access lands in [0, N-1] by construction (the bounds/indexes
#: decoupling of §4.1).  Small enough that the analysis binding N=6 still
#: yields populated domains for exact dependence concretization.
_MARGIN = 2


def _margin(params: LoopParameters) -> int:
    return _MARGIN


def _clamp_const(expr: Affine) -> Affine:
    """Clamp the constant part of a subscript to the safety margin."""
    if -_MARGIN <= expr.const <= _MARGIN:
        return expr
    clamped = max(-_MARGIN, min(_MARGIN, expr.const))
    return Affine(expr.terms, clamped)


def _build_tree(rng: random.Random, params: LoopParameters
                ) -> Tuple[_LoopNode, List[_LoopNode]]:
    """Random loop tree bounded by LoopDepth / StatementIndex."""
    counter = [0]
    all_nodes: List[_LoopNode] = []

    def make(depth: int, outer: List[str]) -> _LoopNode:
        counter[0] += 1
        name = f"i{counter[0]}"
        upper_iter = None
        if outer and rng.random() < params.iterator_bound:
            upper_iter = rng.choice(outer)
        node = _LoopNode(iterator=name, depth=depth, upper_iter=upper_iter)
        all_nodes.append(node)
        if depth < params.loop_depth and counter[0] < _MAX_LOOPS:
            for _ in range(rng.randint(0, params.statement_index)):
                if counter[0] >= _MAX_LOOPS:
                    break
                child = make(depth + 1, outer + [name])
                node.children.append(child)
        return node

    root = _LoopNode(iterator="<root>", depth=0, upper_iter=None)
    for _ in range(rng.randint(1, params.statement_index)):
        if counter[0] >= _MAX_LOOPS:
            break
        root.children.append(make(1, []))
    if not root.children:
        root.children.append(make(1, []))
    return root, all_nodes


def _paths(root: _LoopNode) -> Dict[str, List[_LoopNode]]:
    out: Dict[str, List[_LoopNode]] = {}

    def walk(node: _LoopNode, path: List[_LoopNode]) -> None:
        for child in node.children:
            out[child.iterator] = path + [child]
            walk(child, path + [child])

    walk(root, [])
    return out


def _common_prefix(a: Sequence[str], b: Sequence[str]) -> List[str]:
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return out


def _shift_indices(indices: Sequence[Affine], common: Sequence[str],
                   own_iters: Sequence[str], rng: random.Random,
                   max_dist: int, margin: int) -> Tuple[Affine, ...]:
    """Re-express a source reference in the target statement's iterators.

    Common iterators get a bounded distance shift; deeper source iterators
    are replaced by the target's iterator at the same depth when available,
    else pinned to the safe constant ``margin``.
    """
    common_set = set(common)
    out: List[Affine] = []
    for index in indices:
        new = Affine.const_expr(index.const)
        for name, coeff in index.terms:
            if name in common_set:
                delta = rng.randint(-max_dist, max_dist)
                new = new + var(name, coeff) + delta * abs(coeff)
            else:
                depth_sub = own_iters[min(len(own_iters) - 1,
                                          len(common))] if own_iters else None
                if depth_sub is not None:
                    new = new + var(depth_sub, coeff)
                else:
                    new = new + coeff * margin
        out.append(_clamp_const(new))
    return tuple(out)


class ExampleSynthesizer:
    """Synthesizes one legal SCoP per seed."""

    def __init__(self, base_seed: int = 0) -> None:
        self.base_seed = base_seed

    def synthesize(self, index: int) -> Program:
        """Generate the ``index``-th example (deterministic per seed)."""
        last_error = "no attempt"
        for attempt in range(_MAX_ATTEMPTS):
            rng = random.Random(f"{self.base_seed}/{index}/{attempt}")
            config = LoopParameters.sample(rng)
            try:
                program = self._generate(rng, config, index)
            except SynthesisError as exc:
                last_error = str(exc)
                continue
            errors = check_program(program)
            if errors:
                last_error = errors[0]
                continue
            try:
                result = run(program, _TINY, budget=100_000)
            except Exception as exc:  # OOB / empty bounds -> resample
                last_error = str(exc)
                continue
            # numeric sanity: compounding *= chains grow exponentially,
            # which makes legal reorderings diverge (and would poison
            # differential testing downstream) — resample on any sign of
            # blow-up at the tiny size
            import numpy as np
            tame = all(np.isfinite(arr).all() and
                       np.abs(arr).max() < 1e3
                       for arr in result.outputs.values())
            if not tame:
                last_error = "numerically unstable outputs"
                continue
            return program
        raise SynthesisError(
            f"example {index}: no legal program in {_MAX_ATTEMPTS} "
            f"attempts ({last_error})")

    # ------------------------------------------------------------------
    def _generate(self, rng: random.Random, params: LoopParameters,
                  index: int) -> Program:
        margin = _margin(params)
        root, nodes = _build_tree(rng, params)
        paths = _paths(root)
        placeable = [n for n in nodes if n.depth >= 1]
        if not placeable:
            raise SynthesisError("empty loop tree")

        drafts: List[_StmtDraft] = []
        previous_node = None
        for si in range(params.n_statements):
            # co-locating statements in one loop body is how the fused
            # patterns that trigger fusion/shifting/distribution arise
            if previous_node is not None and rng.random() < 0.4:
                node = previous_node
            else:
                node = rng.choice(placeable)
            previous_node = node
            drafts.append(_StmtDraft(index=si,
                                     path=paths[node.iterator],
                                     positions=[]))
        # statements attach to their node in draft order
        for draft in drafts:
            draft.path[-1].items.append(draft)
        for node in nodes:
            for child in node.children:
                node.items.append(child)
        for child in root.children:
            root.items.append(child)

        arrays: Dict[str, int] = {}     # name -> rank
        writes: List[Tuple[int, Ref]] = []

        def fresh_ref(draft: _StmtDraft) -> Ref:
            name = rng.choice(NAME_LIST[:max(2, params.array_list + 1)])
            iters = draft.iterators()
            rank = arrays.get(name)
            if rank is None:
                rank = min(len(iters), rng.randint(1, 2))
                arrays[name] = rank
            chosen = rng.sample(iters, min(rank, len(iters)))
            while len(chosen) < rank:
                chosen.append(chosen[-1])
            indices = tuple(
                var(it) + rng.randint(-params.array_indexes,
                                      params.array_indexes)
                for it in chosen)
            return Ref(name, indices)

        def dep_ref(draft: _StmtDraft, sources: List[Tuple[int, Ref]]
                    ) -> Optional[Ref]:
            if not sources:
                return None
            src_idx, src_ref = rng.choice(sources)
            if src_idx in self._cycle(drafts, draft.index):
                # contradiction-check: dropping would-be circular deps
                return None
            src_iters = drafts[src_idx].iterators()
            common = _common_prefix(src_iters, draft.iterators())
            indices = _shift_indices(src_ref.indices, common,
                                     draft.iterators(), rng,
                                     params.dep_distance, margin)
            draft.sources.append(src_idx)
            return Ref(src_ref.array, indices)

        for draft in drafts:
            earlier = [(i, r) for i, r in writes if i < draft.index]
            # priority: dependence-related parameters override Array List
            lhs = None
            if rng.random() < params.write_dep:
                lhs = dep_ref(draft, earlier)
            if lhs is None:
                lhs = fresh_ref(draft)
            draft.lhs = lhs
            n_reads = rng.randint(1, params.read_array)
            n_dep_reads = min(n_reads, rng.randint(1, params.read_dep))
            for _ in range(n_dep_reads):
                ref = dep_ref(draft, earlier + [(draft.index, lhs)])
                if ref is not None:
                    draft.reads.append(ref)
            while len(draft.reads) < n_reads:
                draft.reads.append(fresh_ref(draft))
            draft.op = rng.choice(("=", "+=", "-=", "*="))
            writes.append((draft.index, lhs))

        return self._materialise(rng, params, drafts, root, arrays,
                                 margin, index)

    @staticmethod
    def _cycle(drafts: List[_StmtDraft], start: int) -> set:
        """Statements reachable from ``start`` through dep sources."""
        seen = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(drafts[node].sources)
        return seen

    def _materialise(self, rng: random.Random, params: LoopParameters,
                     drafts: List[_StmtDraft], root: _LoopNode,
                     arrays: Dict[str, int], margin: int,
                     index: int) -> Program:
        # schedule positions from the item order at each node
        positions: Dict[int, List[int]] = {}

        def walk(node: _LoopNode, prefix: List[int]) -> None:
            for pos, item in enumerate(node.items):
                if isinstance(item, _StmtDraft):
                    positions[item.index] = prefix + [pos]
                else:
                    walk(item, prefix + [pos])

        walk(root, [])

        # emit statements in textual (schedule) order so names match what
        # a print→parse round-trip assigns — recipes stored in a dataset
        # stay replayable on the reparsed program
        drafts = sorted(drafts, key=lambda d: positions[d.index])

        statements: List[Statement] = []
        for order, draft in enumerate(drafts):
            specs = []
            for node in draft.path:
                upper = (var(node.upper_iter) if node.upper_iter
                         else var(_PARAM) - (1 + margin))
                specs.append(IterSpec(node.iterator, (aff(margin),),
                                      (upper,)))
            domain = Domain(tuple(specs))
            sched = Schedule.canonical(draft.iterators(),
                                       positions[draft.index])
            rhs: Expr = draft.reads[0]
            for ref in draft.reads[1:]:
                rhs = Bin(rng.choice("+-*"), rhs, ref)
            if rng.random() < 0.3:
                rhs = Bin(rng.choice("+-*"), rhs,
                          Const(float(rng.randint(2, 9))))
            statements.append(Statement(
                name=f"S{order + 1}", domain=domain, schedule=sched,
                body=Assignment(draft.lhs, draft.op, rhs)))

        referenced = set()
        for stmt in statements:
            for ref, _w in stmt.all_refs():
                referenced.add(ref.array)
        decls = []
        for name in sorted(referenced):
            rank = arrays.get(name, 1)
            size = var(_PARAM) + rng.choice(SIZE_LIST)
            decls.append(ArrayDecl(name, tuple([size] * rank)))
        written = sorted({s.write().array for s in statements})
        return make_program(f"ex{index:06d}", (_PARAM,), decls, statements,
                            outputs=written)
