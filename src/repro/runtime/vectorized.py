"""Vectorized block executor (``REPRO_ENGINE=vectorized``, the default).

Executes the same instance stream as the reference interpreter —
identical global order, identical semantics, bit-identical results — but
in blocks.  After the batched enumeration sorts all instances, maximal
runs of consecutive instances from the *same statement* are executed as
single NumPy operations whenever the run provably carries no dependence
inside itself, checked at the concrete-index level:

* **scatter** — the run's write locations are pairwise distinct and no
  read location collides with a write location except element-identical
  reads of the written cell (the compound-assignment pattern): gather all
  operands, apply the statement op elementwise, scatter once;
* **reduction** — every instance writes the *same* cell with ``+=``,
  ``-=`` or ``*=`` and no RHS read touches it: fold the batched RHS
  values with ``np.add/subtract/multiply.accumulate``, which NumPy
  defines as a strict left fold — bit-identical to the sequential loop
  (verified by the equivalence suite);
* **grouped reduction** — the run writes several cells, each repeatedly
  (GEMM's ``k``/``j`` block), and no RHS read touches any written cell:
  a stable sort groups instances by cell preserving run order, and a
  masked per-step fold applies the operator column by column — every
  cell receives exactly the sequential left fold of its own updates;
* **scalar fallback** — anything else (dependence-carrying runs, tiny
  runs, statements the compile layer refused to vectorize, potential
  out-of-bounds accesses, unknown arrays) runs one instance at a time on
  the compiled scalar step, which reproduces the reference error classes,
  messages, coverage recording and partial-write state exactly.

Bounds are validated per statement with array-level min/max over the
executed instances; any potential violation demotes the whole statement
to the scalar path so the error surfaces on exactly the instance — and
after exactly the writes — the reference interpreter would produce.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..ir.program import Program
from ..memo import LRUCache
from .compile import CompiledStatement, compile_program
from .data import Storage
from .instances import InstanceBatch, affine_column, sorted_instances

#: runs shorter than this skip the NumPy mode checks entirely — per-call
#: overhead beats vector width at these sizes (results are identical
#: either way, so the constant is a pure tuning knob)
_MIN_VECTOR_RUN = 8

_ACCUMULATE = {"+=": np.add, "-=": np.subtract, "*=": np.multiply}


class _StatementState:
    """Per-statement execution plan derived once per ``execute`` call."""

    __slots__ = ("cs", "points", "cursor", "dirty", "exec_mask", "all_exec",
                 "epos", "wcols", "wlin", "rcols", "overlap", "cols",
                 "values", "vector_values", "injective", "guard_taken",
                 "pending", "src_rows")

    def __init__(self, cs: CompiledStatement) -> None:
        self.cs = cs
        self.cursor = 0
        self.dirty = False
        self.values: Optional[np.ndarray] = None
        self.src_rows: Optional[list] = None  # source-order rows (lazy)
        self.pending: Set[Tuple[int, bool]] = set()


def _linear(cols: Tuple[np.ndarray, ...],
            shape: Tuple[int, ...]) -> np.ndarray:
    """Row-major linear index of a multi-dim index column tuple."""
    out = np.zeros(len(cols[0]), dtype=np.int64)
    stride = 1
    for col, size in zip(reversed(cols), reversed(shape)):
        out += stride * col
        stride *= size
    return out


def _prepare(state: _StatementState, si: int,
             batch: InstanceBatch, params: Mapping[str, int],
             storage: Storage, shapes: Dict[str, Tuple[int, ...]],
             scalars: Dict[str, float],
             coverage_on: bool) -> None:
    """Precompute columns/masks; any trouble demotes to the scalar path."""
    cs = state.cs
    points = batch.statement_order(si)
    state.points = points
    n = len(points)
    columns = {name: points[:, d] for d, name in enumerate(cs.iter_names)}

    # guards: cumulative reached/taken masks drive both the executed set
    # and branch-coverage recording
    exec_mask = np.ones(n, dtype=bool)
    taken: List[np.ndarray] = []
    try:
        for guard in cs.guards:
            t = affine_column(guard, columns, params, n) >= 0
            taken.append((exec_mask.copy(), t))
            exec_mask &= t
    except Exception:
        state.dirty = True
        return
    state.guard_taken = taken
    state.exec_mask = exec_mask
    state.epos = np.flatnonzero(exec_mask)
    state.all_exec = len(state.epos) == n
    if coverage_on:
        state.pending = {(gi, outcome) for gi in range(len(cs.guards))
                         for outcome in (True, False)}
        state.pending.add((-1, True))

    if not cs.vector_ok or len(state.epos) == 0:
        state.dirty = not cs.vector_ok
        return
    try:
        pts = points[state.exec_mask]
        cols = {name: pts[:, d] for d, name in enumerate(cs.iter_names)}
        state.cols = cols
        ne = len(pts)
        wshape = shapes.get(cs.write_ref.array)
        if wshape is None or len(wshape) != len(cs.write_ref.indices):
            state.dirty = True
            return
        wcols = tuple(affine_column(ix, cols, params, ne)
                      for ix in cs.write_ref.indices)
        if not _in_bounds(wcols, wshape):
            state.dirty = True
            return
        state.wcols = wcols
        state.wlin = _linear(wcols, wshape)
        state.injective = np.unique(state.wlin).size == len(state.wlin)
        rcols = []
        overlap = []  # linear read columns on the written array (or None)
        for ref in cs.read_refs:
            rshape = shapes.get(ref.array)
            if rshape is None or len(rshape) != len(ref.indices):
                state.dirty = True
                return
            cols_k = tuple(affine_column(ix, cols, params, ne)
                           for ix in ref.indices)
            if not _in_bounds(cols_k, rshape):
                state.dirty = True
                return
            rcols.append(cols_k)
            overlap.append(_linear(cols_k, rshape)
                           if ref.array == cs.write_ref.array else None)
        state.rcols = rcols
        state.overlap = overlap
        state.vector_values = cs.vector_values
        if cs.pure_input:
            # inputs this RHS reads are never written: one batched
            # evaluation covers every run up front
            state.values = cs.vector_values(storage, scalars, cols, params,
                                            rcols, ne)
    except Exception:
        state.dirty = True


def _in_bounds(cols: Tuple[np.ndarray, ...],
               shape: Tuple[int, ...]) -> bool:
    for col, size in zip(cols, shape):
        if len(col) and (int(col.min()) < 0 or int(col.max()) >= size):
            return False
    return True


def _record_pending(state: _StatementState, coverage, a: int, b: int,
                    n_act: int) -> None:
    """Record not-yet-seen branch outcomes appearing in run ``[a, b)``."""
    done = []
    for key in state.pending:
        gi, outcome = key
        if gi == -1:
            hit = n_act > 0
        else:
            reached, taken = state.guard_taken[gi]
            seen = taken[a:b] if outcome else ~taken[a:b]
            hit = bool((reached[a:b] & seen).any())
        if hit:
            coverage.record(state.cs.name, gi, outcome)
            done.append(key)
    for key in done:
        state.pending.discard(key)


#: instance batches of recently executed programs, keyed like the
#: dependence memo (the enumeration reads the domains, schedules and
#: binding, never the input data): the differential tester runs each
#: candidate, and each ground truth, over several inputs at one binding.
#: Batches above ``_BATCH_MEMO_LIMIT`` instances are not held, so large
#: runs pin no memory (results are identical either way).
_BATCH_CACHE = LRUCache(16)
_BATCH_MEMO_LIMIT = 1 << 16


def _instance_batch(program: Program, params: Mapping[str, int],
                    budget: int,
                    exceeded: Callable[[int], Exception]) -> InstanceBatch:
    key = (program.analysis_key(), tuple(sorted(params.items())), budget)
    batch = _BATCH_CACHE.get(key)
    if batch is None:
        batch = sorted_instances(program, params, budget, exceeded)
        if len(batch) <= _BATCH_MEMO_LIMIT:
            for arr in (batch.si, batch.row, batch.keys) + batch.points:
                arr.flags.writeable = False  # shared across executions
            _BATCH_CACHE.put(key, batch)
    return batch


def execute_vectorized(program: Program, params: Mapping[str, int],
                       storage: Storage, coverage,
                       budget: int,
                       exceeded: Callable[[int], Exception]) -> int:
    """Run ``program`` on ``storage`` in blocks; returns executed count."""
    batch = _instance_batch(program, params, budget, exceeded)
    comp = compile_program(program)
    scalars = program.scalar_values()
    shapes = {name: arr.shape for name, arr in storage.items()}
    prog = program.name
    env_base = dict(params)

    states = []
    for si, cs in enumerate(comp.statements):
        state = _StatementState(cs)
        _prepare(state, si, batch, params, storage, shapes,
                 scalars, coverage is not None)
        states.append(state)

    executed = 0
    starts, ends = batch.run_bounds()
    run_si = batch.si[starts].tolist() if len(starts) else []
    starts_l = starts.tolist()
    ends_l = ends.tolist()
    si_list: Optional[list] = None
    row_list: Optional[list] = None
    n_runs = len(starts_l)

    r = 0
    while r < n_runs:
        si = run_si[r]
        state = states[si]
        length = ends_l[r] - starts_l[r]

        if state.dirty or length < _MIN_VECTOR_RUN:
            # sweep: walk a stretch of tiny/scalar-only runs instance by
            # instance on the compiled steps — one shared loop instead of
            # per-run setup (interleaved statements produce myriads of
            # one-instance runs)
            j = r
            while j < n_runs and (
                    states[run_si[j]].dirty
                    or ends_l[j] - starts_l[j] < _MIN_VECTOR_RUN):
                states[run_si[j]].cursor += ends_l[j] - starts_l[j]
                j += 1
            if si_list is None:
                si_list = batch.si.tolist()
                row_list = batch.row.tolist()
            for g in range(starts_l[r], ends_l[j - 1]):
                gsi = si_list[g]
                gstate = states[gsi]
                if gstate.src_rows is None:
                    gstate.src_rows = batch.points[gsi].tolist()
                env = dict(env_base)
                env.update(zip(gstate.cs.iter_names,
                               gstate.src_rows[row_list[g]]))
                if gstate.cs.scalar_step(env, storage, shapes, scalars,
                                         coverage, prog):
                    executed += 1
            r = j
            continue

        cs = state.cs
        a = state.cursor
        b = a + length
        state.cursor = b
        r += 1

        # executed sub-range of this run, in the compacted index space
        if state.all_exec:
            ea, eb = a, b
        else:
            ea, eb = np.searchsorted(state.epos, (a, b))
        n_act = int(eb - ea)
        if coverage is not None and state.pending:
            _record_pending(state, coverage, a, b, n_act)
        if n_act == 0:
            continue
        if n_act < _MIN_VECTOR_RUN:
            executed += _run_scalar_span(state, ea, eb, storage, shapes,
                                         scalars, env_base, prog)
            continue

        wl = state.wlin[ea:eb]
        mode = None
        cells = None
        if state.injective:
            if _scatter_safe(state, ea, eb, wl):
                mode = "scatter"
        else:
            cells = np.unique(wl)
            if cells.size == n_act:
                if _scatter_safe(state, ea, eb, wl):
                    mode = "scatter"
            elif cells.size == 1:
                if cs.op != "/=" and _alias_free(state, ea, eb, cells):
                    mode = "reduce"
            elif cs.op != "/=" and _alias_free(state, ea, eb, cells):
                mode = "grouped"
        if mode is None:
            executed += _run_scalar_span(state, ea, eb, storage, shapes,
                                         scalars, env_base, prog)
            continue

        values = _run_values(state, ea, eb, storage, scalars, params,
                             n_act)
        if values is None:  # defensive: kernel failure -> scalar
            executed += _run_scalar_span(state, ea, eb, storage, shapes,
                                         scalars, env_base, prog)
            continue
        arr = storage[cs.write_ref.array]
        if mode == "scatter":
            widx = tuple(col[ea:eb] for col in state.wcols)
            _apply_scatter(arr, widx, cs.op, values)
        elif mode == "reduce":
            _apply_reduction(arr, int(wl[0]), cs.op, values)
        else:
            _apply_grouped(arr, wl, cs.op, values)
        executed += n_act
    return executed


def _scatter_safe(state: _StatementState, ea: int, eb: int,
                  wl: np.ndarray) -> bool:
    """No read may alias a write inside the run, except element-identical
    reads of the written cell (safe: gathers happen before the scatter,
    and distinct writes mean nothing else touches that cell)."""
    for rl_full in state.overlap:
        if rl_full is None:
            continue
        rl = rl_full[ea:eb]
        if np.array_equal(rl, wl):
            continue
        if np.isin(rl, wl).any():
            return False
    return True


def _alias_free(state: _StatementState, ea: int, eb: int,
                cells: np.ndarray) -> bool:
    """No RHS read may touch any cell the run writes (reduction modes)."""
    for rl_full in state.overlap:
        if rl_full is not None and np.isin(rl_full[ea:eb], cells).any():
            return False
    return True


def _run_values(state: _StatementState, ea: int, eb: int,
                storage: Storage, scalars, params,
                n_act: int) -> Optional[np.ndarray]:
    if state.values is not None:
        return state.values[ea:eb]
    try:
        cols = {name: col[ea:eb] for name, col in state.cols.items()}
        ridx = [tuple(c[ea:eb] for c in cols_k) for cols_k in state.rcols]
        return state.vector_values(storage, scalars, cols, params, ridx,
                                   n_act)
    except Exception:
        return None


def _run_scalar_span(state: _StatementState, ea: int, eb: int,
                     storage: Storage, shapes, scalars, env_base,
                     prog: str) -> int:
    """Execute the run's guard-passing instances on the scalar step.

    Coverage is handled by the pending recorder (the step gets ``None``),
    and guards are re-checked harmlessly — every row here already passed.
    """
    step = state.cs.scalar_step
    names = state.cs.iter_names
    rows = state.points[state.epos[ea:eb]].tolist()
    executed = 0
    for row in rows:
        env = dict(env_base)
        env.update(zip(names, row))
        if step(env, storage, shapes, scalars, None, prog):
            executed += 1
    return executed


def _apply_scatter(arr: np.ndarray, widx, op: str,
                   values: np.ndarray) -> None:
    if op == "=":
        arr[widx] = values
    elif op == "+=":
        arr[widx] += values
    elif op == "-=":
        arr[widx] -= values
    elif op == "*=":
        arr[widx] *= values
    else:  # "/=" with the reference's per-element zero guard
        from .compile import _vdiv
        arr[widx] = _vdiv(arr[widx], values)


def _apply_reduction(arr: np.ndarray, target: int, op: str,
                     values: np.ndarray) -> None:
    if op == "=":
        arr.flat[target] = values[-1]  # intermediate writes unobservable
        return
    ufunc = _ACCUMULATE[op]
    chain = np.empty(len(values) + 1, dtype=np.float64)
    chain[0] = arr.flat[target]
    chain[1:] = values
    arr.flat[target] = ufunc.accumulate(chain)[-1]


def _apply_grouped(arr: np.ndarray, wl: np.ndarray, op: str,
                   values: np.ndarray) -> None:
    """Segmented left fold: each written cell folds its own updates.

    A stable sort on the write cell preserves each cell's update order;
    the fold then walks update columns, masking groups that ran out.
    Cells are mutually independent here (``_alias_free`` guaranteed no
    read sees any written cell), so per-cell sequential folds reproduce
    the interleaved reference execution bit for bit.
    """
    order = np.argsort(wl, kind="stable")
    ws = wl[order]
    vs = values[order]
    bound = np.flatnonzero(ws[1:] != ws[:-1]) + 1
    gstarts = np.concatenate(([0], bound))
    gends = np.concatenate((bound, [len(ws)]))
    targets = ws[gstarts]
    if op == "=":
        arr.flat[targets] = vs[gends - 1]  # last write per cell wins
        return
    ufunc = _ACCUMULATE[op]
    lens = gends - gstarts
    lmax = int(lens.max())
    groups = len(gstarts)
    pos = np.arange(len(ws)) - np.repeat(gstarts, lens)
    mat = np.zeros((groups, lmax), dtype=np.float64)
    mat[np.repeat(np.arange(groups), lens), pos] = vs
    acc = arr.flat[targets]
    if int(lens.min()) == lmax:  # equal-length segments: unmasked fold
        for t in range(lmax):
            acc = ufunc(acc, mat[:, t])
    else:
        for t in range(lmax):
            # padded lanes compute on the 0.0 filler and are discarded
            acc = np.where(t < lens, ufunc(acc, mat[:, t]), acc)
    arr.flat[targets] = acc
