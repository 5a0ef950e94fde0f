"""Data-dependence analysis.

Dependences are computed *dynamically and exactly* on a small concrete
parameter binding: the program is executed symbolically in its original
schedule order and every producer/consumer pair on every array element is
recorded (RAW, WAW, WAR — §2.1).  Each dependence class keeps a bounded set
of concrete *witness* instance pairs; schedule legality (for transforms,
parallel and vector pragmas) is then checked by re-evaluating candidate
schedules on the witnesses.

This concretization is this repo's substitute for ISL-based exact
dependence analysis: it is exact for the sampled sizes and, because every
dependence in an affine SCoP with constant distances shows up at small
sizes, it is reliable on the benchmark/synthesized programs used here
(DESIGN.md discusses the substitution).

Two engines share these semantics (selected by ``REPRO_ANALYSIS``):

* ``vectorized`` (default) — :mod:`repro.analysis.vectorized` derives the
  same witness pairs, distance vectors and legality verdicts from NumPy
  segment scans over the batched instance enumeration, bit-identical to
  the scalar walk below (including the bounded-witness rotation and error
  messages);
* ``reference`` — the original per-instance walk in this module, kept as
  the executable specification the equivalence suite pins the vectorized
  engine against.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..ir.program import Program
from ..ir.schedule import Schedule
from ..memo import LRUCache

KIND_RAW = "RAW"
KIND_WAW = "WAW"
KIND_WAR = "WAR"

#: Instance = (statement index, environment as a sorted item tuple).
#: Witness environments contain the iterators *and* the concrete
#: parameter binding they were observed at — legality checking
#: (`_instance_key`) re-binds each witness at its own size, which is what
#: lets classes concretized at different ``_PARAM_SIZES`` merge safely.
Instance = Tuple[int, Tuple[Tuple[str, int], ...]]

_MAX_WITNESSES = 24
#: default concrete parameter value for concretization: big enough that
#: distance-2 dependences remain visible behind margin-2 loop bounds,
#: that size-2 legality tiles actually cross boundaries, and that
#: non-uniform dependence classes (distances that grow with the bounds,
#: e.g. through coupled ``i+j`` subscripts) are represented — at 8 one
#: synthesized program's interchange-breaking dependence only appears
#: from 9 upward, so legality at 8 blessed an output-changing swap
_DEFAULT_PARAM = 10
#: default concretization sizes.  Dependences are collected at *both*
#: sizes and merged: a non-uniform dependence class whose distance grows
#: with the bounds can first appear at any size, so a single binding can
#: never close the class entirely — checking two (coprime-ish) sizes
#: catches everything whose onset lies at or below the larger one, and
#: witness environments carry their own parameter binding so legality
#: evaluates each witness at the size it was observed at
_PARAM_SIZES = (_DEFAULT_PARAM, 13)
#: third, scaled binding used only for programs whose written arrays
#: have *non-uniform* subscripts (detected structurally by
#: :func:`nonuniform_arrays`): there the 10/13 onsets are exactly the
#: unreliable case, so the witness binding is scaled to 2x the largest
#: default size, pushing the covered onset out to 26.  Uniform programs
#: never pay for (or observe) the extra pass.
_NONUNIFORM_PARAM = 2 * max(_PARAM_SIZES)
_ANALYSIS_BUDGET = 200_000


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
ANALYSIS_ENGINES = ("vectorized", "reference")


def analysis_engine_name() -> str:
    """The active analysis engine (``REPRO_ANALYSIS``, default vectorized)."""
    engine = os.environ.get("REPRO_ANALYSIS", "vectorized")
    if engine not in ANALYSIS_ENGINES:
        raise ValueError(
            f"unknown REPRO_ANALYSIS {engine!r}; "
            f"choose 'vectorized' or 'reference'")
    return engine


@contextmanager
def analysis_override(engine: Optional[str]):
    """Temporarily select an analysis engine (``None`` = leave as-is).

    The single save/restore point for ``REPRO_ANALYSIS`` — ``repro perf
    --target analysis`` and the analysis-equivalence tests flip engines
    through this instead of hand-rolling environment handling.
    """
    before = os.environ.get("REPRO_ANALYSIS")
    if engine is not None:
        os.environ["REPRO_ANALYSIS"] = engine
    try:
        yield
    finally:
        if before is None:
            os.environ.pop("REPRO_ANALYSIS", None)
        else:
            os.environ["REPRO_ANALYSIS"] = before


@dataclass(frozen=True)
class Dependence:
    """A dependence class between two statements through one array."""

    kind: str
    source: str
    target: str
    array: str
    #: distance vectors over the common loop iterators (may be several)
    distances: Tuple[Tuple[int, ...], ...]
    common_iters: Tuple[str, ...]
    loop_carried: bool
    witnesses: Tuple[Tuple[Instance, Instance], ...] = field(repr=False,
                                                             default=())

    @property
    def constant_distance(self) -> Optional[Tuple[int, ...]]:
        """The single distance vector, when there is exactly one."""
        if len(self.distances) == 1:
            return self.distances[0]
        return None

    def __str__(self) -> str:
        dist = ",".join(str(d) for d in self.distances[:3])
        more = "..." if len(self.distances) > 3 else ""
        return (f"{self.kind} {self.source}->{self.target} on {self.array} "
                f"dist={{{dist}{more}}} over ({', '.join(self.common_iters)})")


def analysis_params(program: Program,
                    value: int = _DEFAULT_PARAM) -> Dict[str, int]:
    """Small concrete parameter binding used for concretization."""
    return {p: value for p in program.params}


#: constant-offset spread (max |Δconst| between two references of one
#: array in one dimension) from which a dependence's onset may exceed
#: the largest default binding: a spread of 13 puts the first
#: occurrence at N ≈ 14, just past the 10/13 sizes
_LATE_ONSET_SPREAD = max(_PARAM_SIZES)


def _nonuniform_profile(program: Program) -> Tuple[frozenset, int]:
    """``(late-onset arrays, scaled binding)`` — see :func:`nonuniform_arrays`.

    Memoized per :meth:`~repro.ir.program.Program.analysis_key`.  The
    scaled binding is normally ``_NONUNIFORM_PARAM`` (26) but grows with
    the largest constant offset spread so that constant-offset classes
    (``X[i]`` vs ``X[i+20]``: uniform distance, late onset) are
    concretized at a size where they actually occur.
    """
    cached = _NONUNIFORM_CACHE.get(program.analysis_key())
    if cached is not None:
        return cached
    params = set(program.params)
    written = {s.write().array for s in program.statements}
    flagged = set()
    # Comparison is iterator-identity-agnostic on purpose: which loop a
    # subscript walks does not move a dependence's onset (tmp[i][j]
    # written vs tmp[i][k] read collide from size 1), so per dimension
    # only the multiset of coefficient values is compared.  Offsets are
    # anchored at the subscript's minimum over the iteration domain
    # (constant lower bounds folded in), so both `X[i+20]` and a read
    # under `for (j = 20; ...)` register the same spread.
    coeff_shapes: Dict[str, set] = {}
    anchored_offsets: Dict[Tuple[str, int], List[int]] = {}
    for stmt in program.statements:
        lowers = {}
        for spec in stmt.domain.iters:
            const_lowers = [e.const for e in spec.lowers
                            if e.is_constant]
            lowers[spec.name] = max(const_lowers, default=0)
        for ref, _is_write in stmt.all_refs():
            if ref.array not in written:
                continue
            dims = []
            for dim, subscript in enumerate(ref.indices):
                terms = tuple((v, c) for v, c in subscript.terms
                              if c != 0)
                if any(v in params for v, _c in terms):
                    flagged.add(ref.array)
                iter_terms = tuple((v, c) for v, c in terms
                                   if v not in params)
                if len(iter_terms) >= 2:
                    flagged.add(ref.array)
                dims.append(tuple(sorted(c for _v, c in iter_terms)))
                anchor = subscript.const + sum(
                    c * lowers.get(v, 0)
                    for v, c in iter_terms if c > 0)
                anchored_offsets.setdefault((ref.array, dim), []).append(
                    anchor)
            coeff_shapes.setdefault(ref.array, set()).add(tuple(dims))
    for array, variants in coeff_shapes.items():
        if len(variants) > 1:
            flagged.add(array)
    scaled = _NONUNIFORM_PARAM
    for (array, _dim), anchors in anchored_offsets.items():
        spread = max(anchors) - min(anchors)
        if spread >= _LATE_ONSET_SPREAD:
            flagged.add(array)
            # cover onsets up to spread + margin (onset ≈ spread + 1
            # for plain offsets; the margin absorbs guards shifting it)
            scaled = max(scaled, spread + _LATE_ONSET_SPREAD)
    result = (frozenset(flagged), scaled)
    _NONUNIFORM_CACHE.put(program.analysis_key(), result)
    return result


def nonuniform_arrays(program: Program) -> frozenset:
    """Written arrays whose dependence onsets may exceed the default
    concretization bindings.

    A dependence class is reliably visible at the fixed 10/13 sizes
    only when every pair of accesses to the array agrees on the
    *linear part* of each subscript dimension and their constant
    offsets are small.  Four structural patterns break that:

    * two references whose subscript coefficient values differ in some
      dimension (``A[2*i]`` vs ``A[i+c]`` — the distance between
      matching instances grows with ``i``).  Which *iterator* a
      subscript walks is deliberately ignored (``tmp[i][j]`` written
      vs ``tmp[i][k]`` read collide from size 1);
    * a coupled subscript mentioning two or more iterators
      (``A[i+j]`` — the matching set is a moving plane);
    * a global parameter inside a subscript (``A[i+N]`` — the offset
      itself scales with the binding);
    * an anchored offset spread of 13 or more between two references —
      the subscript's minimum over the iteration domain, so both
      ``X[i]`` vs ``X[i+20]`` and a read under ``for (j = 20; ...)``
      count (constant distance, but the first occurrence needs
      ``N ≥ 21``).

    Only *written* arrays matter (read-only arrays generate no
    dependences).  The result drives the scaled third concretization
    pass in :func:`compute_dependences`; memoized per analysis key.
    """
    return _nonuniform_profile(program)[0]


def _budget_exceeded(program: Program) -> Callable[[int], Exception]:
    """The (engine-shared) budget-exhaustion error factory."""
    def _exceeded(_budget: int) -> Exception:
        return RuntimeError(
            f"dependence analysis budget exceeded on {program.name}")
    return _exceeded


def _collect_events(program: Program, params: Mapping[str, int]
                    ) -> List[Tuple[Tuple[int, ...], int, Dict[str, int]]]:
    """Guard-passing instances in schedule order (batched enumeration).

    Shares the vectorized enumeration/sort of ``runtime.instances`` with
    the interpreter engines and the trace simulator; budget accounting
    (per enumerated point, before guard filtering) and the exceeded
    message are unchanged from the scalar loop it replaces.
    """
    from ..runtime.instances import instance_list

    return instance_list(program, params, _ANALYSIS_BUDGET,
                         _budget_exceeded(program), honor_guards=True)


def compute_dependences(program: Program,
                        params: Optional[Mapping[str, int]] = None
                        ) -> List[Dependence]:
    """Enumerate all dependence classes of a program.

    With explicit ``params`` the program is concretized at exactly that
    binding.  By default it is concretized at every size in
    ``_PARAM_SIZES`` and the classes merged — witnesses remember their
    own binding, so downstream legality checks evaluate each witness at
    the size where the dependence actually occurred.

    Programs with non-uniform subscripts on written arrays (see
    :func:`nonuniform_arrays`) get a third pass at the scaled
    ``_NONUNIFORM_PARAM`` binding, restricted to exactly those arrays:
    their dependence onsets are the ones that can lie beyond the fixed
    10/13 sizes, while uniform arrays' classes (and distance sets) stay
    byte-identical to the two-size merge.  A scaled pass that would
    blow the enumeration budget (very deep nests) is skipped — no
    worse than the pre-hardening behavior.
    """
    if params is not None:
        collected = [_collect_pairs(program, params)]
    else:
        collected = [_collect_pairs(program, analysis_params(program, v))
                     for v in _PARAM_SIZES]
        scaled_arrays, scaled_size = _nonuniform_profile(program)
        if scaled_arrays:
            scaled = _collect_scaled(program, scaled_arrays, scaled_size)
            if scaled is not None:
                collected.append(scaled)
    merged_pairs: Dict[str, Dict] = {KIND_RAW: {}, KIND_WAW: {}, KIND_WAR: {}}
    merged_distances: Dict[Tuple[str, int, int, str], set] = {}
    for pairs_by_kind, distance_sets in collected:
        for kind, pairs in pairs_by_kind.items():
            for key, bucket in pairs.items():
                merged_pairs[kind].setdefault(key, []).extend(bucket)
        for key, vecs in distance_sets.items():
            merged_distances.setdefault(key, set()).update(vecs)

    deps: List[Dependence] = []
    for kind in (KIND_RAW, KIND_WAW, KIND_WAR):
        for (src_idx, tgt_idx, array), witnesses in sorted(
                merged_pairs[kind].items()):
            all_distances = merged_distances.get(
                (kind, src_idx, tgt_idx, array), set())
            deps.append(_summarize(program, kind, src_idx, tgt_idx, array,
                                   witnesses, all_distances))
    return deps


def _collect_scaled(program: Program, scaled_arrays: frozenset,
                    scaled_size: int = _NONUNIFORM_PARAM):
    """The scaled concretization pass for late-onset arrays.

    Runs only the statements touching a flagged array (element state of
    those arrays involves no other statement, so the access streams —
    and thus every witness pair and distance vector — are identical to
    a full-program pass restricted to those arrays), then remaps
    statement indices back into the full program's numbering.  Returns
    ``None`` when the scaled size would blow the enumeration budget;
    the base sizes then stand alone, as before the hardening.
    """
    touching = [i for i, stmt in enumerate(program.statements)
                if any(ref.array in scaled_arrays
                       for ref, _w in stmt.all_refs())]
    sub = program
    if len(touching) < len(program.statements):
        sub = program.with_statements(
            [program.statements[i] for i in touching])
    try:
        pairs_by_kind, distance_sets = _collect_pairs(
            sub, analysis_params(program, scaled_size), rotate=False)
    except RuntimeError:
        return None

    def remap_inst(inst: Instance) -> Instance:
        return (touching[inst[0]], inst[1])

    remapped_pairs = {
        kind: {(touching[src], touching[tgt], array):
               [(remap_inst(a), remap_inst(b)) for a, b in bucket]
               for (src, tgt, array), bucket in pairs.items()
               if array in scaled_arrays}
        for kind, pairs in pairs_by_kind.items()}
    remapped_dists = {
        (kind, touching[src], touching[tgt], array): vecs
        for (kind, src, tgt, array), vecs in distance_sets.items()
        if array in scaled_arrays}
    return remapped_pairs, remapped_dists


def _collect_pairs(program: Program, params: Mapping[str, int],
                   rotate: bool = True):
    """One concretization pass: witness pairs + distance vectors.

    Dispatches on the active engine; both produce identical structures
    (same buckets, same witness order, same rotation slots).
    ``rotate=False`` (the scaled non-uniform pass) keeps the first
    ``_MAX_WITNESSES`` records per bucket instead of rotating — cheaper
    on the larger instance space, same exhaustive distance sets.
    """
    if analysis_engine_name() == "vectorized":
        from .vectorized import collect_pairs

        return collect_pairs(program, params, _ANALYSIS_BUDGET,
                             _budget_exceeded(program), _MAX_WITNESSES,
                             rotate)
    return _collect_pairs_reference(program, params, rotate)


def _collect_pairs_reference(program: Program, params: Mapping[str, int],
                             rotate: bool = True):
    """The scalar per-instance walk (the executable specification)."""
    events = _collect_events(program, params)

    # last writer / readers-since-write / two-deep read history per element
    last_write: Dict[Tuple[str, Tuple[int, ...]], Instance] = {}
    read_history: Dict[Tuple[str, Tuple[int, ...]],
                       Tuple[Optional[Instance], Optional[Instance]]] = {}
    readers: Dict[Tuple[str, Tuple[int, ...]], List[Instance]] = {}
    raw_pairs: Dict[Tuple[int, int, str], List[Tuple[Instance, Instance]]] = {}
    waw_pairs: Dict[Tuple[int, int, str], List[Tuple[Instance, Instance]]] = {}
    war_pairs: Dict[Tuple[int, int, str], List[Tuple[Instance, Instance]]] = {}
    # distance vectors are collected exhaustively (they are small sets)
    # even though witness instances stay bounded
    distance_sets: Dict[Tuple[str, int, int, str], set] = {}
    common_cache: Dict[Tuple[int, int], Tuple[str, ...]] = {}

    def _common(si_src: int, si_tgt: int) -> Tuple[str, ...]:
        key = (si_src, si_tgt)
        got = common_cache.get(key)
        if got is None:
            src_names = program.statements[si_src].domain.iterator_names
            tgt_names = set(
                program.statements[si_tgt].domain.iterator_names)
            got = tuple(n for n in src_names if n in tgt_names)
            common_cache[key] = got
        return got

    def add(pairs, key, src, tgt, kind):
        bucket = pairs.setdefault(key, [])
        # the stored witness environment also carries the parameter
        # binding, so merged multi-size classes evaluate every witness at
        # the size it was observed at
        pair = ((src[0], src[1] + src[2]), (tgt[0], tgt[1] + tgt[2]))
        if len(bucket) < _MAX_WITNESSES:
            bucket.append(pair)
        elif rotate:
            # keep the class but rotate witnesses for diversity; the slot
            # must not come from hash() — str hashing is randomized per
            # process, and a hash-seed-dependent witness sample makes
            # legality verdicts (and thus every table) vary across runs.
            # The slot key is the iterator-only instance (params excluded),
            # keeping the sample identical to earlier revisions at the
            # default size.
            bucket[zlib.crc32(repr((tgt[0], tgt[1])).encode())
                   % _MAX_WITNESSES] = pair
        s_map = dict(src[1])
        t_map = dict(tgt[1])
        vec = tuple(t_map[n] - s_map[n] for n in _common(src[0], tgt[0]))
        distance_sets.setdefault((kind,) + key, set()).add(vec)

    param_items = tuple(sorted(params.items()))
    for _key, si, point in events:
        stmt = program.statements[si]
        env = dict(params)
        env.update(point)
        # internal instance form: (stmt index, iterator items, params);
        # ``add`` flattens it into the stored witness environment
        inst = (si, tuple(sorted(point.items())), param_items)
        for ref in stmt.reads():
            element = (ref.array, ref.index_values(env))
            writer = last_write.get(element)
            if writer is not None:
                add(raw_pairs, (writer[0], si, ref.array), writer, inst,
                    KIND_RAW)
            readers.setdefault(element, []).append(inst)
            prev, _old = read_history.get(element, (None, None))
            read_history[element] = (inst, prev)
        wref = stmt.write()
        element = (wref.array, wref.index_values(env))
        writer = last_write.get(element)
        if writer is not None:
            add(waw_pairs, (writer[0], si, wref.array), writer, inst,
                KIND_WAW)
        for reader in readers.get(element, ()):  # reads since last write
            if reader != inst:
                add(war_pairs, (reader[0], si, wref.array), reader, inst,
                    KIND_WAR)
        # Anti-dependence through compound assignments: the most recent read
        # by a *different* instance must stay before this write.  These
        # pairs are transitively implied by the RAW/WAW chain, so recording
        # them is sound, and it surfaces the array-level WAR the paper
        # attributes to ``*=``/``+=`` (§2.1).
        newest, older = read_history.get(element, (None, None))
        reader = newest if newest is not None and newest != inst else older
        if reader is not None and reader != inst:
            add(war_pairs, (reader[0], si, wref.array), reader, inst,
                KIND_WAR)
        readers[element] = []
        last_write[element] = inst

    return ({KIND_RAW: raw_pairs, KIND_WAW: waw_pairs,
             KIND_WAR: war_pairs}, distance_sets)


def _summarize(program: Program, kind: str, src_idx: int, tgt_idx: int,
               array: str,
               witnesses: List[Tuple[Instance, Instance]],
               all_distances: set) -> Dependence:
    src_stmt = program.statements[src_idx]
    tgt_stmt = program.statements[tgt_idx]
    src_iters = src_stmt.domain.iterator_names
    tgt_iters = set(tgt_stmt.domain.iterator_names)
    common = tuple(name for name in src_iters if name in tgt_iters)
    distances = set(all_distances)
    for (_s_si, s_env), (_t_si, t_env) in witnesses:
        s_map = dict(s_env)
        t_map = dict(t_env)
        distances.add(tuple(t_map[name] - s_map[name] for name in common))
    carried = any(any(v != 0 for v in vec) for vec in distances)
    return Dependence(kind=kind, source=src_stmt.name, target=tgt_stmt.name,
                      array=array, distances=tuple(sorted(distances)),
                      common_iters=common, loop_carried=carried,
                      witnesses=tuple(witnesses))


# ----------------------------------------------------------------------
# Legality checking against witnesses
# ----------------------------------------------------------------------
_LEGALITY_TILE = 2


def _legality_schedules(program: Program) -> List[Schedule]:
    """Aligned schedules with tile sizes shrunk for witness evaluation.

    Witnesses are concretized on a small parameter binding, so a size-32
    tile would never cross a boundary there and illegal tilings would look
    legal.  Rectangular-band tiling legality is size-independent (it is
    band permutability), so evaluating with size-2 tiles on the small
    domain checks the same property while actually exercising boundaries.

    Memoized per program analysis key: every candidate legality query of
    every persona/compiler pays the schedule rebuild once, not per call.
    """
    cached = _LEGALITY_CACHE.get(program.analysis_key())
    if cached is not None:
        return cached

    from ..ir.schedule import Schedule as Sched, TileDim

    out: List[Schedule] = []
    for sched in program.aligned_schedules():
        dims = tuple(
            TileDim(d.expr, min(d.size, _LEGALITY_TILE))
            if isinstance(d, TileDim) else d
            for d in sched.dims)
        out.append(Sched(dims))
    _LEGALITY_CACHE.put(program.analysis_key(), out)
    return out


def _instance_key(program: Program, schedules: Sequence[Schedule],
                  params: Mapping[str, int], inst: Instance) -> Tuple[int, ...]:
    si, env_items = inst
    env = dict(params)
    env.update(dict(env_items))
    return schedules[si].evaluate(env)


def schedule_violations(program: Program, deps: Sequence[Dependence],
                        params: Optional[Mapping[str, int]] = None
                        ) -> List[Dependence]:
    """Dependences whose witnesses are reordered by ``program``'s schedule.

    ``program`` must share statement names/domains with the program the
    dependences were computed on (transforms preserve both).
    """
    if params is None:
        params = analysis_params(program)
    schedules = _legality_schedules(program)
    if analysis_engine_name() == "vectorized":
        from .vectorized import schedule_violations_batch

        result = schedule_violations_batch(program, deps, params, schedules)
        if result is not None:
            return result
    name_to_idx = {s.name: i for i, s in enumerate(program.statements)}
    violated: List[Dependence] = []
    for dep in deps:
        if dep.source not in name_to_idx or dep.target not in name_to_idx:
            violated.append(dep)
            continue
        for src, tgt in dep.witnesses:
            skey = _instance_key(program, schedules, params, src)
            tkey = _instance_key(program, schedules, params, tgt)
            tie = (skey == tkey and
                   name_to_idx[dep.source] >= name_to_idx[dep.target])
            if skey > tkey or tie:
                violated.append(dep)
                break
    return violated


def is_legal_schedule(program: Program, deps: Sequence[Dependence],
                      params: Optional[Mapping[str, int]] = None) -> bool:
    return not schedule_violations(program, deps, params)


def parallel_violations(program: Program, deps: Sequence[Dependence],
                        dim: int,
                        params: Optional[Mapping[str, int]] = None
                        ) -> List[Dependence]:
    """Dependences carried by schedule dimension ``dim``.

    A dimension may be marked parallel only when no dependence has equal
    schedule prefixes before ``dim`` but different values at ``dim``.
    """
    if params is None:
        params = analysis_params(program)
    schedules = _legality_schedules(program)
    if analysis_engine_name() == "vectorized":
        from .vectorized import parallel_violations_batch

        result = parallel_violations_batch(program, deps, dim, params,
                                           schedules)
        if result is not None:
            return result
    violated: List[Dependence] = []
    for dep in deps:
        for src, tgt in dep.witnesses:
            skey = _instance_key(program, schedules, params, src)
            tkey = _instance_key(program, schedules, params, tgt)
            if dim >= len(skey):
                continue
            if skey[:dim] == tkey[:dim] and skey[dim] != tkey[dim]:
                violated.append(dep)
                break
    return violated


def is_parallel_dim(program: Program, deps: Sequence[Dependence],
                    dim: int,
                    params: Optional[Mapping[str, int]] = None) -> bool:
    return not parallel_violations(program, deps, dim, params)


# ----------------------------------------------------------------------
# Bounded, thread-safe memoization
# ----------------------------------------------------------------------
_DEP_CACHE = LRUCache(4096)
_LEGALITY_CACHE = LRUCache(2048)
_NONUNIFORM_CACHE = LRUCache(4096)


def dependences(program: Program,
                params: Optional[Mapping[str, int]] = None
                ) -> List[Dependence]:
    """Memoized :func:`compute_dependences`, keyed by the program's
    :meth:`~repro.ir.program.Program.analysis_key`.

    That key covers ``params`` and each statement's name, domain,
    schedule, guards and body — everything the concretization reads —
    and nothing else: programs that differ only in parallel/vector
    marks, tags, name or provenance get the same list object (and with
    it the same cached witness pack), so a finalized or pragma-marked
    candidate never re-runs the analysis of its unmarked twin.

    The default (``params=None``) concretizes at every ``_PARAM_SIZES``
    binding and memoizes the merged result under its own key, so the
    two-size hardening costs one extra pass per distinct analysis key,
    not per legality query.
    """
    key = (program.analysis_key(),
           None if params is None else tuple(sorted(params.items())))
    cached = _DEP_CACHE.get(key)
    if cached is None:
        cached = compute_dependences(program, params)
        _DEP_CACHE.put(key, cached)
    return cached
