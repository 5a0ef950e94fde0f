"""Vectorized dependence & legality engine (``REPRO_ANALYSIS=vectorized``).

Mirrors the execution-engine split of ``repro.runtime``: the scalar walk
in :mod:`repro.analysis.dependences` stays the executable specification;
this module derives *bit-identical* results from NumPy batch operations.

Dependence collection
---------------------
The scalar reference replays the program instance by instance, tracking
per array element the last writer, the readers since that write and a
two-deep read history.  Here the same information is recovered in bulk:

1. every statement's access subscripts are evaluated as vectorized affine
   maps over the batched instance enumeration (``runtime.instances``,
   shared with the interpreter engines and the trace simulator);
2. ``(array, cell)`` keys are flattened to integers and all access events
   are ordered by one stable ``np.lexsort`` on (cell, schedule position,
   access ordinal) — giving each cell's access history as a contiguous
   segment in exactly the order the scalar walk visits it;
3. segment scans (cumulative max/min/count with segment-start masking)
   yield, per event, the previous write, the next write, and the one- and
   two-back reads — from which RAW / WAW / WAR pair records follow as
   pure array expressions, including the compound-assignment WAR rule;
4. records are re-ordered by the position the scalar walk would have
   issued its ``add`` call and the bounded-witness bucket is replayed in
   bulk: the first ``_MAX_WITNESSES`` records append, and each later one
   overwrites the slot given by the crc32 of its target's iterator-only
   instance repr, so a slot ends up holding the *last* record mapped to
   it — one ``np.unique`` over the reversed slot vector, no per-record
   loop.  The per-point slot tables depend only on the statement index,
   its domain (iterator names included) and the parameter binding, never
   on the schedule, so they are memoized across programs: every
   schedule candidate of a program reuses the tables its source built.
   Every stored witness — and every legality verdict downstream — is
   identical to the reference walk's, not just equivalent.

Distance-vector sets are computed exhaustively as array differences over
the common iterators and deduplicated via integer encoding.

Legality checking
-----------------
``schedule_violations`` / ``parallel_violations`` batch all witnesses of
all dependences into per-(statement, names) groups (cached per deps list,
since the memoized dependence lists are reused across thousands of
candidate queries), evaluate the legality schedules as vectorized affine
maps over the witness environments (memoized per pack and schedule list,
so a candidate's schedule, parallel and vector queries share one
evaluation), and compare source/target schedule keys with one row-wise
lexicographic comparison.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.affine import affine_column
from ..ir.domain import Domain
from ..ir.program import Program
from ..ir.schedule import Schedule
from ..memo import LRUCache, memoized

KIND_RAW = "RAW"
KIND_WAW = "WAW"
KIND_WAR = "WAR"


# ----------------------------------------------------------------------
# Dependence collection
# ----------------------------------------------------------------------
class _StmtMeta:
    """Per-statement helpers for materializing witness instances."""

    def __init__(self, si: int, names: Sequence[str]) -> None:
        self.si = si
        #: column permutation putting iterator values in sorted-name order
        self.order = sorted(range(len(names)), key=lambda d: names[d])
        self.sorted_names = tuple(names[d] for d in self.order)
        # ``repr`` template of the iterator-only instance
        # ``(si, (('i', v), ...))`` — the witness-rotation slot key of the
        # reference walk, rebuilt here via one %-format per record
        if not names:
            inner = "()"
        elif len(names) == 1:
            inner = f"(('{self.sorted_names[0]}', %d),)"
        else:
            inner = ("("
                     + ", ".join(f"('{nm}', %d)" for nm in self.sorted_names)
                     + ")")
        self.slot_template = f"({si}, {inner})"

    def items(self, sorted_vals: Sequence[int]
              ) -> Tuple[Tuple[str, int], ...]:
        return tuple(zip(self.sorted_names, sorted_vals))


def collect_pairs(program: Program, params: Mapping[str, int],
                  budget: int, exceeded: Callable[[int], Exception],
                  max_witnesses: int, rotate: bool = True):
    """One concretization pass; same return structure as the reference.

    Returns ``({kind: {(src_si, tgt_si, array): [witness pair, ...]}},
    {(kind, src_si, tgt_si, array): {distance vec, ...}})`` with witness
    buckets byte-identical to the scalar walk's.

    ``rotate=False`` keeps the first ``max_witnesses`` records per
    bucket instead of crc-rotating later ones in — the policy of the
    scaled non-uniform pass, where distance sets stay exhaustive and
    the per-record crc over a much larger instance space would dominate
    the pass.
    """
    from ..runtime.instances import sorted_instances

    batch = sorted_instances(program, params, budget, exceeded,
                             honor_guards=True)
    raw_pairs: Dict = {}
    waw_pairs: Dict = {}
    war_pairs: Dict = {}
    distance_sets: Dict[Tuple[str, int, int, str], set] = {}
    out = ({KIND_RAW: raw_pairs, KIND_WAW: waw_pairs, KIND_WAR: war_pairs},
           distance_sets)
    n = len(batch)
    if n == 0:
        return out

    # ------------------------------------------------------------------
    # 1-2: per-access coordinate columns, flattened cell keys, event sort
    # ------------------------------------------------------------------
    spaces: Dict[Tuple[str, int], int] = {}   # (array, rank) -> space id
    chunks = []  # (space id, [coord columns], gpos, ordinal, is_write)
    metas: List[_StmtMeta] = []
    for si, stmt in enumerate(program.statements):
        mask = batch.si == si
        gpos = np.flatnonzero(mask)
        pts = batch.points[si][batch.row[mask]]
        names = stmt.domain.iterator_names
        metas.append(_StmtMeta(si, names))
        m = len(gpos)
        if m == 0:
            continue
        columns = {name: pts[:, d] for d, name in enumerate(names)}
        accesses = [(ref, False) for ref in stmt.reads()]
        accesses.append((stmt.write(), True))
        for ordinal, (ref, is_write) in enumerate(accesses):
            sid = spaces.setdefault((ref.array, len(ref.indices)),
                                    len(spaces))
            coords = [affine_column(ix, columns, params, m)
                      for ix in ref.indices]
            chunks.append((sid, coords, gpos, ordinal, is_write))

    # flatten each space's cells to non-negative integers (subscripts may
    # be arbitrary ints — the reference keys dicts on raw tuples, so no
    # bounds assumption is allowed here)
    mins: Dict[int, np.ndarray] = {}
    maxs: Dict[int, np.ndarray] = {}
    for sid, coords, _g, _o, _w in chunks:
        if not coords:
            continue
        lo = np.array([c.min() for c in coords], dtype=np.int64)
        hi = np.array([c.max() for c in coords], dtype=np.int64)
        if sid in mins:
            np.minimum(mins[sid], lo, out=mins[sid])
            np.maximum(maxs[sid], hi, out=maxs[sid])
        else:
            mins[sid], maxs[sid] = lo, hi
    strides: Dict[int, np.ndarray] = {}
    for sid, lo in mins.items():
        extent = maxs[sid] - lo + 1
        stride = np.ones(len(lo), dtype=np.int64)
        stride[:-1] = np.cumprod(extent[::-1], dtype=np.int64)[::-1][1:]
        strides[sid] = stride

    parts_sid, parts_flat, parts_g, parts_ord, parts_w = [], [], [], [], []
    for sid, coords, gpos, ordinal, is_write in chunks:
        m = len(gpos)
        flat = np.zeros(m, dtype=np.int64)
        if coords:
            lo, stride = mins[sid], strides[sid]
            for d, col in enumerate(coords):
                flat += (col - lo[d]) * stride[d]
        parts_sid.append(np.full(m, sid, dtype=np.int64))
        parts_flat.append(flat)
        parts_g.append(gpos)
        parts_ord.append(np.full(m, ordinal, dtype=np.int64))
        parts_w.append(np.full(m, is_write, dtype=bool))
    ev_sid = np.concatenate(parts_sid)
    ev_flat = np.concatenate(parts_flat)
    ev_g = np.concatenate(parts_g)
    ev_ord = np.concatenate(parts_ord)
    ev_w = np.concatenate(parts_w)

    # cell-major, then schedule position, then access ordinal — each
    # cell's history is one contiguous segment in scalar visit order
    order = np.lexsort((ev_ord, ev_g, ev_flat, ev_sid))
    ev_sid, ev_flat = ev_sid[order], ev_flat[order]
    ev_g, ev_ord, ev_w = ev_g[order], ev_ord[order], ev_w[order]
    m_ev = len(ev_g)
    idx = np.arange(m_ev, dtype=np.int64)

    # ------------------------------------------------------------------
    # 3: segment scans — previous/next write, one- and two-back reads
    # ------------------------------------------------------------------
    new_seg = np.empty(m_ev, dtype=bool)
    new_seg[0] = True
    new_seg[1:] = ((ev_sid[1:] != ev_sid[:-1])
                   | (ev_flat[1:] != ev_flat[:-1]))
    seg_id = np.cumsum(new_seg) - 1
    seg_start = idx[new_seg][seg_id]

    w_idx = np.where(ev_w, idx, np.int64(-1))
    lw_incl = np.maximum.accumulate(w_idx)
    prev_w = np.empty(m_ev, dtype=np.int64)
    prev_w[0] = -1
    prev_w[1:] = lw_incl[:-1]
    has_prev_w = prev_w >= seg_start

    nw_incl = np.minimum.accumulate(
        np.where(ev_w, idx, np.int64(m_ev))[::-1])[::-1]
    next_w = np.empty(m_ev, dtype=np.int64)
    next_w[:-1] = nw_incl[1:]
    next_w[-1] = m_ev
    has_next_w = (next_w < m_ev)
    safe_next = np.minimum(next_w, m_ev - 1)
    has_next_w &= seg_id[safe_next] == seg_id

    is_r = ~ev_w
    rpos = idx[is_r]
    reads_before = np.cumsum(is_r) - is_r
    if len(rpos):
        last_r = rpos[np.maximum(reads_before - 1, 0)]
        last2_r = rpos[np.maximum(reads_before - 2, 0)]
    else:
        last_r = last2_r = np.zeros(m_ev, dtype=np.int64)
    has_last_r = (reads_before >= 1) & (last_r >= seg_start)
    has_last2_r = (reads_before >= 2) & (last2_r >= seg_start)

    # RAW: read with a previous write on its cell
    raw_mask = is_r & has_prev_w
    raw_src, raw_tgt = prev_w[raw_mask], idx[raw_mask]

    # WAW: write with a previous write
    waw_mask = ev_w & has_prev_w
    waw_src, waw_tgt = prev_w[waw_mask], idx[waw_mask]

    # WAR via the readers-since-last-write list: each read is claimed by
    # the first write after it on the same cell (which also clears it),
    # skipped when writer and reader are the same instance
    warr_mask = is_r & has_next_w
    warr_src, warr_tgt = idx[warr_mask], next_w[warr_mask]
    keep = ev_g[warr_src] != ev_g[warr_tgt]
    warr_src, warr_tgt = warr_src[keep], warr_tgt[keep]

    # WAR via the two-deep read history (compound assignments): the most
    # recent read by a *different* instance, regardless of writes between
    w_events = idx[ev_w]
    g_w = ev_g[w_events]
    newest, has_newest = last_r[w_events], has_last_r[w_events]
    older, has_older = last2_r[w_events], has_last2_r[w_events]
    newest_is_self = has_newest & (ev_g[newest] == g_w)
    reader = np.where(newest_is_self, older, newest)
    has_reader = np.where(newest_is_self, has_older, has_newest)
    keep = has_reader & (ev_g[reader] != g_w)
    warc_src, warc_tgt = reader[keep], w_events[keep]

    # ------------------------------------------------------------------
    # 4: group records per bucket, replay witness selection, distances
    # ------------------------------------------------------------------
    name_id = {name: i
               for i, name in enumerate(sorted({a for a, _r in spaces}))}
    id_name = {i: name for name, i in name_id.items()}
    sid_name = np.zeros(max(len(spaces), 1), dtype=np.int64)
    for (array, _rank), sid in spaces.items():
        sid_name[sid] = name_id[array]

    param_items = tuple(sorted(params.items()))

    def emit(pairs_out, kind, src_ev, tgt_ev, phase, sub):
        """Replay one kind's ``add`` stream bucket by bucket.

        ``phase``/``sub`` order records the way the scalar walk issues
        them within one write event (WAW, then the readers list in
        append order, then the compound-history pair); across events the
        target's schedule position orders everything.
        """
        if len(src_ev) == 0:
            return
        src_si = batch.si[ev_g[src_ev]]
        tgt_si = batch.si[ev_g[tgt_ev]]
        arr = sid_name[ev_sid[tgt_ev]]
        rec_order = np.lexsort((sub, phase, ev_ord[tgt_ev], ev_g[tgt_ev],
                                arr, tgt_si, src_si))
        src_ev, tgt_ev = src_ev[rec_order], tgt_ev[rec_order]
        src_si, tgt_si, arr = (src_si[rec_order], tgt_si[rec_order],
                               arr[rec_order])
        bounds = np.flatnonzero(
            np.concatenate(([True],
                            (src_si[1:] != src_si[:-1])
                            | (tgt_si[1:] != tgt_si[:-1])
                            | (arr[1:] != arr[:-1]),
                            [True])))
        for a, b in zip(bounds[:-1], bounds[1:]):
            ssi, tsi = int(src_si[a]), int(tgt_si[a])
            key = (ssi, tsi, id_name[int(arr[a])])
            smeta, tmeta = metas[ssi], metas[tsi]
            src_rows = batch.row[ev_g[src_ev[a:b]]]
            tgt_rows = batch.row[ev_g[tgt_ev[a:b]]]
            src_pts = batch.points[ssi][src_rows]
            tgt_pts = batch.points[tsi][tgt_rows]
            _merge_distances(program, distance_sets, kind, key,
                             ssi, tsi, src_pts, tgt_pts)
            # bounded-witness replay: the first _MAX_WITNESSES records
            # append; later ones overwrite their crc slot, so each slot
            # keeps the last record mapped to it — the first occurrence
            # in the reversed slot vector
            k = b - a
            chosen = np.arange(min(k, max_witnesses))
            if k > max_witnesses and rotate:
                slots = _slot_table(tsi, program.statements[tsi].domain,
                                    param_items, tmeta, batch.points[tsi],
                                    max_witnesses)[tgt_rows[max_witnesses:]]
                used, first_rev = np.unique(slots[::-1], return_index=True)
                chosen[used] = k - 1 - first_rev
            sel_src = src_pts[chosen][:, smeta.order].tolist()
            sel_tgt = tgt_pts[chosen][:, tmeta.order].tolist()
            pairs_out[key] = [
                ((ssi, smeta.items(sv) + param_items),
                 (tsi, tmeta.items(tv) + param_items))
                for sv, tv in zip(sel_src, sel_tgt)]

    emit(raw_pairs, KIND_RAW, raw_src, raw_tgt,
         np.zeros(len(raw_src), dtype=np.int64),
         np.zeros(len(raw_src), dtype=np.int64))
    emit(waw_pairs, KIND_WAW, waw_src, waw_tgt,
         np.zeros(len(waw_src), dtype=np.int64),
         np.zeros(len(waw_src), dtype=np.int64))
    war_src = np.concatenate((warr_src, warc_src))
    war_tgt = np.concatenate((warr_tgt, warc_tgt))
    war_phase = np.concatenate((np.full(len(warr_src), 1, dtype=np.int64),
                                np.full(len(warc_src), 2, dtype=np.int64)))
    war_sub = np.concatenate((warr_src,
                              np.zeros(len(warc_src), dtype=np.int64)))
    emit(war_pairs, KIND_WAR, war_src, war_tgt, war_phase, war_sub)
    return out


@memoized(512, key=lambda si, domain, param_items, meta, points,
          max_witnesses: (si, str(domain), param_items, max_witnesses))
def _slot_table(si: int, domain: Domain,
                param_items: Tuple[Tuple[str, int], ...], meta: _StmtMeta,
                points: np.ndarray, max_witnesses: int) -> np.ndarray:
    """Witness-rotation slot of every enumerated point of one statement.

    ``crc32(repr((si, iterator items))) % max_witnesses`` per row of
    ``points`` (the statement's domain points in source order), memoized
    on exactly what determines it: statement index, domain (which fixes
    the iterator names and the point rows) and parameter binding.  The
    schedule, and everything else about the program, is irrelevant.
    """
    rows = (points[:, meta.order].tolist() if points.shape[1]
            else [[]] * len(points))
    template = meta.slot_template
    table = np.fromiter(
        (zlib.crc32((template % tuple(row)).encode()) % max_witnesses
         for row in rows),
        dtype=np.int32, count=len(rows))
    table.flags.writeable = False  # shared across programs/threads
    return table


def _merge_distances(program: Program, distance_sets: Dict, kind: str,
                     key: Tuple[int, int, str], ssi: int, tsi: int,
                     src_pts: np.ndarray, tgt_pts: np.ndarray) -> None:
    """Exhaustive distance vectors of one class (integer-encoded dedup)."""
    src_names = program.statements[ssi].domain.iterator_names
    tgt_names = program.statements[tsi].domain.iterator_names
    tgt_pos = {name: d for d, name in enumerate(tgt_names)}
    common = [(d, tgt_pos[name]) for d, name in enumerate(src_names)
              if name in tgt_pos]
    target = distance_sets.setdefault((kind,) + key, set())
    if not common:
        target.add(())
        return
    diff = (tgt_pts[:, [t for _s, t in common]]
            - src_pts[:, [s for s, _t in common]])
    lo = diff.min(axis=0)
    extent = diff.max(axis=0) - lo + 1
    stride = np.ones(len(common), dtype=np.int64)
    stride[:-1] = np.cumprod(extent[::-1], dtype=np.int64)[::-1][1:]
    codes = np.unique(((diff - lo) * stride).sum(axis=1))
    vecs = []
    for code in codes.tolist():
        vec = []
        for d in range(len(common)):
            vec.append(code // int(stride[d]) + int(lo[d]))
            code %= int(stride[d])
        vecs.append(tuple(vec))
    target.update(vecs)


# ----------------------------------------------------------------------
# Batched legality checking
# ----------------------------------------------------------------------
class _WitnessPack:
    """All witnesses of a deps list as per-(statement, names) matrices."""

    def __init__(self, groups, per_dep) -> None:
        #: [(statement index, env names, (n, len(names)) int64 values)]
        self.groups = groups
        #: per dep: (src gid, src slice, tgt gid, tgt slice) or None
        self.per_dep = per_dep
        #: evaluated schedule keys per (legality schedules, binding), so
        #: one candidate's schedule, parallel and vector queries evaluate
        #: each group once
        self._keys = LRUCache(64)

    def key_cache(self, schedules: Sequence[Schedule],
                  params: Mapping[str, int]) -> Dict[int, np.ndarray]:
        """The gid -> keys memo for one schedule list and binding.

        Keyed by the identity of the (memoized, shared) legality schedule
        list; the entry pins that list, so its id cannot be reused while
        the entry lives.
        """
        memo_key = (id(schedules), tuple(sorted(params.items())))
        hit = self._keys.get(memo_key)
        if hit is None:
            hit = (schedules, {})
            self._keys.put(memo_key, hit)
        return hit[1]


def _build_pack(deps: Sequence) -> Optional[_WitnessPack]:
    group_ids: Dict[Tuple[int, Tuple[str, ...]], int] = {}
    group_rows: List[List[List[int]]] = []
    group_meta: List[Tuple[int, Tuple[str, ...]]] = []
    per_dep = []

    def side_rows(insts) -> Optional[Tuple[int, slice]]:
        si = insts[0][0]
        names = tuple(n for n, _v in insts[0][1])
        gid = group_ids.get((si, names))
        if gid is None:
            gid = len(group_rows)
            group_ids[(si, names)] = gid
            group_rows.append([])
            group_meta.append((si, names))
        rows = group_rows[gid]
        start = len(rows)
        for inst_si, env in insts:
            if inst_si != si or len(env) != len(names):
                return None
            rows.append([v for _n, v in env])
        return gid, slice(start, start + len(insts))

    for dep in deps:
        if not dep.witnesses:
            per_dep.append(None)
            continue
        src = side_rows([pair[0] for pair in dep.witnesses])
        tgt = side_rows([pair[1] for pair in dep.witnesses])
        if src is None or tgt is None:
            return None
        per_dep.append(src + tgt)
    groups = []
    for (si, names), rows in zip(group_meta, group_rows):
        vals = np.asarray(rows, dtype=np.int64).reshape(len(rows),
                                                        len(names))
        groups.append((si, names, vals))
    return _WitnessPack(groups, per_dep)


@memoized(256, key=lambda deps: tuple(map(id, deps)))
def _witness_pack(deps: Sequence) -> Tuple[tuple, Optional[_WitnessPack]]:
    """``(the deps tuple, _build_pack(deps))``.

    Keyed by the identity of the dependence objects; the entry pins the
    deps tuple so ids stay valid while cached.  Memoized dependence
    lists are queried by every candidate schedule of every persona and
    compiler pass, so the tuple-to-matrix conversion is paid once.
    """
    return tuple(deps), _build_pack(deps)


def _group_keys(pack: _WitnessPack, schedules: Sequence[Schedule],
                params: Mapping[str, int], cache: Dict[int, np.ndarray],
                gid: int) -> np.ndarray:
    keys = cache.get(gid)
    if keys is None:
        si, names, vals = pack.groups[gid]
        columns = {name: vals[:, j] for j, name in enumerate(names)}
        keys = schedules[si].evaluate_columns(columns, params, len(vals))
        cache[gid] = keys
    return keys


def _lex_compare(skeys: np.ndarray, tkeys: np.ndarray):
    """Row-wise lexicographic verdicts: (src > tgt, src == tgt) masks."""
    diff = skeys - tkeys
    nz = diff != 0
    has = nz.any(axis=1)
    lead = diff[np.arange(len(diff)), nz.argmax(axis=1)]
    return has & (lead > 0), ~has


def schedule_violations_batch(program: Program, deps: Sequence,
                              params: Mapping[str, int],
                              schedules: Sequence[Schedule]
                              ) -> Optional[List]:
    """Batched :func:`..dependences.schedule_violations`.

    Returns None when the witness shapes don't pack (heterogeneous
    environments) — the caller falls back to the reference loop.
    """
    pack = _witness_pack(deps)[1]
    if pack is None:
        return None
    name_to_idx = {s.name: i for i, s in enumerate(program.statements)}
    key_cache = pack.key_cache(schedules, params)
    violated = []
    for dep, entry in zip(deps, pack.per_dep):
        if dep.source not in name_to_idx or dep.target not in name_to_idx:
            violated.append(dep)
            continue
        if entry is None:
            continue
        sgid, ssl, tgid, tsl = entry
        skeys = _group_keys(pack, schedules, params, key_cache, sgid)[ssl]
        tkeys = _group_keys(pack, schedules, params, key_cache, tgid)[tsl]
        greater, equal = _lex_compare(skeys, tkeys)
        if greater.any() or (
                name_to_idx[dep.source] >= name_to_idx[dep.target]
                and equal.any()):
            violated.append(dep)
    return violated


def parallel_violations_batch(program: Program, deps: Sequence, dim: int,
                              params: Mapping[str, int],
                              schedules: Sequence[Schedule]
                              ) -> Optional[List]:
    """Batched :func:`..dependences.parallel_violations`."""
    pack = _witness_pack(deps)[1]
    if pack is None:
        return None
    key_cache = pack.key_cache(schedules, params)
    violated = []
    for dep, entry in zip(deps, pack.per_dep):
        if entry is None:
            continue
        sgid, ssl, tgid, tsl = entry
        skeys = _group_keys(pack, schedules, params, key_cache, sgid)[ssl]
        tkeys = _group_keys(pack, schedules, params, key_cache, tgid)[tsl]
        if dim >= skeys.shape[1]:
            continue
        carried = ((skeys[:, :dim] == tkeys[:, :dim]).all(axis=1)
                   & (skeys[:, dim] != tkeys[:, dim]))
        if carried.any():
            violated.append(dep)
    return violated
