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
   it — one ``np.maximum.at`` over the slot vector, no per-record loop.
   The per-point slot tables (CRC-32 combined per column in arrays, see
   ``_crc_rows``) depend only on the statement index, its domain
   (iterator names included) and the parameter binding, never on the
   schedule, so they are memoized across programs: every schedule
   candidate of a program reuses the tables its source built.
   The chosen records leave as int64 environment rows, one matrix per
   side, which ``Dependence`` keeps; every stored witness — and every
   legality verdict downstream — is identical to the reference walk's,
   not just equivalent.

Distance-vector sets are computed exhaustively as array differences over
the common iterators, deduplicated as mixed-radix integer codes and
decoded digit by digit.

Legality checking
-----------------
``schedule_violations`` / ``parallel_violations`` evaluate the legality
schedules as vectorized affine maps over the witness blocks (every
witness side of one statement in one dependence list shares a block) and
compare source/target schedule keys with one row-wise lexicographic
comparison.  The keys of the candidate being judged are kept, so its
schedule, parallel and vector queries evaluate each block once; older
candidates' keys are dropped, since their verdicts are memoized.
"""

from __future__ import annotations

import functools
import zlib
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..ir.affine import affine_column
from ..ir.domain import Domain
from ..ir.program import Program
from ..ir.schedule import Schedule
from ..memo import LRUCache, memoized
from .dependences import Dependence, WitnessRows

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
        # ``repr`` of the iterator-only instance ``(si, (('i', v), ...))``
        # — the witness-rotation slot key of the reference walk — as the
        # text around its values, one value per sorted iterator
        if not names:
            inner = "()"
        elif len(names) == 1:
            inner = f"(('{self.sorted_names[0]}', %d),)"
        else:
            inner = ("("
                     + ", ".join(f"('{nm}', %d)" for nm in self.sorted_names)
                     + ")")
        self.slot_text = tuple(part.encode()
                               for part in f"({si}, {inner})".split("%d"))


def collect_pairs(program: Program, params: Mapping[str, int],
                  budget: int, exceeded: Callable[[int], Exception],
                  max_witnesses: int, rotate: bool = True):
    """One concretization pass; same return structure as the reference.

    Returns ``({kind: {(src_si, tgt_si, array): ((env names, rows),
    (env names, rows))}}, {(kind, src_si, tgt_si, array): {distance
    vec, ...}})`` with witness rows identical to the scalar walk's.

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
    param_names = tuple(name for name, _v in param_items)
    param_row = np.array([v for _n, v in param_items], dtype=np.int64)

    def env_rows(meta: _StmtMeta, pts: np.ndarray):
        """Witness environments: sorted iterators, then the binding."""
        rows = np.empty((len(pts), len(meta.order) + len(param_row)),
                        dtype=np.int64)
        rows[:, :len(meta.order)] = pts[:, meta.order]
        rows[:, len(meta.order):] = param_row
        return meta.sorted_names + param_names, rows

    n_stmts, n_names = len(program.statements), len(name_id)
    n_ord = int(ev_ord.max()) + 1
    n_at = n * n_ord

    def emit(pairs_out, kind, src_ev, tgt_ev):
        """Replay one kind's ``add`` stream bucket by bucket.

        Records are ordered by bucket, then by the target access (its
        schedule position, then its ordinal).  The sort is stable, so
        records of one target access keep the order they arrive in,
        which for WAR is the order the scalar walk issues them in (the
        readers list in append order, then the compound-history pair).
        """
        if len(src_ev) == 0:
            return
        bucket = ((batch.si[ev_g[src_ev]] * n_stmts + batch.si[ev_g[tgt_ev]])
                  * n_names + sid_name[ev_sid[tgt_ev]])
        at = bucket * n_at + ev_g[tgt_ev] * n_ord + ev_ord[tgt_ev]
        rec_order = np.argsort(at, kind="stable")
        src_ev, tgt_ev = src_ev[rec_order], tgt_ev[rec_order]
        bucket = bucket[rec_order]
        bounds = np.flatnonzero(np.concatenate(
            ([True], bucket[1:] != bucket[:-1], [True])))
        for a, b in zip(bounds[:-1], bounds[1:]):
            pair, array = divmod(int(bucket[a]), n_names)
            ssi, tsi = divmod(pair, n_stmts)
            key = (ssi, tsi, id_name[array])
            smeta, tmeta = metas[ssi], metas[tsi]
            src_rows = batch.row[ev_g[src_ev[a:b]]]
            tgt_rows = batch.row[ev_g[tgt_ev[a:b]]]
            src_points, tgt_points = batch.points[ssi], batch.points[tsi]
            _merge_distances(program, distance_sets, kind, key, ssi, tsi,
                             src_rows, tgt_rows, src_points, tgt_points)
            # bounded-witness replay: the first _MAX_WITNESSES records
            # append; later ones overwrite their crc slot, so each slot
            # keeps the last record mapped to it
            k = b - a
            chosen = np.arange(min(k, max_witnesses))
            if k > max_witnesses and rotate:
                slots = _slot_table(tsi, program.statements[tsi].domain,
                                    param_items, tmeta, tgt_points,
                                    max_witnesses)[tgt_rows[max_witnesses:]]
                np.maximum.at(chosen, slots, np.arange(max_witnesses, k))
            pairs_out[key] = (
                env_rows(smeta, src_points[src_rows[chosen]]),
                env_rows(tmeta, tgt_points[tgt_rows[chosen]]))

    emit(raw_pairs, KIND_RAW, raw_src, raw_tgt)
    emit(waw_pairs, KIND_WAW, waw_src, waw_tgt)
    emit(war_pairs, KIND_WAR, np.concatenate((warr_src, warc_src)),
         np.concatenate((warr_tgt, warc_tgt)))
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
    table = _crc_rows(meta.slot_text, points[:, meta.order]) % max_witnesses
    table = table.astype(np.int32)
    table.flags.writeable = False  # shared across programs/threads
    return table


_FF = 0xFFFFFFFF


@functools.lru_cache(maxsize=64)
def _zero_shift(n: int) -> np.ndarray:
    """The CRC-32 register map of ``n`` zero bytes, byte-sliced.

    Feeding zero bytes is linear in the register, so the map of ``x`` is
    the xor of ``table[k][(x >> 8k) & 0xFF]`` over the four bytes ``k``.
    """
    zeros = bytes(n)
    table = np.array([[zlib.crc32(zeros, (b << 8 * k) ^ _FF) ^ _FF
                       for b in range(256)] for k in range(4)],
                     dtype=np.int64)
    table.flags.writeable = False  # shared by every caller
    return table


def _crc_rows(text: Tuple[bytes, ...], values: np.ndarray) -> np.ndarray:
    """``zlib.crc32`` of ``text[0] + str(values[r, 0]) + text[1] + ...``
    for every row ``r``.

    CRC-32 combines across concatenation: the register after ``a + b`` is
    the register after ``a`` shifted through ``len(b)`` zero bytes, xor
    the register ``b`` alone leaves from zero.  A column holds few
    distinct values, so each value's text is hashed once, and each row
    takes its shift with four table gathers.
    """
    reg = np.full(len(values), zlib.crc32(text[0]) ^ _FF, dtype=np.int64)
    for d, tail in enumerate(text[1:]):
        distinct, which = np.unique(values[:, d], return_inverse=True)
        pieces = [b"%d%s" % (v, tail) for v in distinct.tolist()]
        sizes = sorted({len(piece) for piece in pieces})
        shift = np.stack([_zero_shift(size) for size in sizes])
        size_of = np.array([sizes.index(len(piece)) for piece in pieces])
        alone = np.array([zlib.crc32(piece, _FF) ^ _FF for piece in pieces],
                         dtype=np.int64)
        size = size_of[which]
        reg = (shift[size, 0, reg & 0xFF] ^ shift[size, 1, (reg >> 8) & 0xFF]
               ^ shift[size, 2, (reg >> 16) & 0xFF]
               ^ shift[size, 3, reg >> 24] ^ alone[which])
    return reg ^ _FF


def _merge_distances(program: Program, distance_sets: Dict, kind: str,
                     key: Tuple[int, int, str], ssi: int, tsi: int,
                     src_rows: np.ndarray, tgt_rows: np.ndarray,
                     src_points: np.ndarray, tgt_points: np.ndarray) -> None:
    """Exhaustive distance vectors of one class: record ``r`` runs from
    ``src_points[src_rows[r]]`` to ``tgt_points[tgt_rows[r]]``.  Each
    vector is encoded as one integer (mixed radix over the common
    iterators' distance ranges), deduplicated, and decoded per digit."""
    src_names = program.statements[ssi].domain.iterator_names
    tgt_names = program.statements[tsi].domain.iterator_names
    tgt_pos = {name: d for d, name in enumerate(tgt_names)}
    common = [(d, tgt_pos[name]) for d, name in enumerate(src_names)
              if name in tgt_pos]
    target = distance_sets.setdefault((kind,) + key, set())
    if not common:
        target.add(())
        return
    codes = np.zeros(len(src_rows), dtype=np.int64)
    lows, extents = [], []
    for s, t in common:
        diff = tgt_points[:, t][tgt_rows] - src_points[:, s][src_rows]
        low = int(diff.min())
        extent = int(diff.max()) - low + 1
        codes *= extent
        codes += diff - low
        lows.append(low)
        extents.append(extent)
    codes = np.unique(codes)
    vecs = np.empty((len(codes), len(common)), dtype=np.int64)
    for d in reversed(range(len(common))):
        codes, vecs[:, d] = np.divmod(codes, extents[d])
        vecs[:, d] += lows[d]
    target.update(map(tuple, vecs.tolist()))


# ----------------------------------------------------------------------
# Batched legality checking
# ----------------------------------------------------------------------
#: evaluated schedule keys of the candidate being judged: its legality
#: schedule list (pinned by the entry, so its id stays its own) and
#: binding map to ``{id(witness block): (block, keys)}``.  One entry:
#: ``dependences._legality`` memoizes the verdicts, so a candidate's
#: keys serve only its own schedule, parallel and vector queries.
_CANDIDATE_KEYS = LRUCache(1)


def _candidate_keys(schedules: Sequence[Schedule],
                    params: Mapping[str, int]) -> Dict[int, tuple]:
    memo_key = (id(schedules), tuple(sorted(params.items())))
    hit = _CANDIDATE_KEYS.get(memo_key)
    if hit is None:
        hit = (schedules, {})
        _CANDIDATE_KEYS.put(memo_key, hit)
    return hit[1]


def _side_keys(side: WitnessRows, schedules: Sequence[Schedule],
               params: Mapping[str, int], cache: Dict[int, tuple]
               ) -> np.ndarray:
    """Schedule keys of one witness side; its block is evaluated once
    per candidate."""
    hit = cache.get(id(side.block))
    if hit is None:
        block = side.block
        columns = {name: block[:, j] for j, name in enumerate(side.names)}
        hit = (block, schedules[side.si].evaluate_columns(columns, params,
                                                          len(block)))
        cache[id(block)] = hit
    return hit[1][side.start:side.stop]


def _lex_compare(skeys: np.ndarray, tkeys: np.ndarray):
    """Row-wise lexicographic verdicts: (src > tgt, src == tgt) masks."""
    diff = skeys - tkeys
    nz = diff != 0
    has = nz.any(axis=1)
    lead = diff[np.arange(len(diff)), nz.argmax(axis=1)]
    return has & (lead > 0), ~has


def schedule_violations_batch(program: Program, deps: Sequence[Dependence],
                              params: Mapping[str, int],
                              schedules: Sequence[Schedule]
                              ) -> List[Dependence]:
    """Batched :func:`..dependences.schedule_violations`."""
    name_to_idx = {s.name: i for i, s in enumerate(program.statements)}
    keys = _candidate_keys(schedules, params)
    violated = []
    for dep in deps:
        if dep.source not in name_to_idx or dep.target not in name_to_idx:
            violated.append(dep)
            continue
        skeys = _side_keys(dep.source_rows, schedules, params, keys)
        tkeys = _side_keys(dep.target_rows, schedules, params, keys)
        greater, equal = _lex_compare(skeys, tkeys)
        if greater.any() or (
                name_to_idx[dep.source] >= name_to_idx[dep.target]
                and equal.any()):
            violated.append(dep)
    return violated


def parallel_violations_batch(program: Program, deps: Sequence[Dependence],
                              dim: int, params: Mapping[str, int],
                              schedules: Sequence[Schedule]
                              ) -> List[Dependence]:
    """Batched :func:`..dependences.parallel_violations`."""
    keys = _candidate_keys(schedules, params)
    violated = []
    for dep in deps:
        skeys = _side_keys(dep.source_rows, schedules, params, keys)
        tkeys = _side_keys(dep.target_rows, schedules, params, keys)
        if dim >= skeys.shape[1]:
            continue
        carried = ((skeys[:, :dim] == tkeys[:, :dim]).all(axis=1)
                   & (skeys[:, dim] != tkeys[:, dim]))
        if carried.any():
            violated.append(dep)
    return violated
