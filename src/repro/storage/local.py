"""The artifact store: sharded, append-only, compacting files.

:class:`LocalShardedStore` is the only store production code opens (the
result cache, the corpus cache and the serve journal all live in one);
:class:`~repro.storage.InMemoryStore` is the specification it is
conformance-tested against.

Layout (one directory per stream under the store root)::

    <root>/<stream>/meta.json        # {"schema": 2, "shards": N}
    <root>/<stream>/shard-03.jsonl   # append-only records
    <root>/<stream>/shard-03.lock    # flock target (never replaced)

Each record is one JSON line with a fixed head —
``{"schema":2,"crc":"<8 hex>","key":<key>,"payload":<payload>}`` for a
put, ``{"schema":2,"crc":"<8 hex>","key":<key>,"tombstone":true}`` for a
delete (the codec is :func:`repro.storage.base.encode_line`).  ``crc``
is the crc32 of the line's bytes after the crc field, exactly as
written, so a line verifies without decoding its payload and the crc
survives compaction's byte-for-byte copies.  A key always lands in the
shard named by a prefix of its SHA-256 digest (mod the stream's shard
count, pinned in ``meta.json`` so reconfigured stores keep finding old
keys), which means last-write-wins ordering only ever needs the order
*within* one file.

Safety model
------------
* **Appends are atomic.**  Every record goes down as exactly one
  ``os.write`` on an ``O_APPEND`` descriptor while holding the shard's
  ``flock``; a short write raises :class:`StoreError` instead of
  leaving a torn prefix.  Concurrent sessions and fork-pool workers
  therefore interleave whole lines, never fragments.
* **Every line is verified, no payload is decoded twice.**  A scan of
  the shard files (:class:`ShardReplay`) checks every line's crc and
  reads its key from the fixed head, building an in-memory ``key ->
  (shard, offset, length)`` index without decoding a single payload.
  ``read`` seeks to the remembered line, re-checks its crc (damage can
  land after the scan) and decodes the payload once.  If another
  process compacted a shard underneath us the line at the remembered
  offset no longer carries its key and the reader rescans once before
  answering.
* **Corruption is contained.**  Lines not in the current format
  (garbage, other schema versions) and torn tails (a final line with no
  newline — impossible under the atomic-append rule, so always a crash
  artifact) are skipped and counted as ``corrupt``; lines that fail
  their crc are skipped and counted as ``mismatched``.  A damaged line
  never enters the index, so it cannot shadow an earlier valid put of
  its key: that put is served instead.
* **Compaction repairs.**  :meth:`LocalShardedStore.compact` rewrites
  each shard under its lock via write-temp-then-rename, keeping only
  the winning put per live key (byte-identical lines) and dropping
  superseded records, tombstones and damaged lines.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import re
import shutil
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from .base import (INTEGRITY, STORAGE_SCHEMA, ArtifactStore,
                   CompactionReport, StoreError, StreamStats,
                   decode_payload, encode_line, read_line_head)

DEFAULT_SHARDS = 16
META_FILE = "meta.json"

#: fault-injection site for appends (see repro.testing.faults)
APPEND_FAULT_SITE = "store.append"

_corrupt_bytes = None  # resolved lazily; see _apply_write_faults


def _apply_write_faults(site: str, data: bytes) -> bytes:
    """Run ``data`` through any scheduled store-write fault.

    Imported lazily so the storage plane never drags the testing
    package in at import time; with no active fault plan this is a
    cached-attribute lookup and one function call.
    """
    global _corrupt_bytes
    if _corrupt_bytes is None:
        from ..testing.faults import corrupt_bytes
        _corrupt_bytes = corrupt_bytes
    return _corrupt_bytes(site, data)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None


@contextmanager
def exclusive_lock(path) -> Iterator[None]:
    """An advisory cross-process lock on ``path`` (no-op without fcntl).

    The lock file itself is never replaced or deleted, so every process
    flocks the same inode — unlike the shard files, which compaction
    swaps out via rename.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    fd = os.open(str(path), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing drops the flock


@contextmanager
def _mapped(path: Path) -> Iterator[Any]:
    """``path``'s bytes, memory-mapped read-only (b"" when empty).

    The index scan and ``read`` map shard files rather than read them
    into a buffer: a corpus line is megabytes, and a malloc'd buffer of
    that size, once freed, leaves the allocator holding its pages for
    the rest of the process.  Mapping is safe because no writer ever
    shrinks a shard in place: appends grow it and compaction renames a
    new file over it.
    """
    with open(path, "rb") as handle:
        if not os.fstat(handle.fileno()).st_size:
            yield b""
            return
        with mmap.mmap(handle.fileno(), 0,
                       access=mmap.ACCESS_READ) as data:
            yield data


def shard_of(key: str, shards: int) -> int:
    """Deterministic shard id: a prefix of the key's SHA-256 digest."""
    prefix = hashlib.sha256(key.encode()).hexdigest()[:8]
    return int(prefix, 16) % shards


class _Loc:
    """Where one live record sits: (shard id, byte offset, byte length)."""

    __slots__ = ("shard", "offset", "length")

    def __init__(self, shard: int, offset: int, length: int) -> None:
        self.shard = shard
        self.offset = offset
        self.length = length


class _StreamState:
    """Index + reclaimable-append counters for one loaded stream."""

    def __init__(self, shards: int) -> None:
        self.shards = shards
        self.index: Dict[str, _Loc] = {}
        self.superseded = 0
        self.tombstones = 0
        self.corrupt = 0
        self.mismatched = 0
        #: keys whose newest line failed its crc (see damaged_keys())
        self.damaged_keys: Set[str] = set()


_BLANK = re.compile(rb"\s*")


class ShardReplay:
    """One shard file's bytes replayed under last-write-wins.

    The single walk over a shard shared by the index scan, compaction
    and the scrubber: split the bytes into lines, verify each line with
    :func:`read_line_head` (no payload is decoded), skip blank lines,
    and replay puts and tombstones in file order.  A damaged line takes
    no part in the replay, so an earlier valid put of its key survives.
    """

    def __init__(self, data: bytes) -> None:
        #: key -> (offset, end) of its winning put, in last-write
        #: order; ``end`` is the offset of the line's newline
        self.live: Dict[str, Tuple[int, int]] = {}
        self.superseded = 0
        self.tombstones = 0
        #: lines in the current format, damaged ones included
        self.records = 0
        #: (kind, offset, end, key) per damaged line, in file order;
        #: kind is ``corrupt``, ``torn`` or ``mismatched`` and the key
        #: is known only for a mismatched line whose key parses
        self.damaged: List[Tuple[str, int, int, Optional[str]]] = []
        #: keys whose newest line here is a mismatched one
        self.damaged_keys: Set[str] = set()
        offset, total = 0, len(data)
        while offset < total:
            end = data.find(b"\n", offset)
            if end < 0:  # torn tail from a mid-line crash
                self.damaged.append(("torn", offset, total, None))
                break
            start, offset = offset, end + 1
            head = read_line_head(data, start, end)
            if head is None:
                if not _BLANK.fullmatch(data, start, end):  # noise
                    self.damaged.append(("corrupt", start, end, None))
                continue
            self.records += 1
            key, tombstone, crc_ok = head
            if not crc_ok:
                self.damaged.append(("mismatched", start, end, key))
                if key is not None:
                    self.damaged_keys.add(key)
                continue
            self.damaged_keys.discard(key)
            if tombstone:
                if self.live.pop(key, None) is not None:
                    self.superseded += 1  # the put it shadows
                self.tombstones += 1
            else:
                if self.live.pop(key, None) is not None:
                    self.superseded += 1
                self.live[key] = (start, end)

    @property
    def corrupt(self) -> int:
        return sum(1 for kind, *_ in self.damaged if kind != "mismatched")

    @property
    def mismatched(self) -> int:
        return len(self.damaged) - self.corrupt


class LocalShardedStore(ArtifactStore):
    """Sharded append-only file store (see module docstring)."""

    name = "local"
    on_disk = True

    def __init__(self, root: str, shards: int = DEFAULT_SHARDS) -> None:
        super().__init__(root)
        if shards < 1 or shards > 256:
            raise ValueError(f"shard count must be in 1..256, "
                             f"got {shards}")
        self.default_shards = shards
        self._states: Dict[str, _StreamState] = {}
        self._lock = threading.RLock()

    # -- paths ---------------------------------------------------------
    def stream_dir(self, stream: str) -> Path:
        if not stream or "/" in stream or stream.startswith("."):
            raise ValueError(f"bad stream name {stream!r}")
        return Path(self.root) / stream

    def shard_path(self, stream: str, shard: int) -> Path:
        return self.stream_dir(stream) / f"shard-{shard:02x}.jsonl"

    def _lock_path(self, stream: str, shard: int) -> Path:
        return self.stream_dir(stream) / f"shard-{shard:02x}.lock"

    def shard_paths(self, stream: str) -> List[Path]:
        """Existing shard files, sorted (conformance/corruption hooks)."""
        return sorted(self.stream_dir(stream).glob("shard-*.jsonl"))

    # -- stream bootstrap ----------------------------------------------
    def _ensure_dir(self, stream: str, create: bool = False) -> int:
        """Shard count for ``stream``, creating dir + meta if asked.

        Reads (readers, ``streams()``, stats) never create directories;
        the first append pins the configured shard count in
        ``meta.json`` so later reconfiguration can't re-home keys.
        """
        sdir = self.stream_dir(stream)
        meta = sdir / META_FILE
        if meta.exists():
            try:
                return int(json.loads(meta.read_text())["shards"])
            except (ValueError, KeyError, TypeError, json.JSONDecodeError):
                return self.default_shards  # damaged meta: best effort
        if not create:
            return self.default_shards
        sdir.mkdir(parents=True, exist_ok=True)
        tmp = sdir / f"{META_FILE}.tmp.{os.getpid()}"
        tmp.write_text(json.dumps(
            {"schema": STORAGE_SCHEMA, "shards": self.default_shards}))
        os.replace(tmp, meta)  # racing creators write identical content
        return self.default_shards

    def _state(self, stream: str) -> _StreamState:
        state = self._states.get(stream)
        if state is None:
            state = self._scan(stream)
            self._states[stream] = state
        return state

    # -- scanning ------------------------------------------------------
    def _scan(self, stream: str) -> _StreamState:
        state = _StreamState(self._ensure_dir(stream))
        self._gc_stale_tmps(stream)
        for path in self.shard_paths(stream):
            try:
                shard = int(path.stem.split("-", 1)[1], 16)
            except (IndexError, ValueError):
                continue  # foreign file; never written by us
            with _mapped(path) as data:
                replay = ShardReplay(data)
            for key, (offset, end) in replay.live.items():
                state.index[key] = _Loc(shard, offset, end + 1 - offset)
            state.superseded += replay.superseded
            state.tombstones += replay.tombstones
            state.corrupt += replay.corrupt
            state.mismatched += replay.mismatched
            state.damaged_keys.update(replay.damaged_keys)
            if replay.mismatched:
                INTEGRITY.inc("crc_mismatches", replay.mismatched)
        return state

    def _gc_stale_tmps(self, stream: str) -> None:
        """Reap compaction temp files orphaned by a crash.

        A crash between write-temp and rename leaves
        ``shard-XX.jsonl.tmp.<pid>`` behind forever.  Each orphan is
        removed under its shard's lock: a live compactor holds that
        lock across write+rename, so by the time we acquire it either
        the rename happened (the temp is gone) or the temp really is
        an orphan.
        """
        sdir = self.stream_dir(stream)
        if not sdir.is_dir():
            return
        for tmp in sdir.glob("shard-*.jsonl.tmp.*"):
            try:
                shard = int(tmp.name.split("-", 1)[1].split(".", 1)[0],
                            16)
            except (IndexError, ValueError):
                continue
            with exclusive_lock(self._lock_path(stream, shard)):
                if tmp.exists():
                    try:
                        tmp.unlink()
                    except OSError:  # pragma: no cover - racing unlink
                        pass

    # -- the stream contract -------------------------------------------
    def open(self, stream: str) -> StreamStats:
        with self._lock:
            self._state(stream)
        return self.stream_stats(stream)

    def append(self, stream: str, key: str, payload: Any) -> None:
        self._append_line(stream, key, encode_line(key, payload),
                          live=True)

    def delete(self, stream: str, key: str) -> bool:
        with self._lock:
            if key not in self._state(stream).index:
                return False  # deleting a missing key appends nothing
            self._append_line(stream, key,
                              encode_line(key, tombstone=True),
                              live=False)
        return True

    def _append_line(self, stream: str, key: str, data: bytes,
                     live: bool) -> None:
        # scheduled corruption faults (bitflip/truncate/garbage) hit the
        # encoded line here, before it reaches the shard, so scrub and
        # repair paths are exercised against real on-disk damage
        data = _apply_write_faults(APPEND_FAULT_SITE, data)
        with self._lock:
            state = self._state(stream)
            # the first append pins the shard count; later appends
            # follow whatever meta.json pinned, even if another process
            # created it with a different configuration
            state.shards = self._ensure_dir(stream, create=True)
            shard = shard_of(key, state.shards)
            path = self.shard_path(stream, shard)
            with exclusive_lock(self._lock_path(stream, shard)):
                fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND,
                             0o644)
                try:
                    size = os.fstat(fd).st_size
                    # a crash can leave the shard without its trailing
                    # newline; heal it here or the new record would fuse
                    # with the torn fragment into one corrupt line
                    record_len = len(data)
                    if size and os.pread(fd, 1, size - 1) != b"\n":
                        data = b"\n" + data
                    offset = size + len(data) - record_len
                    written = os.write(fd, data)
                finally:
                    os.close(fd)
            if written != len(data):
                raise StoreError(
                    f"torn append on {path}: wrote {written} of "
                    f"{len(data)} bytes for key {key!r}")
            state.damaged_keys.discard(key)
            old = state.index.pop(key, None)
            if old is not None:
                state.superseded += 1
            if live:
                state.index[key] = _Loc(shard, offset, record_len)
            else:
                state.tombstones += 1

    def read(self, stream: str, key: str) -> Optional[Any]:
        with self._lock:
            for attempt in range(2):
                state = self._state(stream)
                loc = state.index.get(key)
                if loc is None:
                    return None
                end = loc.offset + loc.length - 1
                try:
                    with _mapped(self.shard_path(stream, loc.shard)) as data:
                        head = (read_line_head(data, loc.offset, end)
                                if data[end:end + 1] == b"\n" else None)
                        if (head is not None and head[0] == key
                                and not head[1]):
                            if head[2]:
                                return decode_payload(data, loc.offset,
                                                      end)
                            # damaged since the scan: report the key
                            # missing and count it rather than serve
                            # altered data
                            state.mismatched += 1
                            INTEGRITY.inc("crc_mismatches")
                            del state.index[key]
                            state.damaged_keys.add(key)
                            return None
                except OSError:
                    pass  # the shard itself is gone
                # another process compacted this shard: offsets moved
                self._states.pop(stream, None)
        raise StoreError(f"index for stream {stream!r} is unstable; "
                         f"key {key!r} moved during both read attempts")

    def list(self, stream: str) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._state(stream).index))

    def contains(self, stream: str, key: str) -> bool:
        with self._lock:
            return key in self._state(stream).index

    def damaged_keys(self, stream: str) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._state(stream).damaged_keys))

    def streams(self) -> Tuple[str, ...]:
        root = Path(self.root)
        if not root.is_dir():
            return ()
        found = []
        for child in root.iterdir():
            if child.is_dir() and ((child / META_FILE).exists()
                                   or list(child.glob("shard-*.jsonl"))):
                found.append(child.name)
        return tuple(sorted(found))

    def compact(self, stream: str) -> CompactionReport:
        kept = superseded = tombstones = corrupt = mismatched = 0
        with self._lock:
            state = self._state(stream)
            for shard in range(state.shards):
                path = self.shard_path(stream, shard)
                if not path.exists():
                    continue
                with exclusive_lock(self._lock_path(stream, shard)):
                    k, s, t, c, m = self._compact_shard(path)
                kept += k
                superseded += s
                tombstones += t
                corrupt += c
                mismatched += m
            self._states.pop(stream, None)  # offsets moved: rescan
            self._state(stream)
        return CompactionReport(stream=stream, kept=kept,
                                dropped_superseded=superseded,
                                dropped_tombstones=tombstones,
                                dropped_corrupt=corrupt,
                                dropped_mismatched=mismatched)

    @staticmethod
    def _compact_shard(path: Path) -> Tuple[int, int, int, int, int]:
        """Rewrite one shard keeping only winning puts (byte-identical).

        Caller holds the shard lock.  Returns (kept, superseded,
        tombstones, corrupt, mismatched) line counts.  A line whose crc
        fails is dropped like a corrupt line — an earlier valid put for
        the same key survives the rewrite.
        """
        data = path.read_bytes()
        replay = ShardReplay(data)
        counts = (len(replay.live), replay.superseded, replay.tombstones,
                  replay.corrupt, replay.mismatched)
        if not replay.live:
            path.unlink()
            return counts
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        with open(tmp, "wb") as handle:
            handle.write(b"".join(data[offset:end + 1] for offset, end
                                  in replay.live.values()))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return counts

    def stream_stats(self, stream: str) -> StreamStats:
        with self._lock:
            state = self._state(stream)
            paths = self.shard_paths(stream)
            size = sum(p.stat().st_size for p in paths if p.exists())
            return StreamStats(entries=len(state.index),
                               superseded=state.superseded,
                               tombstones=state.tombstones,
                               corrupt=state.corrupt,
                               shards=len(paths), bytes=size,
                               mismatched=state.mismatched)

    def drop(self, stream: str) -> None:
        with self._lock:
            self._states.pop(stream, None)
            sdir = self.stream_dir(stream)
            if sdir.exists():
                shutil.rmtree(sdir)

    def refresh(self, stream: str) -> None:
        with self._lock:
            self._states.pop(stream, None)

