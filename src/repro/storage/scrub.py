"""The storage fsck: line-level verification and repair.

``repro store verify`` drives :func:`verify_store` over every stream of
the active backend (the serve journal is just another stream, so it is
covered) and reports each damaged record with shard + byte-offset
diagnostics.
``--repair`` then drives :func:`repair_store`: for a local store,
compaction rewrites every shard and the damage is dropped (an earlier
valid put for the same key survives); for a mirrored store, every key
is read-repaired from a healthy replica first, so damaged records are
*restored*, not just purged.

Unlike the read path, the scrubber always verifies checksums — it is an
explicit integrity operation, so ``REPRO_STORE_VERIFY=off`` does not
apply to detection (repair temporarily forces verification on so a
compaction can never rewrite a record that fails its crc).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .base import (ENV_STORE_VERIFY, INTEGRITY, ArtifactStore,
                   record_crc_ok, verify_mode)
from .local import LocalShardedStore, decode_record
from .mirrored import MirroredStore


@dataclass(frozen=True)
class ScrubIssue:
    """One damaged record, pinpointed for the operator."""

    stream: str
    location: str          # shard file name (or "replicas")
    offset: Optional[int]  # byte offset of the damaged line, if any
    kind: str              # corrupt | torn | mismatched | divergent | ...
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {"stream": self.stream, "location": self.location,
                "offset": self.offset, "kind": self.kind,
                "detail": self.detail}

    def render(self) -> str:
        at = f" @{self.offset}" if self.offset is not None else ""
        return (f"{self.stream}/{self.location}{at}: "
                f"{self.kind} ({self.detail})")


@dataclass
class StreamScrubReport:
    """Verification outcome for one stream."""

    stream: str
    records: int = 0     # decodable record lines seen
    live: int = 0        # keys a reader would serve
    legacy: int = 0      # valid records without a crc field
    corrupt: int = 0
    torn: int = 0
    mismatched: int = 0
    issues: List[ScrubIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.issues

    def to_dict(self) -> Dict[str, Any]:
        return {"stream": self.stream, "records": self.records,
                "live": self.live, "legacy": self.legacy,
                "corrupt": self.corrupt, "torn": self.torn,
                "mismatched": self.mismatched,
                "issues": [i.to_dict() for i in self.issues]}


@dataclass
class VerifyReport:
    """Whole-store verification outcome (one level per replica)."""

    backend: str
    root: str
    streams: List[StreamScrubReport] = field(default_factory=list)
    replicas: List["VerifyReport"] = field(default_factory=list)

    def issues(self) -> Iterator[ScrubIssue]:
        for report in self.streams:
            yield from report.issues
        for replica in self.replicas:
            yield from replica.issues()

    @property
    def flagged(self) -> int:
        return sum(1 for _ in self.issues())

    @property
    def clean(self) -> bool:
        return next(self.issues(), None) is None

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "backend": self.backend, "root": self.root,
            "clean": self.clean, "flagged": self.flagged,
            "streams": [s.to_dict() for s in self.streams]}
        if self.replicas:
            doc["replicas"] = [r.to_dict() for r in self.replicas]
        return doc


@dataclass
class RepairReport:
    """What one ``--repair`` pass restored and purged."""

    read_repairs: int = 0
    dropped: int = 0          # damaged lines compacted away

    def to_dict(self) -> Dict[str, int]:
        return {"read_repairs": self.read_repairs,
                "dropped": self.dropped}


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------
def scrub_stream(store: LocalShardedStore,
                 stream: str) -> StreamScrubReport:
    """Walk every shard line of one local stream, verifying each crc.

    Operates on the raw files (no index mutation, nothing healed), so
    it is safe to run against a live store.
    """
    report = StreamScrubReport(stream=stream)
    live: Dict[str, bool] = {}
    for path in store.shard_paths(stream):
        data = path.read_bytes()
        offset = 0
        total = len(data)
        while offset < total:
            newline = data.find(b"\n", offset)
            if newline < 0:
                report.torn += 1
                report.issues.append(ScrubIssue(
                    stream, path.name, offset, "torn",
                    f"final line has no newline "
                    f"({total - offset} bytes)"))
                break
            raw = data[offset:newline]
            line_at = offset
            offset = newline + 1
            if not raw.strip():
                continue
            record = decode_record(raw)
            if record is None:
                report.corrupt += 1
                report.issues.append(ScrubIssue(
                    stream, path.name, line_at, "corrupt",
                    f"undecodable line ({len(raw)} bytes)"))
                continue
            report.records += 1
            if "crc" not in record:
                report.legacy += 1
            elif not record_crc_ok(record):
                report.mismatched += 1
                report.issues.append(ScrubIssue(
                    stream, path.name, line_at, "mismatched",
                    f"crc mismatch for key {record.get('key')!r}"))
                continue  # a damaged record never wins ordering here
            key = record["key"]
            if record.get("tombstone"):
                live.pop(key, None)
            else:
                live[key] = True
    report.live = len(live)
    return report


def _scrub_generic(store: ArtifactStore,
                   stream: str) -> StreamScrubReport:
    """Fallback for backends without shard files (e.g. in-memory)."""
    keys = store.list(stream)
    return StreamScrubReport(stream=stream, records=len(keys),
                             live=len(keys))


def _divergence(store: MirroredStore,
                stream: str) -> StreamScrubReport:
    """Cross-replica comparison for one stream of a mirrored store."""
    report = StreamScrubReport(stream=stream)
    keys = store.list(stream)
    report.live = len(keys)
    for key in keys:
        probes = [MirroredStore._probe(child, stream, key)
                  for child in store.children]
        if len({(has, json.dumps(value, sort_keys=True))
                for has, value in probes}) > 1:
            missing = [i for i, (has, _) in enumerate(probes)
                       if not has]
            detail = (f"replicas disagree on key {key!r}"
                      + (f" (missing from replica(s) {missing})"
                         if missing else ""))
            report.issues.append(ScrubIssue(
                stream, "replicas", None, "divergent", detail))
    return report


def verify_store(store: ArtifactStore,
                 streams: Optional[Tuple[str, ...]] = None,
                 _count: bool = True) -> VerifyReport:
    """Verify every stream of a store.

    Detection only — nothing on disk changes.  For a mirrored store the
    report carries one nested :class:`VerifyReport` per replica plus
    per-stream cross-replica divergence findings.
    """
    if streams is None:
        streams = store.streams()
    report = VerifyReport(backend=store.describe(), root=store.root)
    if isinstance(store, MirroredStore):
        report.streams = [_divergence(store, s) for s in streams]
        report.replicas = [
            verify_store(child, streams, _count=False)
            for child in store.children]
    elif isinstance(store, LocalShardedStore):
        report.streams = [scrub_stream(store, s) for s in streams]
    else:
        report.streams = [_scrub_generic(store, s) for s in streams]
    if _count:
        INTEGRITY.inc("scrub_runs")
        flagged = report.flagged
        if flagged:
            INTEGRITY.inc("scrub_flagged", flagged)
    return report


# ----------------------------------------------------------------------
# repair
# ----------------------------------------------------------------------
@contextmanager
def _forced_verification() -> Iterator[None]:
    """Repair must never rewrite a record that fails its crc, even
    under ``REPRO_STORE_VERIFY=off``."""
    previous = os.environ.get(ENV_STORE_VERIFY)
    if verify_mode() == "off":
        os.environ[ENV_STORE_VERIFY] = "read"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_STORE_VERIFY, None)
        else:
            os.environ[ENV_STORE_VERIFY] = previous


def repair_store(store: ArtifactStore,
                 streams: Optional[Tuple[str, ...]] = None) -> RepairReport:
    """Heal what :func:`verify_store` flagged.

    Mirrored stores first read-repair every key (restoring damaged
    records from a healthy replica), then every backend compacts, which
    rewrites each shard without its corrupt/torn/mismatched lines.
    """
    if streams is None:
        streams = store.streams()
    report = RepairReport()
    with _forced_verification():
        if isinstance(store, MirroredStore):
            for stream in streams:
                report.read_repairs += store.repair_stream(stream)
        for stream in streams:
            compaction = store.compact(stream)
            report.dropped += (compaction.dropped_corrupt
                               + compaction.dropped_mismatched)
    repaired = report.read_repairs + report.dropped
    if repaired:
        INTEGRITY.inc("scrub_repaired", repaired)
    return report
