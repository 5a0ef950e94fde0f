"""The storage fsck: line-level verification and repair.

``repro store verify`` drives :func:`verify_store` over every stream of
the store (the serve journal is just another stream, so it is covered)
and reports each damaged record with shard + byte-offset diagnostics.
``--repair`` then drives :func:`repair_store`: compaction rewrites every
shard and the damage is dropped (an earlier valid put for the same key
survives).  Every stored artifact is a deterministic recompute, so a
dropped record is recomputed on its next miss, never restored.

The scrubber verifies every line's checksum whatever
``REPRO_STORE_VERIFY`` says; compaction always does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .base import INTEGRITY, record_crc_ok
from .local import LocalShardedStore, decode_record


@dataclass(frozen=True)
class ScrubIssue:
    """One damaged record, pinpointed for the operator."""

    stream: str
    location: str          # shard file name
    offset: Optional[int]  # byte offset of the damaged line, if any
    kind: str              # corrupt | torn | mismatched
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
    corrupt: int = 0
    torn: int = 0
    mismatched: int = 0
    issues: List[ScrubIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.issues

    def to_dict(self) -> Dict[str, Any]:
        return {"stream": self.stream, "records": self.records,
                "live": self.live, "corrupt": self.corrupt,
                "torn": self.torn, "mismatched": self.mismatched,
                "issues": [i.to_dict() for i in self.issues]}


@dataclass
class VerifyReport:
    """Whole-store verification outcome."""

    backend: str
    root: str
    streams: List[StreamScrubReport] = field(default_factory=list)

    def issues(self) -> Iterator[ScrubIssue]:
        for report in self.streams:
            yield from report.issues

    @property
    def flagged(self) -> int:
        return sum(1 for _ in self.issues())

    @property
    def clean(self) -> bool:
        return next(self.issues(), None) is None

    def to_dict(self) -> Dict[str, Any]:
        return {"backend": self.backend, "root": self.root,
                "clean": self.clean, "flagged": self.flagged,
                "streams": [s.to_dict() for s in self.streams]}


@dataclass
class RepairReport:
    """What one ``--repair`` pass purged."""

    dropped: int = 0          # damaged lines compacted away

    def to_dict(self) -> Dict[str, int]:
        return {"dropped": self.dropped}


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
            if not record_crc_ok(record):
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


def verify_store(store: LocalShardedStore,
                 streams: Optional[Tuple[str, ...]] = None) -> VerifyReport:
    """Verify every stream of a store.  Detection only — nothing on
    disk changes."""
    if streams is None:
        streams = store.streams()
    report = VerifyReport(backend=store.describe(), root=store.root,
                          streams=[scrub_stream(store, s)
                                   for s in streams])
    INTEGRITY.inc("scrub_runs")
    flagged = report.flagged
    if flagged:
        INTEGRITY.inc("scrub_flagged", flagged)
    return report


# ----------------------------------------------------------------------
# repair
# ----------------------------------------------------------------------
def repair_store(store: LocalShardedStore,
                 streams: Optional[Tuple[str, ...]] = None) -> RepairReport:
    """Heal what :func:`verify_store` flagged: compact every stream,
    which rewrites each shard without its corrupt/torn/mismatched
    lines."""
    if streams is None:
        streams = store.streams()
    report = RepairReport()
    for stream in streams:
        compaction = store.compact(stream)
        report.dropped += (compaction.dropped_corrupt
                           + compaction.dropped_mismatched)
    if report.dropped:
        INTEGRITY.inc("scrub_repaired", report.dropped)
    return report
