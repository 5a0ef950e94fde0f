"""The storage fsck: line-level verification.

``repro store verify`` drives :func:`verify_store` over every stream of
the store (the serve journal is just another stream, so it is covered)
and reports each damaged record with shard + byte-offset diagnostics.
It only detects: ``repro store compact`` rewrites every shard and the
damage is dropped (an earlier valid put for the same key survives).
Every stored artifact is a deterministic recompute, so a dropped record
is recomputed on its next miss, never restored.

The scrubber replays each shard with the same walk the index scan and
compaction use (:class:`~repro.storage.local.ShardReplay`), so it
classifies exactly the lines a reader skips: ``corrupt`` (not in the
current line format, earlier schema versions included), ``torn`` (a
final line without its newline) and ``mismatched`` (a line whose crc
fails; named by its key when the key still parses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .base import INTEGRITY, STORAGE_SCHEMA
from .local import LocalShardedStore, ShardReplay


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
    records: int = 0     # lines in the current format, damaged or not
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
    live = set()
    for path in store.shard_paths(stream):
        replay = ShardReplay(path.read_bytes())
        report.records += replay.records
        live.update(replay.live)
        for kind, offset, end, key in replay.damaged:
            if kind == "torn":
                report.torn += 1
                detail = f"final line has no newline ({end - offset} bytes)"
            elif kind == "corrupt":
                report.corrupt += 1
                detail = (f"not a schema-{STORAGE_SCHEMA} line "
                          f"({end - offset} bytes)")
            else:
                report.mismatched += 1
                detail = ("crc mismatch" if key is None
                          else f"crc mismatch for key {key!r}")
            report.issues.append(
                ScrubIssue(stream, path.name, offset, kind, detail))
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

