"""Deterministic fault injection (``REPRO_FAULTS``).

Every robustness claim the serve daemon makes — retries recover from
flaky backends, breakers trip on persistent failure, deadlines cancel
stalls — is exercised against *injected* faults, not asserted.  A
fault plan is a seeded, counted schedule of failures keyed by call
site, so every test run sees exactly the same faults in exactly the
same order.

Spec grammar (``REPRO_FAULTS`` or :func:`FaultPlan.parse`)::

    clause[;clause...]
    clause  := site:kind[:key=value...]
    site    := llm.generate | worker.execute | <any string>
    kind    := raise | timeout | malformed | delay      (in-process)
             | kill | oom | hang | exit                 (process-level)
             | bitflip | truncate | garbage             (data corruption)

    keys: times=N    inject on the first N matching calls (default: 1)
          always     inject on every matching call
          every=K    inject on every Kth matching call (1-based)
          after=N    skip the first N matching calls
          seconds=S  sleep S seconds (delay default 0.05; hang 3600)
          code=N     exit status for kind exit (default 3)
          mb=N       allocation target for kind oom (default 512)
          bytes=N    bytes chopped off by kind truncate (default 4)

Examples::

    REPRO_FAULTS="llm.generate:raise:times=2"
    REPRO_FAULTS="llm.generate:delay:seconds=0.2:always"
    REPRO_FAULTS="worker.execute:kill:after=1;worker.execute:oom:mb=64"
    REPRO_FAULTS="store.append:bitflip:times=1"

The data-corruption kinds (:data:`DATA_KINDS`) transform bytes in
flight rather than failing a call: store-write sites pass each encoded
record through :func:`corrupt_bytes` so a scheduled ``bitflip`` /
``truncate`` / ``garbage`` clause damages exactly the bytes that reach
the shard file — deterministically (the flip offset derives from the
record's own crc32), which is how the scrub/repair paths are exercised
end to end.

Faults raised here carry ``transient = True`` so the resilience layer
(:mod:`repro.api.resilience`) retries them; ``delay`` sleeps through
:func:`repro.cancellation.sleep_interruptible` so deadlines and drain
interrupt an injected stall.

The process-level kinds (:data:`PROCESS_KINDS`) take the whole process
down — SIGKILL itself, allocate until ``MemoryError``, sleep
uninterruptibly, or ``os._exit``.  :meth:`FaultPlan.check` deliberately
*skips* them so an in-process call site can never kill the daemon or a
test runner: they only fire inside supervised worker processes, where
the parent (:mod:`repro.serve.supervisor`) decides what is due at
dispatch time via :meth:`FaultPlan.due` and ships the clauses to the
worker, which executes them with :func:`apply_clause`.  Keeping the
schedule accounting on the parent side makes the schedule deterministic
across worker crashes and restarts — a replacement worker does not
restart the counters.

The injected LLM backend is the ``"faulty"`` entry of ``LLM_BACKENDS``
(see :func:`register_fault_backends`): it wraps the ``simulated``
backend and consults the active plan before each ``generate`` call —
faults fire *before* the inner model consumes any randomness, so a
retried call returns the byte-identical response a fault-free run
produces.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..cancellation import sleep_interruptible

#: kinds that fail the *call* (raise/sleep in the calling process)
INPROCESS_KINDS = ("raise", "timeout", "malformed", "delay")
#: kinds that take the *process* down; executed only inside supervised
#: worker processes (see module docstring)
PROCESS_KINDS = ("kill", "oom", "hang", "exit")
#: kinds that corrupt bytes in flight at store-write sites
DATA_KINDS = ("bitflip", "truncate", "garbage")
KINDS = INPROCESS_KINDS + PROCESS_KINDS + DATA_KINDS

#: exit status a worker uses to report death by memory exhaustion
#: (injected oom or a real MemoryError under RLIMIT_AS)
EXIT_OOM = 86


class FaultInjected(ConnectionError):
    """An injected transient backend failure."""

    transient = True


class FaultTimeout(TimeoutError):
    """An injected backend timeout."""

    transient = True


class MalformedReply(ValueError):
    """An injected unparseable/garbage backend reply."""

    transient = True

    def __init__(self, site: str, payload: str) -> None:
        super().__init__(f"malformed reply from {site}: {payload!r}")
        self.payload = payload


@dataclass(frozen=True)
class FaultClause:
    """One parsed ``site:kind[:opts]`` clause."""

    site: str
    kind: str
    times: Optional[int] = 1   # None = always
    every: Optional[int] = None
    after: int = 0
    seconds: float = 0.05
    code: int = 3              # kind exit
    megabytes: int = 512       # kind oom
    nbytes: int = 4            # kind truncate

    def fires(self, call_index: int, injected_so_far: int) -> bool:
        """Decide for the ``call_index``-th (0-based) matching call."""
        if call_index < self.after:
            return False
        if self.every is not None:
            return (call_index - self.after + 1) % self.every == 0
        if self.times is None:
            return True
        return injected_so_far < self.times


def _parse_clause(text: str) -> FaultClause:
    parts = [p for p in text.strip().split(":") if p]
    if len(parts) < 2:
        raise ValueError(
            f"fault clause {text!r} needs at least site:kind")
    site, kind = parts[0], parts[1]
    if kind not in KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; choose from {', '.join(KINDS)}")
    options: Dict[str, Any] = {}
    for opt in parts[2:]:
        key, sep, value = opt.partition("=")
        if not sep:
            if key == "always":
                options["times"] = None
                continue
            raise ValueError(f"bad fault option {opt!r} in {text!r}")
        if key == "times":
            options["times"] = int(value)
        elif key == "every":
            options["every"] = int(value)
        elif key == "after":
            options["after"] = int(value)
        elif key == "seconds":
            options["seconds"] = float(value)
        elif key == "code":
            options["code"] = int(value)
        elif key in ("mb", "megabytes"):
            options["megabytes"] = int(value)
        elif key == "bytes":
            options["nbytes"] = int(value)
        else:
            raise ValueError(f"unknown fault option {key!r} in {text!r}")
    if kind == "hang":
        # a hang must outlive any plausible watchdog timeout, not the
        # 50ms delay default
        options.setdefault("seconds", 3600.0)
    return FaultClause(site=site, kind=kind, **options)


class FaultPlan:
    """A parsed spec plus per-clause call/injection counters.

    Counters are plan-global and lock-guarded: with a deterministic
    call order the injected faults are deterministic too, which is the
    whole point — ``repro serve`` under ``REPRO_FAULTS`` replays the
    same failure schedule on every run.
    """

    def __init__(self, clauses: List[FaultClause]) -> None:
        self.clauses = list(clauses)
        self._lock = threading.Lock()
        self._calls: Dict[int, int] = {i: 0 for i in range(len(clauses))}
        self._injected: Dict[int, int] = dict(self._calls)

    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        clauses = [_parse_clause(c) for c in spec.split(";")
                   if c.strip()]
        return FaultPlan(clauses)

    def describe(self) -> List[dict]:
        docs = []
        for c in self.clauses:
            doc = {"site": c.site, "kind": c.kind, "times": c.times,
                   "every": c.every, "after": c.after,
                   "seconds": c.seconds}
            if c.kind == "exit":
                doc["code"] = c.code
            if c.kind == "oom":
                doc["megabytes"] = c.megabytes
            if c.kind == "truncate":
                doc["bytes"] = c.nbytes
            docs.append(doc)
        return docs

    # ------------------------------------------------------------------
    def due(self, site: str) -> List[FaultClause]:
        """Consume one ``site`` call and return the clauses it owes.

        This *is* the schedule: each call advances the per-clause call
        counters under the lock.  :meth:`check` executes the returned
        clauses in-process; the worker supervisor instead ships them to
        a worker process (parent-side accounting keeps the schedule
        deterministic across worker restarts).
        """
        due: List[FaultClause] = []
        with self._lock:
            for i, clause in enumerate(self.clauses):
                if clause.site != site:
                    continue
                index = self._calls[i]
                self._calls[i] += 1
                if clause.fires(index, self._injected[i]):
                    self._injected[i] += 1
                    due.append(clause)
        return due

    def check(self, site: str) -> None:
        """Inject whatever the plan owes this ``site`` call.

        ``delay`` clauses sleep (interruptibly) and fall through; the
        raising kinds abort the call with their transient exception.
        Process-level kinds are skipped — only a supervised worker may
        execute those (an in-process site must never kill the daemon).
        Data-corruption kinds are skipped too: they only make sense
        where bytes flow through (see :func:`corrupt_bytes`).
        """
        for clause in self.due(site):
            if clause.kind in PROCESS_KINDS or clause.kind in DATA_KINDS:
                continue
            apply_clause(clause, site)

    def counts(self) -> Tuple[Tuple[str, int, int], ...]:
        """(site/kind, calls seen, faults injected) per clause."""
        with self._lock:
            return tuple(
                (f"{c.site}:{c.kind}", self._calls[i], self._injected[i])
                for i, c in enumerate(self.clauses))


# ----------------------------------------------------------------------
# the active plan: explicit install beats the environment
# ----------------------------------------------------------------------
_ACTIVE_LOCK = threading.Lock()
_ACTIVE_PLAN: Optional[FaultPlan] = None
_ENV_CACHE: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Pin the active plan (tests); ``None`` returns to the env spec."""
    global _ACTIVE_PLAN
    with _ACTIVE_LOCK:
        _ACTIVE_PLAN = plan


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else one parsed from ``REPRO_FAULTS``.

    The env-derived plan is cached per spec string so its counters
    persist across calls (a fresh parse per call would reset ``times``
    budgets and make every call the "first").
    """
    global _ENV_CACHE
    with _ACTIVE_LOCK:
        if _ACTIVE_PLAN is not None:
            return _ACTIVE_PLAN
        spec = os.environ.get("REPRO_FAULTS")
        if not spec:
            return None
        cached_spec, cached_plan = _ENV_CACHE
        if cached_spec != spec:
            _ENV_CACHE = (spec, FaultPlan.parse(spec))
        return _ENV_CACHE[1]


def maybe_fault(site: str) -> None:
    """Checkpoint for injectable call sites: no active plan = no-op."""
    plan = active_plan()
    if plan is not None:
        plan.check(site)


def corrupt_data(clause: FaultClause, data: bytes) -> bytes:
    """Apply one data-corruption clause to ``data``.

    * ``bitflip``  flips one bit at a content-derived offset (the
      record's own crc32 modulo its length), sparing the final byte so
      a trailing record separator survives — the damage lands *inside*
      the line, exactly what the integrity envelope must catch.
    * ``truncate`` chops ``bytes=N`` off the end (a torn write).
    * ``garbage``  replaces the data with a fixed unparseable line.

    All three are pure functions of (clause, data): the same scheduled
    fault corrupts the same bytes on every run.
    """
    if clause.kind == "bitflip":
        if len(data) < 2:
            return data
        offset = zlib.crc32(data) % (len(data) - 1)
        flipped = bytearray(data)
        flipped[offset] ^= 0x01
        return bytes(flipped)
    if clause.kind == "truncate":
        return data[:max(0, len(data) - clause.nbytes)]
    if clause.kind == "garbage":
        return b"<<garbage 0xDEADBEEF>>\n"
    raise ValueError(f"not a data fault kind: {clause.kind!r}")


def corrupt_bytes(site: str, data: bytes) -> bytes:
    """Run ``data`` through whatever the plan owes this write ``site``.

    Data-corruption clauses transform the bytes; in-process clauses
    (``raise``/``timeout``/...) still abort the call; process-level
    clauses are skipped, as in :meth:`FaultPlan.check`.  With no active
    plan the bytes pass through untouched.
    """
    plan = active_plan()
    if plan is None:
        return data
    for clause in plan.due(site):
        if clause.kind in DATA_KINDS:
            data = corrupt_data(clause, data)
        elif clause.kind in INPROCESS_KINDS:
            apply_clause(clause, site)
    return data


# ----------------------------------------------------------------------
# clause execution
# ----------------------------------------------------------------------
def apply_process_fault(clause: FaultClause) -> None:
    """Execute a process-level clause in the *current* process.

    Only a supervised worker should call this (directly or through
    :func:`apply_clause`): ``kill``/``exit`` terminate the process,
    ``hang`` sleeps uninterruptibly (the watchdog must reap it), and
    ``oom`` allocates up to ``clause.megabytes`` and then raises
    ``MemoryError`` even if every allocation succeeded — with
    ``RLIMIT_AS`` set the limit fires first, without it the explicit
    raise keeps the fault deterministic instead of gambling on the
    host's memory.
    """
    if clause.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif clause.kind == "exit":
        os._exit(clause.code)
    elif clause.kind == "hang":
        # plain sleep on purpose: a hung worker must NOT cooperate with
        # cancellation, otherwise the watchdog path is never exercised
        time.sleep(clause.seconds)
    elif clause.kind == "oom":
        chunk_mb = 32
        hoard = []
        remaining = clause.megabytes
        while remaining > 0:
            hoard.append(bytearray(chunk_mb * 1024 * 1024))
            remaining -= chunk_mb
        del hoard
        raise MemoryError(
            f"injected oom: allocated ~{clause.megabytes}MB without "
            f"hitting a limit")
    else:
        raise ValueError(f"not a process fault kind: {clause.kind!r}")


def apply_clause(clause: FaultClause, site: str) -> None:
    """Execute one due clause (any kind) in the current process."""
    if clause.kind == "delay":
        sleep_interruptible(clause.seconds)
    elif clause.kind == "timeout":
        raise FaultTimeout(f"injected timeout at {site}")
    elif clause.kind == "malformed":
        raise MalformedReply(site, "<<<garbage reply 0xDEAD")
    elif clause.kind == "raise":
        raise FaultInjected(f"injected failure at {site}")
    else:
        apply_process_fault(clause)


# ----------------------------------------------------------------------
# injected components
# ----------------------------------------------------------------------
class FaultyLLM:
    """The ``simulated`` backend behind a fault-injection valve.

    Faults fire before the inner session is touched, so whenever a call
    does go through, its response — and all downstream pipeline state —
    is byte-identical to a fault-free run.
    """

    SITE = "llm.generate"

    def __init__(self, inner: Any) -> None:
        self._inner = inner

    def generate(self, prompt: Any, k: int, round_tag: str = "r0") -> Any:
        maybe_fault(self.SITE)
        return self._inner.generate(prompt, k, round_tag)

    def note_result(self, k: int, passed: bool) -> None:
        self._inner.note_result(k, passed)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def register_fault_backends() -> None:
    """Add LLM backend ``"faulty"`` — ``simulated`` behind the valve —
    to :data:`repro.llm.LLM_BACKENDS` (idempotent).

    Called lazily (serve daemon startup, tests) rather than at import
    time so the default table lists only real components.
    """
    from ..llm import LLM_BACKENDS

    def faulty_backend(persona: Any, seed: int) -> FaultyLLM:
        return FaultyLLM(LLM_BACKENDS["simulated"](persona, seed))

    LLM_BACKENDS["faulty"] = faulty_backend
