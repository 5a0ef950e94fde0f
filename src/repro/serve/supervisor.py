"""The one worker pool: supervised, forked worker processes.

An in-process execution path is fast but fragile: one segfaulting
kernel, one runaway allocation, one hung toolchain call takes every
session in the process — and the HTTP front door — down with it.  So
``repro serve --workers N`` dispatches each admitted request, and
:func:`repro.api.session.optimize_batch` (``optimize_many``,
``serve-batch --jobs``, ``repro bench -j``) each batch's store misses,
to a pool of **forked worker processes** supervised by this module.
The caller's ``session_for(job)`` resolver runs in the worker and
names the job's session.

* each worker applies its address-space limit at boot
  (``RLIMIT_AS`` via :mod:`resource`) and then serves one job at a
  time over a duplex pipe, running the exact same
  ``OptimizerSession.optimize`` the in-process path runs and replying
  with the result's store payload — results are byte-identical by
  construction (pinned by equivalence tests);
* a **watchdog** thread heartbeats the pool: a worker busy past the
  hang timeout is killed (SIGKILL) and counted as a hang, a worker
  found dead is reaped, and replacements are forked with exponential
  backoff so a crash-looping environment cannot melt the host;
* a worker dying mid-request surfaces as :class:`WorkerCrashed` —
  mapped to a ``500`` with the crash reason — and *never* as a daemon
  death;
* a request signature that keeps crashing workers is quarantined by
  :class:`QuarantineRegistry` (``422`` with diagnostics) so one poison
  kernel cannot grind the pool through endless restarts.

Determinism note: injected process faults (``worker.execute:kill`` and
friends, see :mod:`repro.testing.faults`) are scheduled on the *parent*
side — the supervisor asks the active plan what is due at dispatch time
and ships the clauses with the job — so the fault schedule survives
worker restarts instead of resetting with each fresh process.

Fork caveat: replacement workers are forked from the watchdog thread
while request threads run, and a batch forks its pool from whichever
thread runs the batch.  A child drops every event subscriber it
inherited (:mod:`repro.api.events`) and touches only fork-tolerant
state before its first job (pipe, rlimits, signal disposition), so the
usual forked-locks hazard is confined to the same narrow windows every
``multiprocessing``-based pool accepts.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import multiprocessing.connection
import os
import queue
import signal
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..api.session import OptimizationResult, OptimizerSession
from ..cancellation import Cancelled, CancelToken, cancelled_from
from ..testing.faults import (EXIT_OOM, FaultClause, active_plan,
                              apply_clause)

logger = logging.getLogger("repro.serve.supervisor")

#: runs in the worker: the session a job runs on
SessionFor = Callable[[Dict[str, Any]], OptimizerSession]

#: fault-plan site consumed once per dispatched job
WORKER_SITE = "worker.execute"

_CTX = multiprocessing.get_context("fork")

#: seconds between watchdog passes
POLL_INTERVAL = 0.1
#: seconds a worker gets to unwind after a parent-side cancellation
CANCEL_GRACE = 0.5
#: seconds before a crashed worker is replaced, doubled per consecutive
#: crash up to RESTART_CAP
RESTART_BASE = 0.25
RESTART_CAP = 5.0


class WorkerCrashed(Exception):
    """A worker process died (or was killed) while running a request."""

    def __init__(self, message: str, reason: str = "crash",
                 exitcode: Optional[int] = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.exitcode = exitcode


class _RemoteFailure(Exception):
    """A structured in-worker exception relayed over the pipe."""

    def __init__(self, info: Dict[str, Any]) -> None:
        super().__init__(info.get("message", "worker failure"))
        self.info = info
        self.transient = bool(info.get("transient"))
        #: original exception type name, for honest error messages
        self.remote_type = info.get("type", "Exception")


def _raise_remote(info: Dict[str, Any]) -> None:
    """Re-raise a worker's ("err", info) as the matching parent type."""
    kind = info.get("kind")
    if kind == "cancelled":
        exc = cancelled_from(info.get("reason", "cancelled"),
                             info.get("message", "request cancelled"))
        # the worker unwound cooperatively and is healthy — the
        # dispatcher must not kill it like a parent-side cancellation
        exc.from_worker = True
        raise exc
    if kind == "breaker_open":
        from ..api.resilience import CircuitOpenError
        raise CircuitOpenError(info.get("site", "?"),
                               float(info.get("retry_after", 1.0)))
    raise _RemoteFailure(info)


# ----------------------------------------------------------------------
# the worker side (runs in the forked child)
# ----------------------------------------------------------------------
def _apply_rlimits(memory_mb: int) -> Dict[str, int]:
    import resource
    applied = {}
    if memory_mb > 0:
        limit = memory_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        applied["rlimit_as_mb"] = memory_mb
    return applied


def _worker_run_job(conn, session_for: SessionFor,
                    job: Dict[str, Any]) -> None:
    from ..api.resilience import RESILIENCE_BUS
    for clause in job.get("faults", ()):
        # may SIGKILL/_exit/hang/raise; scheduled by the parent
        apply_clause(clause, WORKER_SITE)
    session = session_for(job)
    token = CancelToken.with_timeout(job.get("deadline"))
    unsubscribes = []

    def forward_stat(event) -> None:
        conn.send(("stat", event.kind))

    unsubscribes.append(RESILIENCE_BUS.subscribe(forward_stat))
    if job.get("stream"):
        def forward_event(event) -> None:
            conn.send(("event", event.to_dict()))
        unsubscribes.append(session.events.subscribe(forward_event))
        unsubscribes.append(RESILIENCE_BUS.subscribe(forward_event))
    try:
        result = session.optimize(job["request"],
                                  use_store=job.get("use_store"),
                                  cancel=token)
    finally:
        for unsubscribe in unsubscribes:
            unsubscribe()
    conn.send(("ok", {"payload": result.to_payload(),
                      "from_cache": result.from_cache}))


def _worker_main(conn, inherited, memory_mb: int,
                 session_for: SessionFor) -> None:
    from ..api.resilience import CircuitOpenError, is_transient
    # fork copied the parent-side ends of this worker's pipe and of
    # every earlier worker's; while the child holds them, its own recv()
    # never sees EOF when the daemon dies, and the worker outlives it
    for parent_end in inherited:
        parent_end.close()
    # Ctrl+C belongs to the daemon's drain logic, not to the pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    applied = _apply_rlimits(memory_mb)
    try:
        conn.send(("ready", dict(applied, pid=os.getpid())))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] != "job":
                continue
            try:
                _worker_run_job(conn, session_for, message[1])
            except MemoryError:
                # the address-space limit (or an injected oom) hit;
                # the heap is untrustworthy now — report via exit code
                os._exit(EXIT_OOM)
            except Cancelled as exc:
                conn.send(("err", {
                    "kind": "cancelled", "reason": exc.reason,
                    "message": str(exc)}))
            except CircuitOpenError as exc:
                conn.send(("err", {
                    "kind": "breaker_open", "message": str(exc),
                    "site": exc.site, "retry_after": exc.retry_after}))
            except Exception as exc:
                conn.send(("err", {
                    "kind": "failure", "transient": is_transient(exc),
                    "type": type(exc).__name__, "message": str(exc)}))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away (or drain); just exit
    os._exit(0)


# ----------------------------------------------------------------------
# the parent side
# ----------------------------------------------------------------------
class _WorkerHandle:
    __slots__ = ("index", "generation", "proc", "conn", "busy_since",
                 "signature", "kill_reason", "jobs_done")

    def __init__(self, index: int, generation: int, proc, conn) -> None:
        self.index = index
        self.generation = generation
        self.proc = proc
        self.conn = conn
        self.busy_since: Optional[float] = None
        self.signature: Optional[str] = None
        self.kill_reason: Optional[str] = None
        self.jobs_done = 0

    @property
    def name(self) -> str:
        return f"worker-{self.index}.g{self.generation}"


class QuarantineRegistry:
    """Crash bookkeeping per request signature; poison gets 422'd.

    A signature whose jobs crash workers ``limit`` times is quarantined:
    further submissions are rejected with diagnostics instead of being
    allowed to grind the pool through another crash/restart cycle.
    Operators inspect via ``GET /quarantine`` (and the ``/metrics``
    quarantine gauge) and release via ``POST /quarantine/clear``.
    """

    def __init__(self, limit: int) -> None:
        self.limit = max(1, limit)
        self._lock = threading.Lock()
        self._entries: Dict[str, Dict[str, Any]] = {}

    def note_crash(self, signature: str, reason: str,
                   message: str) -> Dict[str, Any]:
        """Record one crash; returns the (possibly quarantined) entry."""
        with self._lock:
            entry = self._entries.setdefault(signature, {
                "signature": signature, "crashes": 0,
                "quarantined": False})
            entry["crashes"] += 1
            entry["last_reason"] = reason
            entry["last_error"] = message
            if entry["crashes"] >= self.limit:
                entry["quarantined"] = True
            return dict(entry)

    def lookup(self, signature: str) -> Optional[Dict[str, Any]]:
        """The entry iff this signature is quarantined."""
        with self._lock:
            entry = self._entries.get(signature)
            if entry and entry["quarantined"]:
                return dict(entry)
            return None

    def note_success(self, signature: str) -> None:
        """A clean completion clears sub-limit suspicion."""
        with self._lock:
            entry = self._entries.get(signature)
            if entry and not entry["quarantined"]:
                self._entries.pop(signature, None)

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return sorted((dict(e) for e in self._entries.values()
                           if e["quarantined"]),
                          key=lambda e: e["signature"])

    def clear(self, signature: Optional[str] = None) -> int:
        """Release one signature (or all); returns how many."""
        with self._lock:
            if signature is not None:
                return 1 if self._entries.pop(signature, None) else 0
            count = sum(1 for e in self._entries.values()
                        if e["quarantined"])
            self._entries.clear()
            return count

    @property
    def count(self) -> int:
        with self._lock:
            return sum(1 for e in self._entries.values()
                       if e["quarantined"])


class WorkerSupervisor:
    """Owns the pool: dispatch, watchdog, reaping, backoff restarts.

    Workers are forked, so ``session_for`` and everything it closes over
    are inherited, never pickled — by replacement workers too.
    ``memory_mb`` caps each worker's address space (0 = unlimited); a
    worker busy longer than ``hang_timeout`` seconds is killed, and a
    crashed worker is replaced after ``RESTART_BASE`` seconds, doubled
    per consecutive crash up to ``RESTART_CAP``.
    """

    def __init__(self, workers: int, session_for: SessionFor,
                 memory_mb: int = 0, hang_timeout: float = 300.0) -> None:
        self.size = max(1, workers)
        self.session_for = session_for
        self.memory_mb = memory_mb
        self.hang_timeout = hang_timeout
        self._idle: "queue.Queue[_WorkerHandle]" = queue.Queue()
        self._lock = threading.Lock()
        self._workers: Dict[int, _WorkerHandle] = {}
        self._generations: Dict[int, int] = {}
        self._consecutive_crashes: Dict[int, int] = {}
        self._restart_due: Dict[int, float] = {}
        self._stopping = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        self.crashes_total = 0
        self.restarts_total = 0
        self.hangs_total = 0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        for index in range(self.size):
            self._spawn(index)
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-worker-watchdog", daemon=True)
        self._watchdog.start()

    def _spawn(self, index: int) -> None:
        generation = self._generations.get(index, -1) + 1
        self._generations[index] = generation
        parent_conn, child_conn = _CTX.Pipe(duplex=True)
        with self._lock:
            inherited = [parent_conn] + [
                h.conn for h in self._workers.values()]
        proc = _CTX.Process(
            target=_worker_main,
            args=(child_conn, inherited, self.memory_mb,
                  self.session_for),
            name=f"repro-worker-{index}", daemon=True)
        proc.start()
        child_conn.close()
        handle = _WorkerHandle(index, generation, proc, parent_conn)
        # boot handshake: fork + rlimit application is milliseconds
        if parent_conn.poll(30.0):
            try:
                message = parent_conn.recv()
                if message[0] == "ready":
                    logger.info("%s ready: %s", handle.name, message[1])
            except (EOFError, OSError):
                pass
        with self._lock:
            self._workers[index] = handle
        self._idle.put(handle)

    def shutdown(self) -> None:
        self._stopping.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=2.0)
        with self._lock:
            handles = list(self._workers.values())
            self._workers.clear()
        for handle in handles:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 5.0
        for handle in handles:
            handle.proc.join(max(0.1, deadline - time.monotonic()))
            if handle.proc.is_alive():
                _kill(handle.proc)
                handle.proc.join(1.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    # -- dispatch -------------------------------------------------------
    def execute(self, job: Dict[str, Any],
                token: Optional[CancelToken] = None,
                on_event: Optional[Callable[[Dict[str, Any]], None]]
                = None,
                on_stat: Optional[Callable[[str], None]] = None
                ) -> OptimizationResult:
        """Run one job on a pooled worker; returns its result, rebuilt
        from the worker's store payload as a store hit is.

        Raises :class:`WorkerCrashed` if the worker dies mid-job, the
        re-raised worker exception if the job failed in-worker, or
        :class:`~repro.cancellation.Cancelled` if ``token`` fires.  On
        a parent-side cancellation the worker gets ``CANCEL_GRACE``
        seconds to unwind cooperatively (its own deadline token fires
        too); a worker that stays silent is presumed stuck and killed.
        """
        job = dict(job)
        job.setdefault("faults", self._due_faults())
        handle = self._acquire(token)
        handle.busy_since = time.monotonic()
        handle.signature = job.get("signature")
        crashed: Optional[WorkerCrashed] = None
        try:
            try:
                handle.conn.send(("job", job))
                reply = self._await_result(handle, token, on_event,
                                           on_stat)
            except WorkerCrashed as exc:
                crashed = exc
                raise
            except (BrokenPipeError, OSError) as exc:
                crashed = self._crash_of(handle, context=str(exc))
                raise crashed from exc
            except Cancelled as exc:
                if not getattr(exc, "from_worker", False) \
                        and not self._await_unwind(handle):
                    # silent past the grace: presumed stuck, kill it
                    handle.kill_reason = "cancelled mid-job"
                    _kill(handle.proc)
                    crashed = self._crash_of(handle)
                raise
        finally:
            handle.busy_since = None
            handle.signature = None
            if crashed is not None:
                self._reap(handle)
            else:
                handle.jobs_done += 1
                with self._lock:
                    self._consecutive_crashes[handle.index] = 0
                self._idle.put(handle)
        result = OptimizationResult.from_payload(job["request"],
                                                 reply["payload"])
        return dataclasses.replace(result, from_cache=reply["from_cache"])

    def _await_result(self, handle: _WorkerHandle,
                      token: Optional[CancelToken],
                      on_event, on_stat) -> Dict[str, Any]:
        while True:
            try:
                has_message = handle.conn.poll(0.05)
            except (BrokenPipeError, OSError):
                has_message = False
            if has_message:
                try:
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    raise self._crash_of(handle)
                op = message[0]
                if op == "ok":
                    return message[1]
                if op == "err":
                    _raise_remote(message[1])
                if op == "event" and on_event is not None:
                    try:
                        on_event(message[1])
                    except Exception:
                        # client sink broke; stop forwarding and let
                        # the token (cancelled by the caller) unwind us
                        on_event = None
                elif op == "stat" and on_stat is not None:
                    on_stat(message[1])
                continue
            if not handle.proc.is_alive():
                if handle.conn.poll(0):
                    continue  # drain the final buffered message first
                raise self._crash_of(handle)
            if token is not None:
                token.check()  # deadline/drain/disconnect -> Cancelled

    def _await_unwind(self, handle: _WorkerHandle) -> bool:
        """Grace window after a parent-side cancellation.

        The job shipped the request deadline, so a healthy worker's own
        token fires around the same time as the parent's — give it
        ``CANCEL_GRACE`` seconds to finish the job message ("ok" or
        "err", late events are discarded) and be reused warm.  Returns
        False if the worker stayed silent or died: the caller kills it.
        """
        end = time.monotonic() + CANCEL_GRACE
        while time.monotonic() < end:
            if not handle.proc.is_alive():
                return False
            try:
                if not handle.conn.poll(0.02):
                    continue
                message = handle.conn.recv()
            except (EOFError, OSError):
                return False
            if message[0] in ("ok", "err"):
                return True
        return False

    def _acquire(self, token: Optional[CancelToken]) -> _WorkerHandle:
        while True:
            if self._stopping.is_set():
                raise WorkerCrashed("worker pool is shut down",
                                    reason="stopped")
            try:
                handle = self._idle.get(timeout=0.05)
            except queue.Empty:
                if token is not None:
                    token.check()
                continue
            if not handle.proc.is_alive():
                self._reap(handle)
                continue
            return handle

    def _due_faults(self) -> List[FaultClause]:
        plan = active_plan()
        if plan is None:
            return []
        return plan.due(WORKER_SITE)

    # -- crash accounting ----------------------------------------------
    def _crash_of(self, handle: _WorkerHandle,
                  context: str = "") -> WorkerCrashed:
        handle.proc.join(timeout=2.0)
        exitcode = handle.proc.exitcode
        if handle.kill_reason:
            reason, detail = "hang", handle.kill_reason
            if "cancel" in handle.kill_reason:
                reason = "cancelled"
        elif exitcode == EXIT_OOM:
            reason = "oom"
            detail = ("out of memory"
                      + (f" (RLIMIT_AS={self.memory_mb}MB)"
                         if self.memory_mb else ""))
        elif exitcode is not None and exitcode < 0:
            reason = "killed"
            try:
                signame = signal.Signals(-exitcode).name
            except ValueError:
                signame = str(-exitcode)
            detail = f"killed by {signame}"
        else:
            reason = "exit"
            detail = f"exited with code {exitcode}"
        if context:
            detail = f"{detail} ({context})"
        return WorkerCrashed(
            f"{handle.name} {detail} while running a request",
            reason=reason, exitcode=exitcode)

    def _reap(self, handle: _WorkerHandle) -> None:
        """Retire a dead/killed worker and schedule its replacement."""
        if not handle.proc.is_alive():
            handle.proc.join(timeout=1.0)
        else:
            _kill(handle.proc)
            handle.proc.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        with self._lock:
            if self._workers.get(handle.index) is not handle:
                return  # already replaced
            del self._workers[handle.index]
            self.crashes_total += 1
            crashes = self._consecutive_crashes.get(handle.index, 0) + 1
            self._consecutive_crashes[handle.index] = crashes
            delay = min(RESTART_CAP, RESTART_BASE * (2 ** (crashes - 1)))
            self._restart_due[handle.index] = time.monotonic() + delay
        logger.warning("%s reaped (%d consecutive crashes); restart in "
                       "%.2fs", handle.name, crashes, delay)

    # -- watchdog -------------------------------------------------------
    def _watch(self) -> None:
        while not self._stopping.wait(POLL_INTERVAL):
            now = time.monotonic()
            with self._lock:
                handles = list(self._workers.values())
                due = [index for index, when in self._restart_due.items()
                       if when <= now]
            # 1. hung busy workers: kill; the owning request thread
            #    observes the death and reports the 500
            for handle in handles:
                busy_since = handle.busy_since
                if (busy_since is not None and self.hang_timeout > 0
                        and now - busy_since > self.hang_timeout
                        and handle.kill_reason is None
                        and handle.proc.is_alive()):
                    handle.kill_reason = (
                        f"hung (busy > {self.hang_timeout:.1f}s), "
                        f"killed by watchdog")
                    self.hangs_total += 1
                    logger.warning("%s %s", handle.name,
                                   handle.kill_reason)
                    _kill(handle.proc)
            # 2. idle workers that died on their own: reap them now so
            #    the backoff clock starts before anyone needs a slot
            idle_snapshot: List[_WorkerHandle] = []
            try:
                while True:
                    idle_snapshot.append(self._idle.get_nowait())
            except queue.Empty:
                pass
            for handle in idle_snapshot:
                if handle.proc.is_alive():
                    self._idle.put(handle)
                else:
                    self._reap(handle)
            # 3. replacements whose backoff has expired
            for index in due:
                with self._lock:
                    if self._workers.get(index) is not None:
                        self._restart_due.pop(index, None)
                        continue
                    self._restart_due.pop(index, None)
                self._spawn(index)
                self.restarts_total += 1
                logger.info("worker-%d restarted", index)

    # -- observability --------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        with self._lock:
            handles = list(self._workers.values())
            pending = len(self._restart_due)
        return {
            "pool": self.size,
            "alive": sum(1 for h in handles if h.proc.is_alive()),
            "busy": sum(1 for h in handles
                        if h.busy_since is not None),
            "restart_pending": pending,
            "crashes_total": self.crashes_total,
            "restarts_total": self.restarts_total,
            "hangs_total": self.hangs_total,
        }


def _kill(proc) -> None:
    try:
        proc.kill()
    except (OSError, AttributeError, ValueError):
        pass
