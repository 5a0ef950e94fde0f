"""The ``repro serve`` daemon: HTTP/JSON front door over warm sessions.

Stdlib only (:mod:`http.server` + threads).  One
:class:`ServeDaemon` owns:

* a **session pool** — warm :class:`~repro.api.OptimizerSession`
  objects keyed by their (dataset size, seed, method, backend, ...)
  configuration, LRU-bounded, shared across requests;
* an **admission controller** — bounded in-flight + queue with
  per-client limits; overload answers ``503`` + ``Retry-After``;
* **deadlines** — per-request (``deadline_s``) or the configured
  default, propagated into the pipeline as a cooperative
  :class:`~repro.cancellation.CancelToken`; expiry answers ``504``;
* the **resilience layer** — unless disabled, the request's LLM
  backend is transparently re-registered as ``resilient:<name>``
  (retry/backoff + circuit breaker, see :mod:`repro.api.resilience`);
* **graceful drain** — SIGTERM/SIGINT stop admission, let in-flight
  work finish (``drain_grace`` seconds), cancel what remains, then
  exit 0;
* optionally (``workers > 0``) a **supervised worker pool** —
  requests execute in forked worker processes with rlimits, a hang
  watchdog, backoff restarts and a poison-request quarantine (see
  :mod:`repro.serve.supervisor`): a crashing request answers ``500``
  and never takes the daemon down;
* unless ``--no-journal``, a **write-ahead request journal** on the
  artifact store (see :mod:`repro.serve.journal`): ``--recover``
  replays unfinished requests after a crash (duplicates are answered
  by the sessions' result store, not the journal);
* ``/healthz``, ``/metrics`` and ``/quarantine`` endpoints.

Endpoints
---------
``POST /v1/optimize``
    body: ``{"request": {"source": ..., "system": ..., "persona": ...,
    "perf": {...}, "test": {...}}, "session": {...},
    "deadline_s": 5.0, "stream": true|false, "use_store": bool}``.
    Non-streaming responses are the byte-stable ``repro optimize
    --json`` document; ``"stream": true`` answers NDJSON — one line
    per :class:`SessionEvent` as it happens (resilience events
    included), then a final ``{"kind": "result", ...}`` line.
``GET /healthz``
    200 while serving, 503 while draining.
``GET /metrics``
    queue depth, in-flight, totals (completed / failed / rejected /
    cancelled / retries / breaker trips), breaker states, worker-pool
    and quarantine state, result-store hits, journal replays, p50/p95
    latency.
``GET /quarantine``
    quarantined request signatures with crash diagnostics.
``POST /quarantine/clear``
    body ``{}`` or ``{"signature": "..."}`` — release all (or one)
    quarantined signature.

Errors are structured: ``{"error": {"kind": ..., "message": ...}}``
with kinds ``bad_request`` (400), ``quarantined`` (422),
``deadline`` (504), ``draining`` / ``overloaded`` / ``client_limit``
(503 + Retry-After), ``breaker_open`` (503 + Retry-After),
``backend`` (502), ``worker_crashed`` (500, with the crash reason)
and ``internal`` (500).  A request that fails — or kills its worker —
*never* takes the daemon down with it.
"""

from __future__ import annotations

import contextlib
import json
import logging
import signal
import threading
import time
from collections import OrderedDict
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from pathlib import Path

from ..api import (OptimizationRequest, OptimizerSession,
                   UnknownComponentError)
from ..api.resilience import (CircuitOpenError, RESILIENCE_BUS,
                              RetryPolicy, breaker_states,
                              install_resilient_llm)
from ..cancellation import (Cancelled, CancelToken, DeadlineExceeded,
                            cancel_scope)
from ..evaluation.store import STORE_DIR, cache_dir
from ..ir import parse_scop
from ..storage import LocalShardedStore
from ..testing.faults import register_fault_backends
from .admission import AdmissionController, Rejected
from .config import ServeConfig
from .journal import RequestJournal, request_signature
from .metrics import Metrics
from .supervisor import (QuarantineRegistry, WorkerCrashed,
                         WorkerSupervisor)

logger = logging.getLogger("repro.serve")

#: session-spec keys a request may set; everything else is a 400
SESSION_KEYS = ("dataset_size", "seed", "generator", "retrieval_method",
                "llm_backend", "base_compiler", "k", "use_store")

#: resilience event kinds (and the store-hit stat) -> metrics counters
_STAT_COUNTERS = {
    "store_hit": "store_hits_total",
    "retry": "retries_total",
    "retry_give_up": "retry_give_ups_total",
    "breaker_open": "breaker_opens_total",
    "breaker_half_open": "breaker_probes_total",
    "breaker_close": "breaker_closes_total",
}


class BadRequest(Exception):
    """Client error: malformed body / unknown fields."""


def _default_params(program, value: int) -> Dict[str, int]:
    return {p: value for p in program.params}


def _lru_session(sessions: "OrderedDict[Tuple, OptimizerSession]",
                 lock, merged: Dict[str, Any],
                 limit: int) -> OptimizerSession:
    """The session for ``merged`` from an LRU of at most ``limit``."""
    key = tuple(sorted(merged.items()))
    with lock:
        session = sessions.get(key)
        if session is not None:
            sessions.move_to_end(key)
            return session
    # build outside the lock: construction validates components and
    # may raise; two racing builders just build twice, last one wins
    session = OptimizerSession(**merged)
    with lock:
        sessions[key] = session
        sessions.move_to_end(key)
        while len(sessions) > limit:
            sessions.popitem(last=False)
    return session


class ServeDaemon:
    """Everything behind the HTTP surface; usable in-process in tests."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig.from_env()
        self.metrics = Metrics()
        self.admission = AdmissionController(
            self.config.max_inflight, self.config.queue_depth,
            self.config.per_client,
            latency_hint=self.metrics.latency_p50)
        self._sessions: "OrderedDict[Tuple, OptimizerSession]" = \
            OrderedDict()
        self._sessions_lock = threading.Lock()
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._tokens: set = set()
        self._tokens_lock = threading.Lock()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._booted = False
        self.quarantine = QuarantineRegistry(
            self.config.worker_crash_limit)
        self.supervisor: Optional[WorkerSupervisor] = None
        if self.config.workers > 0:
            self.supervisor = WorkerSupervisor(
                self.config.workers, self._worker_session_resolver(),
                memory_mb=self.config.worker_memory_mb,
                cpu_s=self.config.worker_cpu_s,
                hang_timeout=self.config.worker_hang_timeout,
                restart_base=self.config.worker_restart_base,
                restart_cap=self.config.worker_restart_cap)
        self.journal: Optional[RequestJournal] = None
        if self.config.journal:
            self.journal = RequestJournal(
                LocalShardedStore(str(Path(cache_dir()) / STORE_DIR)))
        register_fault_backends()
        self._unsub_resilience = RESILIENCE_BUS.subscribe(
            self._on_resilience_event)
        self.metrics.gauge("queue_depth", lambda: self.admission.queued)
        self.metrics.gauge("inflight", lambda: self.admission.inflight)
        self.metrics.gauge("sessions", self._session_count)
        self.metrics.gauge("breakers", breaker_states)
        self.metrics.gauge("draining", self._draining.is_set)
        self.metrics.gauge("quarantined", lambda: self.quarantine.count)
        if self.supervisor is not None:
            self.metrics.gauge("workers", self.supervisor.describe)
        from ..storage import INTEGRITY
        self.metrics.gauge("integrity", INTEGRITY.snapshot)

    # ------------------------------------------------------------------
    # session pool
    # ------------------------------------------------------------------
    def _session_count(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    def _merged_spec(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Defaults + request spec, validated — resilience not applied.

        This is what a supervised worker receives: the worker installs
        its own ``resilient:`` alias through :meth:`_effective_spec`
        (breakers/retries are per-process state), which keeps the
        session key — and therefore the result bytes — identical to the
        in-process path.
        """
        merged = dict(self.config.default_session)
        merged.update(spec or {})
        unknown = sorted(set(merged) - set(SESSION_KEYS))
        if unknown:
            raise BadRequest(
                f"unknown session field(s) {', '.join(unknown)}; "
                f"allowed: {', '.join(SESSION_KEYS)}")
        return merged

    def _effective_spec(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        merged = self._merged_spec(spec)
        if self.config.resilience:
            backend = merged.get("llm_backend", "simulated")
            merged["llm_backend"] = install_resilient_llm(
                backend, RetryPolicy.from_env())
        return merged

    def session_for(self, spec: Dict[str, Any]) -> OptimizerSession:
        """The pooled warm session for this configuration (LRU)."""
        return _lru_session(self._sessions, self._sessions_lock,
                            self._effective_spec(spec),
                            self.config.max_sessions)

    def _worker_session_resolver(self):
        """``session_for(job)`` for the workers: each forked worker
        fills its own copy of ``sessions`` and takes no daemon lock (a
        thread may hold ``_sessions_lock`` across a fork)."""
        sessions: "OrderedDict[Tuple, OptimizerSession]" = OrderedDict()
        no_lock = contextlib.nullcontext()
        return lambda job: _lru_session(
            sessions, no_lock, self._effective_spec(job["spec"]),
            self.config.max_sessions)

    # ------------------------------------------------------------------
    # request materialization
    # ------------------------------------------------------------------
    @staticmethod
    def materialize_request(entry: Dict[str, Any]) -> OptimizationRequest:
        if not isinstance(entry, dict):
            raise BadRequest("'request' must be an object")
        source = entry.get("source")
        if not isinstance(source, str) or not source.strip():
            raise BadRequest("'request.source' (SCoP text) is required")
        try:
            program = parse_scop(source)
        except Exception as exc:
            raise BadRequest(f"unparseable SCoP source: {exc}")
        perf = {k: int(v) for k, v in entry.get("perf", {}).items()} \
            or _default_params(program, 1500)
        test = {k: int(v) for k, v in entry.get("test", {}).items()} \
            or _default_params(program, 8)
        try:
            return OptimizationRequest.make(
                program, perf, test,
                system=entry.get("system", "looprag"),
                persona=entry.get("persona", "deepseek"),
                optimizer=entry.get("optimizer"),
                time_limit=entry.get("time_limit"),
                tag=entry.get("tag"))
        except UnknownComponentError as exc:
            raise BadRequest(str(exc))

    # ------------------------------------------------------------------
    # the request path (called from handler threads)
    # ------------------------------------------------------------------
    def _on_resilience_event(self, event) -> None:
        self._on_worker_stat(event.kind)

    def _on_worker_stat(self, kind: str) -> None:
        """Resilience events and store hits, local or relayed from a
        worker."""
        counter = _STAT_COUNTERS.get(kind)
        if counter is not None:
            self.metrics.inc(counter)

    def _register_token(self, token: CancelToken) -> None:
        with self._tokens_lock:
            self._tokens.add(token)

    def _unregister_token(self, token: CancelToken) -> None:
        with self._tokens_lock:
            self._tokens.discard(token)

    def _execute_doc(self, request: OptimizationRequest,
                     spec: Dict[str, Any], use_store: Optional[bool],
                     token: CancelToken, signature: str,
                     on_event=None, stream: bool = False
                     ) -> Dict[str, Any]:
        """One request through whichever execution path is configured.

        Returns the full result document (events included); callers
        strip events per the client's ``include_events``.  The worker
        path runs the same ``OptimizerSession.optimize`` as the
        in-process path and the document is rendered here from the
        rebuilt result, so the documents are byte-identical.
        """
        if self.supervisor is not None:
            job = {"request": request, "spec": spec,
                   "use_store": use_store,
                   "deadline": token.remaining(),
                   "stream": stream, "signature": signature}
            result = self.supervisor.execute(
                job, token=token, on_event=on_event,
                on_stat=self._on_worker_stat)
        else:
            result = self.session_for(spec).optimize(
                request, use_store=use_store, cancel=token)
        if result.from_cache:
            self._on_worker_stat("store_hit")
        return result.to_json_dict(include_events=True)

    def _journal_failed(self, journaled: bool, signature: str,
                        kind: str, message: str) -> None:
        if journaled and self.journal is not None:
            try:
                self.journal.failed(signature, {"kind": kind,
                                                "message": message})
            except Exception:
                logger.exception("journal write failed for %s",
                                 signature[:12])

    def handle_optimize(self, handler: "_Handler",
                        body: Dict[str, Any]) -> None:
        self.metrics.inc("requests_total")
        started = time.monotonic()
        if self._draining.is_set():
            self.metrics.inc("rejected_total")
            _send_error(handler, 503, "draining",
                        "daemon is draining",
                        retry_after=self.admission.retry_after_estimate())
            return
        client = handler.headers.get("X-Client-Id") \
            or handler.client_address[0]
        signature = request_signature(body)
        stream = bool(body.get("stream"))
        include_events = bool(body.get("include_events", True))
        poisoned = self.quarantine.lookup(signature)
        if poisoned is not None:
            self.metrics.inc("rejected_total")
            self.metrics.inc("rejected_quarantined_total")
            _send_error(handler, 422, "quarantined",
                        f"request signature {signature[:12]} is "
                        f"quarantined after {poisoned['crashes']} "
                        f"worker crashes (POST /quarantine/clear to "
                        f"release)",
                        signature=signature,
                        crashes=poisoned["crashes"],
                        last_reason=poisoned.get("last_reason"),
                        last_error=poisoned.get("last_error"))
            return
        deadline_s = body.get("deadline_s",
                              self.config.default_deadline or None)
        if deadline_s is not None:
            deadline_s = float(deadline_s)
        token = CancelToken.with_timeout(deadline_s)
        self._register_token(token)
        admitted = False
        journaled = False
        # non-streaming replies are rendered *after* the finally below
        # releases the admission slot: the client only sees its bytes
        # once the slot is free, so reading a reply and immediately
        # re-posting can never race the slot this request still held
        # (with queue_depth=0 that race answered a spurious 503)
        reply = None
        try:
            try:
                self.admission.acquire(client, token)
                admitted = True
            except Rejected as exc:
                self.metrics.inc("rejected_total")
                self.metrics.inc(f"rejected_{exc.reason}_total")
                # no slot held: safe (and simplest) to answer inline
                _send_error(handler, 503, exc.reason, str(exc),
                            retry_after=exc.retry_after)
                return
            request = self.materialize_request(body.get("request", {}))
            spec = self._merged_spec(body.get("session", {}))
            use_store = body.get("use_store")
            if self.journal is not None and not stream:
                # write-ahead: only after validation, so every
                # journaled body is replayable by --recover
                self.journal.admitted(signature, body)
                journaled = True
            if stream:
                self.metrics.inc("streams_total")
                self._run_streaming(handler, request, spec, token,
                                    use_store, signature)
            else:
                if journaled:
                    self.journal.started(signature)
                doc = self._execute_doc(request, spec, use_store,
                                        token, signature)
                if journaled:
                    self.journal.completed(signature)
                self.quarantine.note_success(signature)
                reply = partial(_send_json, handler, 200,
                                _strip_events(doc, include_events))
            self.metrics.inc("completed_total")
            self.metrics.observe_latency(time.monotonic() - started)
        except BadRequest as exc:
            self.metrics.inc("failed_total")
            reply = partial(_send_error, handler, 400, "bad_request",
                            str(exc))
        except UnknownComponentError as exc:
            self.metrics.inc("failed_total")
            reply = partial(_send_error, handler, 400, "bad_request",
                            str(exc))
        except DeadlineExceeded:
            self.metrics.inc("cancelled_total")
            self.metrics.inc("deadline_total")
            self._journal_failed(journaled, signature, "deadline",
                                 f"deadline {deadline_s}s exceeded")
            reply = partial(_send_error, handler, 504, "deadline",
                            f"request exceeded its deadline "
                            f"({deadline_s}s)")
        except Cancelled as exc:
            self.metrics.inc("cancelled_total")
            self._journal_failed(journaled, signature, exc.reason,
                                 str(exc))
            reply = partial(
                _send_error, handler, 503, exc.reason, str(exc),
                retry_after=self.admission.retry_after_estimate())
        except CircuitOpenError as exc:
            self.metrics.inc("failed_total")
            self._journal_failed(journaled, signature, "breaker_open",
                                 str(exc))
            reply = partial(_send_error, handler, 503, "breaker_open",
                            str(exc), retry_after=exc.retry_after,
                            site=exc.site)
        except WorkerCrashed as exc:
            self.metrics.inc("failed_total")
            self.metrics.inc("worker_crashes_total")
            entry = self.quarantine.note_crash(signature, exc.reason,
                                               str(exc))
            self._journal_failed(journaled, signature, "worker_crashed",
                                 str(exc))
            reply = partial(_send_error, handler, 500, "worker_crashed",
                            f"worker crashed mid-request: {exc}",
                            reason=exc.reason, signature=signature,
                            crashes=entry["crashes"],
                            quarantined=entry["quarantined"])
        except Exception as exc:
            transient = bool(getattr(exc, "transient", False)) \
                or isinstance(exc, (ConnectionError, TimeoutError))
            self.metrics.inc("failed_total")
            type_name = getattr(exc, "remote_type", type(exc).__name__)
            if transient:
                self._journal_failed(journaled, signature, "backend",
                                     str(exc))
                reply = partial(_send_error, handler, 502, "backend",
                                f"backend failed after retries: "
                                f"{type_name}: {exc}")
            else:
                logger.exception("internal error serving request")
                self._journal_failed(journaled, signature, "internal",
                                     str(exc))
                reply = partial(_send_error, handler, 500, "internal",
                                f"{type_name}: {exc}")
        finally:
            if admitted:
                self.admission.release(client)
            self._unregister_token(token)
        if reply is not None:
            reply()

    def _run_streaming(self, handler: "_Handler",
                       request: OptimizationRequest,
                       spec: Dict[str, Any],
                       token: CancelToken,
                       use_store: Optional[bool],
                       signature: str) -> None:
        """NDJSON: live events (this request's only), then the result.

        Streaming requests bypass the journal (a byte-stream already
        delivered cannot be replayed idempotently) but do execute in
        the worker pool when one is configured — worker events are
        relayed over the pipe and written as they arrive.
        """
        handler.send_response(200)
        handler.send_header("Content-Type", "application/x-ndjson")
        handler.send_header("Connection", "close")
        handler.end_headers()
        write_lock = threading.Lock()

        def write_line(doc: Dict[str, Any]) -> None:
            data = (json.dumps(doc, sort_keys=True) + "\n").encode()
            with write_lock:
                handler.wfile.write(data)
                handler.wfile.flush()

        if self.supervisor is not None:
            def on_event(doc: Dict[str, Any]) -> None:
                try:
                    write_line(doc)
                except OSError:
                    # client went away: stop paying for the request
                    token.cancel("client_disconnected")
                    raise  # the dispatcher stops forwarding to us
            try:
                doc = self._execute_doc(request, spec, use_store,
                                        token, signature,
                                        on_event=on_event, stream=True)
                doc = _strip_events(doc, include_events=False)
                doc["kind"] = "result"
                write_line(doc)
                self.quarantine.note_success(signature)
            except Cancelled as exc:
                self.metrics.inc("cancelled_total")
                if isinstance(exc, DeadlineExceeded):
                    self.metrics.inc("deadline_total")
                try:
                    write_line({"kind": "error", "error": {
                        "kind": exc.reason, "message": str(exc)}})
                except OSError:
                    pass
            except WorkerCrashed as exc:
                self.metrics.inc("failed_total")
                self.metrics.inc("worker_crashes_total")
                entry = self.quarantine.note_crash(
                    signature, exc.reason, str(exc))
                try:
                    write_line({"kind": "error", "error": {
                        "kind": "worker_crashed", "message": str(exc),
                        "reason": exc.reason,
                        "quarantined": entry["quarantined"]}})
                except OSError:
                    pass
            except Exception as exc:
                # the 200 + NDJSON header is already on the wire; an
                # in-stream error line is the best remaining answer
                self.metrics.inc("failed_total")
                try:
                    write_line({"kind": "error", "error": {
                        "kind": "failure", "message": str(exc)}})
                except OSError:
                    pass
            return

        session = self.session_for(spec)
        ident = threading.get_ident()

        def forward(event) -> None:
            if threading.get_ident() != ident:
                return  # another request's event
            try:
                write_line({"kind": event.kind, "seq": event.seq,
                            "data": {k: v for k, v in event.data}})
            except OSError:
                # client went away: stop paying for the request
                token.cancel("client_disconnected")

        unsub_session = session.events.subscribe(forward)
        unsub_resilience = RESILIENCE_BUS.subscribe(forward)
        try:
            result = session.optimize(request, use_store=use_store,
                                      cancel=token)
            if result.from_cache:
                self._on_worker_stat("store_hit")
            doc = result.to_json_dict(include_events=False)
            doc["kind"] = "result"
            write_line(doc)
        except Cancelled as exc:
            self.metrics.inc("cancelled_total")
            if isinstance(exc, DeadlineExceeded):
                self.metrics.inc("deadline_total")
            try:
                write_line({"kind": "error", "error": {
                    "kind": exc.reason, "message": str(exc)}})
            except OSError:
                pass
        finally:
            unsub_session()
            unsub_resilience()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _make_server(self) -> ThreadingHTTPServer:
        server = _Server((self.config.host, self.config.port), _Handler)
        server.repro_daemon = self
        self._httpd = server
        return server

    @property
    def address(self) -> Tuple[str, int]:
        assert self._httpd is not None, "daemon not started"
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def _boot(self) -> None:
        """Fork the worker pool and replay the journal, exactly once."""
        if self._booted:
            return
        self._booted = True
        if self.supervisor is not None:
            self.supervisor.start()
        if self.config.recover:
            replayed = self.recover()
            if replayed:
                logger.info("recovered %d journaled request(s)",
                            replayed)

    def recover(self) -> int:
        """Replay admitted-but-unfinished journal records.

        Each is re-materialized from its journaled body and executed
        through the normal path (workers included) with no deadline —
        the original client is gone; the point is that the work
        admitted before the crash ends up completed, its result in the
        result store, ready for the client's resubmission to be
        answered from there byte-identically.
        """
        if self.journal is None:
            return 0
        replayed = 0
        for signature, record in self.journal.unfinished():
            if record is None:
                # the journaled line failed its integrity check:
                # replaying a corrupted body would execute the wrong
                # request — refuse, mark it failed, keep recovering
                self.journal.failed(signature, {
                    "kind": "corrupt_record",
                    "message": "journal record failed its crc check; "
                               "refusing to replay (resubmit the "
                               "request to re-run it)"})
                self.metrics.inc("journal_corrupt_total")
                logger.warning("recover: journal record %s is corrupt; "
                               "marked failed, not replayed",
                               signature[:12])
                continue
            body = record.get("body") or {}
            try:
                request = self.materialize_request(
                    body.get("request", {}))
                spec = self._merged_spec(body.get("session", {}))
                token = CancelToken()
                self._register_token(token)
                try:
                    self.journal.started(signature)
                    self._execute_doc(request, spec,
                                      body.get("use_store"), token,
                                      signature)
                finally:
                    self._unregister_token(token)
                self.journal.completed(signature)
                self.metrics.inc("journal_replayed_total")
                replayed += 1
            except Exception as exc:
                self.journal.failed(signature, {
                    "kind": "replay_failed",
                    "message": f"{type(exc).__name__}: {exc}"})
                self.metrics.inc("journal_replay_failed_total")
                logger.warning("recover: replay of %s failed: %s",
                               signature[:12], exc)
        return replayed

    def start(self) -> Tuple[str, int]:
        """Start serving on a background thread (tests)."""
        self._boot()
        server = self._make_server()
        self._serve_thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            name="repro-serve", daemon=True)
        self._serve_thread.start()
        return self.address

    def begin_drain(self, reason: str = "sigterm") -> None:
        """Stop admission, finish/cancel in-flight, stop the server."""
        if self._draining.is_set():
            return
        self._draining.set()
        self.metrics.inc("drains_total")
        logger.info("drain started (%s): %d in flight, %d queued",
                    reason, self.admission.inflight,
                    self.admission.queued)

        def _drain() -> None:
            clean = self.admission.wait_idle(self.config.drain_grace)
            if not clean:
                with self._tokens_lock:
                    tokens = list(self._tokens)
                for token in tokens:
                    token.cancel("drain")
                self.admission.wait_idle(5.0)
            if self._httpd is not None:
                self._httpd.shutdown()
            self._drained.set()

        threading.Thread(target=_drain, name="repro-serve-drain",
                         daemon=True).start()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and join (in-process use)."""
        self.begin_drain(reason="stop")
        self._drained.wait(timeout)
        if self._httpd is not None:
            self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout)
        if self.supervisor is not None:
            self.supervisor.shutdown()
        self._unsub_resilience()

    def run_forever(self, announce=print) -> int:
        """Foreground serve loop with SIGTERM/SIGINT drain; returns 0."""
        self._boot()
        server = self._make_server()
        host, port = self.address

        def _signal_drain(signum, frame) -> None:
            self.begin_drain(reason=signal.Signals(signum).name)

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _signal_drain)
        announce(f"repro-serve listening on http://{host}:{port} "
                 f"(inflight={self.config.max_inflight} "
                 f"queue={self.config.queue_depth} "
                 f"workers={self.config.workers or 'in-process'} "
                 f"journal={'on' if self.journal else 'off'} "
                 f"deadline={self.config.default_deadline or 'none'})",
                 flush=True)
        try:
            server.serve_forever(poll_interval=0.1)
        finally:
            server.server_close()
            for signum, old in previous.items():
                signal.signal(signum, old)
            if self.supervisor is not None:
                self.supervisor.shutdown()
        announce("repro-serve drained cleanly", flush=True)
        return 0

    # ------------------------------------------------------------------
    def health(self) -> Tuple[int, Dict[str, Any]]:
        draining = self._draining.is_set()
        doc = {
            "status": "draining" if draining else "ok",
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "sessions": self._session_count(),
        }
        return (503 if draining else 200), doc


class _Server(ThreadingHTTPServer):
    # non-daemon handler threads + block_on_close: server_close() waits
    # for in-flight handlers, which is exactly what drain wants
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    repro_daemon: ServeDaemon


class _Handler(BaseHTTPRequestHandler):
    server: _Server

    @property
    def daemon(self) -> ServeDaemon:
        return self.server.repro_daemon

    def log_message(self, fmt: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), fmt % args)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        if self.path == "/healthz":
            status, doc = self.daemon.health()
            _send_json(self, status, doc)
        elif self.path == "/metrics":
            _send_json(self, 200, self.daemon.metrics.snapshot())
        elif self.path == "/quarantine":
            _send_json(self, 200, {
                "limit": self.daemon.quarantine.limit,
                "quarantined": self.daemon.quarantine.snapshot()})
        else:
            _send_error(self, 404, "not_found",
                        f"no such endpoint: {self.path}")

    def _read_json_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length) if length else b""
        body = json.loads(raw.decode("utf-8")) if raw else {}
        if not isinstance(body, dict):
            raise ValueError("body must be a JSON object")
        return body

    def do_POST(self) -> None:
        if self.path == "/quarantine/clear":
            try:
                body = self._read_json_body()
            except (ValueError, UnicodeDecodeError) as exc:
                _send_error(self, 400, "bad_request",
                            f"invalid JSON body: {exc}")
                return
            cleared = self.daemon.quarantine.clear(
                body.get("signature"))
            _send_json(self, 200, {"cleared": cleared})
            return
        if self.path != "/v1/optimize":
            _send_error(self, 404, "not_found",
                        f"no such endpoint: {self.path}")
            return
        try:
            body = self._read_json_body()
        except (ValueError, UnicodeDecodeError) as exc:
            self.daemon.metrics.inc("requests_total")
            self.daemon.metrics.inc("failed_total")
            _send_error(self, 400, "bad_request",
                        f"invalid JSON body: {exc}")
            return
        try:
            self.daemon.handle_optimize(self, body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up mid-response


def _strip_events(doc: Dict[str, Any],
                  include_events: bool) -> Dict[str, Any]:
    """The full result document, minus "events" when not requested.

    Executed and worker-produced documents always carry events;
    popping the key yields exactly the bytes
    ``to_json_dict(include_events=False)`` would have produced.
    """
    if include_events:
        return doc
    doc = dict(doc)
    doc.pop("events", None)
    return doc


def _send_json(handler: BaseHTTPRequestHandler, status: int,
               doc: Dict[str, Any],
               retry_after: Optional[float] = None) -> None:
    body = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    try:
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            handler.send_header("Retry-After",
                                str(max(1, int(round(retry_after)))))
        handler.end_headers()
        handler.wfile.write(body)
    except (BrokenPipeError, ConnectionResetError):
        pass  # client hung up; nothing to salvage


def _send_error(handler: BaseHTTPRequestHandler, status: int, kind: str,
                message: str, retry_after: Optional[float] = None,
                **extra: Any) -> None:
    error: Dict[str, Any] = {"kind": kind, "message": message}
    error.update(extra)
    if retry_after is not None:
        error["retry_after"] = max(1, int(round(retry_after)))
    _send_json(handler, status, {"error": error},
               retry_after=retry_after)
