"""The ``repro serve`` daemon: HTTP/JSON front door over warm sessions.

Stdlib only (:mod:`http.server` + threads).  One
:class:`ServeDaemon` owns:

* **warm sessions** — one :class:`~repro.api.OptimizerSession` per
  (dataset size, seed, method, backend, ...) configuration, taken from
  the process-wide registry (:func:`repro.api.session.shared_session`)
  and shared across requests;
* an **admission controller** — bounded in-flight + queue with
  per-client limits; overload answers ``503`` + ``Retry-After``;
* **deadlines** — per-request (``deadline_s``) or the configured
  default, propagated into the pipeline as a cooperative
  :class:`~repro.cancellation.CancelToken`; expiry answers ``504``;
* the **resilience layer** — retry/backoff and circuit breaking
  around every LLM call come with the session itself (see
  :mod:`repro.api.resilience`), so a daemon request runs on the same
  session and result-store key as ``repro bench`` and ``repro
  optimize``; the daemon counts the retry and breaker events;
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
    "optimizer": ..., "perf": {...}, "test": {...}, "time_limit": ...,
    "tag": ...}, "session": {...}, "deadline_s": 5.0, "stream": bool,
    "use_store": bool, "include_events": bool}``; every field is
    checked by the request schema (``BODY_FIELDS``, ``REQUEST_FIELDS``
    and ``SESSION_FIELDS`` in :mod:`repro.api.session`) before
    admission; a body over ``MAX_BODY_BYTES`` is refused unread.
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
with kinds ``bad_request`` (400: malformed or oversized JSON, or a
field that breaks the schema, named in ``"field"``), ``quarantined``
(422), ``deadline`` (504), ``draining`` / ``overloaded`` / ``client_limit``
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
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from pathlib import Path

from ..api import OptimizationRequest, OptimizerSession
from ..api.resilience import (CircuitOpenError, RESILIENCE_BUS,
                              breaker_states)
from ..api.session import (BODY_FIELDS, SESSION_FIELDS, SESSIONS,
                           BadRequest, check_fields, shared_session)
from ..cancellation import Cancelled, CancelToken, DeadlineExceeded
from ..evaluation.store import STORE_DIR, cache_dir
from ..storage import LocalShardedStore
from ..testing.faults import register_fault_backends
from .admission import AdmissionController, Rejected
from .config import ServeConfig
from .journal import RequestJournal, request_signature
from .metrics import Metrics
from .supervisor import (QuarantineRegistry, WorkerCrashed,
                         WorkerSupervisor)

logger = logging.getLogger("repro.serve")

#: the longest body the daemon reads; a longer one answers 400 unread
MAX_BODY_BYTES = 1 << 20

#: resilience event kinds (and the store-hit stat) -> metrics counters
_STAT_COUNTERS = {
    "store_hit": "store_hits_total",
    "retry": "retries_total",
    "retry_give_up": "retry_give_ups_total",
    "breaker_open": "breaker_opens_total",
    "breaker_half_open": "breaker_probes_total",
    "breaker_close": "breaker_closes_total",
}


class ServeDaemon:
    """Everything behind the HTTP surface; usable in-process in tests."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        register_fault_backends()  # before the names are checked
        check_fields(SESSION_FIELDS, self.config.default_session, "session")
        self.metrics = Metrics()
        self.admission = AdmissionController(
            self.config.max_inflight, self.config.queue_depth,
            self.config.per_client,
            latency_hint=self.metrics.latency_p50)
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
                self.config.workers,
                lambda job: self.session_for(job["spec"]),
                memory_mb=self.config.worker_memory_mb,
                hang_timeout=self.config.worker_hang_timeout,
                restart_base=self.config.worker_restart_base,
                restart_cap=self.config.worker_restart_cap)
        self.journal: Optional[RequestJournal] = None
        if self.config.journal:
            self.journal = RequestJournal(
                LocalShardedStore(str(Path(cache_dir()) / STORE_DIR)))
        self._unsub_resilience = RESILIENCE_BUS.subscribe(
            self._on_resilience_event)
        self.metrics.gauge("queue_depth", lambda: self.admission.queued)
        self.metrics.gauge("inflight", lambda: self.admission.inflight)
        self.metrics.gauge("sessions", lambda: len(SESSIONS))
        self.metrics.gauge("breakers", breaker_states)
        self.metrics.gauge("draining", self._draining.is_set)
        self.metrics.gauge("quarantined", lambda: self.quarantine.count)
        if self.supervisor is not None:
            self.metrics.gauge("workers", self.supervisor.describe)
        from ..storage import INTEGRITY
        self.metrics.gauge("integrity", INTEGRITY.snapshot)

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def _merged_spec(self, spec: Any) -> Dict[str, Any]:
        """Defaults + request spec, checked by the request schema.

        This is what a supervised worker receives; it resolves the same
        registry session the in-process path would (breakers and
        retries are per-process state inside that session's pipeline).
        """
        return {**self.config.default_session,
                **check_fields(SESSION_FIELDS, spec, "session")}

    def session_for(self, spec: Dict[str, Any]) -> OptimizerSession:
        """The warm session for this configuration — the same
        :func:`shared_session` ``bench`` and ``optimize`` use; a forked
        worker resolves its jobs' sessions through this too."""
        return shared_session(**self._merged_spec(spec))

    # ------------------------------------------------------------------
    # request materialization
    # ------------------------------------------------------------------
    @staticmethod
    def materialize_request(entry: Any) -> OptimizationRequest:
        """The request a body's ``request`` object describes."""
        return OptimizationRequest.from_entry(None, entry)

    def checked_body(self, body: Any
                     ) -> Tuple[OptimizationRequest, Dict[str, Any]]:
        """The request and session spec of a ``/v1/optimize`` body, every
        field checked by the request schema (:data:`BODY_FIELDS`)."""
        body = check_fields(BODY_FIELDS, body, "")
        return (self.materialize_request(body.get("request")),
                self._merged_spec(body.get("session")))

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
                     on_event=None) -> Dict[str, Any]:
        """One request through whichever execution path is configured.

        Returns the full result document (events included); callers
        strip events per the client's ``include_events``.  The worker
        path runs the same ``OptimizerSession.optimize`` as the
        in-process path and the document is rendered here from the
        rebuilt result, so the documents are byte-identical.  Given
        ``on_event``, either path hands it this request's session and
        resilience events, as ``SessionEvent.to_dict()`` documents, as
        they happen.
        """
        if self.supervisor is not None:
            job = {"request": request, "spec": spec,
                   "use_store": use_store,
                   "deadline": token.remaining(),
                   "stream": on_event is not None,
                   "signature": signature}
            result = self.supervisor.execute(
                job, token=token, on_event=on_event,
                on_stat=self._on_worker_stat)
        else:
            session = self.session_for(spec)
            unsubscribes = []
            if on_event is not None:
                ident = threading.get_ident()

                def forward(event) -> None:
                    # handler threads share sessions and the resilience
                    # bus: pass on only this thread's events
                    if threading.get_ident() == ident:
                        on_event(event.to_dict())
                unsubscribes = [session.events.subscribe(forward),
                                RESILIENCE_BUS.subscribe(forward)]
            try:
                result = session.optimize(request, use_store=use_store,
                                          cancel=token)
            finally:
                for unsubscribe in unsubscribes:
                    unsubscribe()
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
        try:
            request, spec = self.checked_body(body)
        except BadRequest as exc:
            self.metrics.inc("failed_total")
            _send_error(handler, 400, "bad_request", str(exc),
                        field=exc.field)
            return
        client = handler.headers.get("X-Client-Id") \
            or handler.client_address[0]
        signature = request_signature(body)
        stream = body.get("stream", False)
        include_events = body.get("include_events", True)
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
        token = None
        admitted = False
        journaled = False
        # non-streaming replies are rendered *after* the finally below
        # releases the admission slot: the client only sees its bytes
        # once the slot is free, so reading a reply and immediately
        # re-posting can never race the slot this request still held
        # (with queue_depth=0 that race answered a spurious 503)
        reply = None
        try:
            deadline_s = body.get("deadline_s",
                                  self.config.default_deadline or None)
            if deadline_s is not None:
                deadline_s = float(deadline_s)
            token = CancelToken.with_timeout(deadline_s)
            self._register_token(token)
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
            use_store = body.get("use_store")
            if self.journal is not None and not stream:
                # write-ahead: only after validation, so every
                # journaled body is replayable by --recover
                self.journal.admitted(signature, body)
                journaled = True
            if stream:
                self.metrics.inc("streams_total")
                if not self._run_streaming(handler, request, spec, token,
                                           use_store, signature):
                    return  # counted and answered by its error line
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
            if token is not None:
                self._unregister_token(token)
        if reply is not None:
            reply()

    def _run_streaming(self, handler: "_Handler",
                       request: OptimizationRequest,
                       spec: Dict[str, Any],
                       token: CancelToken,
                       use_store: Optional[bool],
                       signature: str) -> bool:
        """NDJSON: live events (this request's only), then the result.

        Streaming requests bypass the journal (a byte-stream already
        delivered cannot be replayed idempotently) but run on whichever
        execution path is configured.  The 200 header is on the wire
        before the request runs, so a failure is answered by one final
        ``{"kind": "error", ...}`` line and counted here; returns
        whether the request completed.
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

        def on_event(doc: Dict[str, Any]) -> None:
            try:
                write_line(doc)
            except OSError:
                # client went away: stop paying for the request
                token.cancel("client_disconnected")

        try:
            doc = self._execute_doc(request, spec, use_store, token,
                                    signature, on_event=on_event)
            doc = _strip_events(doc, include_events=False)
            doc["kind"] = "result"
            write_line(doc)
            self.quarantine.note_success(signature)
            return True
        except Cancelled as exc:
            self.metrics.inc("cancelled_total")
            if isinstance(exc, DeadlineExceeded):
                self.metrics.inc("deadline_total")
            error = {"kind": exc.reason, "message": str(exc)}
        except WorkerCrashed as exc:
            self.metrics.inc("failed_total")
            self.metrics.inc("worker_crashes_total")
            entry = self.quarantine.note_crash(signature, exc.reason,
                                               str(exc))
            error = {"kind": "worker_crashed", "message": str(exc),
                     "reason": exc.reason,
                     "quarantined": entry["quarantined"]}
        except Exception as exc:
            self.metrics.inc("failed_total")
            error = {"kind": "failure", "message": str(exc)}
        with contextlib.suppress(OSError):
            write_line({"kind": "error", "error": error})
        return False

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
                request, spec = self.checked_body(body)
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
            "sessions": len(SESSIONS),
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
        if length > MAX_BODY_BYTES:  # refused unread
            raise ValueError(f"{length} bytes are over the "
                             f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length > 0 else b""
        body = json.loads(raw.decode("utf-8")) if raw else {}
        if not isinstance(body, dict):
            raise ValueError("body must be a JSON object")
        return body

    def do_POST(self) -> None:
        if self.path not in ("/quarantine/clear", "/v1/optimize"):
            _send_error(self, 404, "not_found",
                        f"no such endpoint: {self.path}")
            return
        try:
            body = self._read_json_body()
        except (ValueError, UnicodeDecodeError) as exc:
            if self.path == "/v1/optimize":
                self.daemon.metrics.inc("requests_total")
                self.daemon.metrics.inc("failed_total")
            _send_error(self, 400, "bad_request",
                        f"invalid JSON body: {exc}")
            return
        if self.path == "/quarantine/clear":
            cleared = self.daemon.quarantine.clear(
                body.get("signature"))
            _send_json(self, 200, {"cleared": cleared})
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
