"""The optimizer session: shared state once, typed requests many times.

``OptimizerSession`` is the long-lived service object the ROADMAP's
production framing asks for.  It owns every piece of expensive shared
state exactly once — the synthesized corpus (via ``cached_dataset``'s
two cache layers), the retriever index and the process-wide
dependence / compiled-kernel / legality caches it shares with the rest
of the system — and serves typed
:class:`OptimizationRequest` → :class:`OptimizationResult` objects.

* :meth:`OptimizerSession.optimize` runs one request, streaming
  :class:`~repro.api.events.SessionEvent` records to the session's
  :class:`~repro.api.events.EventBus` and returning them on the result.
* :func:`optimize_batch` runs a batch of ``(session, request)`` pairs:
  persistent-store hits are resolved first, misses fan out across one
  pool of supervised worker processes (:mod:`repro.serve.supervisor`,
  ``REPRO_JOBS`` wide), and results are reassembled in item order —
  bit-identical to running each request serially.
  :meth:`OptimizerSession.optimize_many` is one session's batch, and
  the evaluation harness runs whole suites through the same driver.
* :func:`shared_session` is the process-wide registry of sessions built
  from named settings: the harness's plans and ``repro serve`` both
  take their sessions from it, one per spec.  Sessions over one corpus
  share one retriever index through the retriever memo beside it.

Components are named parts resolved from plain tables
(:data:`repro.llm.LLM_BACKENDS`, :data:`repro.compilers.BASE_COMPILERS`,
:data:`repro.compilers.OPTIMIZERS`); unknown names raise
:class:`~repro.registry.UnknownComponentError` listing the registered
alternatives.

Determinism: each pipeline run seeds its RNG from ``(session seed,
program fingerprint)``, never from call order, so batching, pooling and
caching cannot change any result.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import reprlib
import threading
from dataclasses import dataclass, field
from typing import (Any, Callable, Collection, Dict, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from ..cancellation import CancelToken, cancel_scope
from ..codegen import scop_body_to_c
from ..compilers import BASE_COMPILERS, OPTIMIZERS
from ..ir import parse_scop
from ..ir.program import Program
from ..ir.serialize import program_from_json, program_to_json
from ..llm import LLM_BACKENDS
from ..llm.personas import PERSONAS, Persona, registered_name
from ..machine.analytical import estimate_cached
from ..machine.model import DEFAULT_MACHINE, MachineModel
from ..pipeline.generation import (BASELINE_TIME_LIMIT, DEFAULT_K,
                                   FeedbackPipeline, LOOPRAG_TIME_LIMIT,
                                   PipelineResult)
from ..registry import UnknownComponentError, lookup
from ..retrieval.retriever import METHODS, Retriever
from ..runtime.instances import sorted_instances
from ..synthesis.dataset import GENERATORS, cached_dataset
from ..testing.equivalence import TEST_BUDGET
from .events import EventBus, EventLog, SessionEvent
from .resilience import ResilientCall, ResilientLLM

#: request kinds the session serves
SYSTEMS = ("looprag", "basellm", "compiler")

DEFAULT_DATASET_SIZE = 400
DEFAULT_SEED = 0

#: store payload format version; bump on incompatible result changes.
#: 2: ``events`` and ``best_program`` are embedded JSON text, decoded
#: only when read
RESULT_SCHEMA = 2


# the request schema: every field a request, its session and a ``repro
# serve`` body may carry, with its type and range, checked in one place
class BadRequest(ValueError):
    """A field that breaks the request schema; ``field`` is its dotted
    path (``"request.test"``, ``"deadline_s"``), named in the message."""

    def __init__(self, path: str, must: str, value: Any = None) -> None:
        super().__init__(f"{_named(path)} must {must}, "
                         f"got {reprlib.repr(value)}")
        self.field = path


class UnknownName(BadRequest, UnknownComponentError):
    """A field naming no registered component."""

    def __init__(self, path: str, kind: str, name: str,
                 registered: Tuple[str, ...]) -> None:
        UnknownComponentError.__init__(self, kind, name, registered)
        self.args, self.field = (f"{_named(path)}: {self}",), path


def _named(path: str) -> str:
    scope, _dot, name = path.rpartition(".")
    return f"{scope} field '{name}'".lstrip()


#: a field's rule: raises :class:`BadRequest` for a value it refuses
Rule = Callable[[str, Any], None]


def _kind(test: Callable[[Any], bool], must: str) -> Rule:
    def rule(path: str, value: Any) -> None:
        if not test(value):
            raise BadRequest(path, must, value)
    return rule


def _integer(low: int) -> Rule:
    def rule(path: str, value: Any) -> None:
        if type(value) is not int:
            raise BadRequest(path, "be an integer", value)
        if value < low:
            raise BadRequest(path, f"be at least {low}", value)
    return rule


def _one_of(names: Collection[str], kind: str,
            nullable: bool = False) -> Rule:
    def rule(path: str, value: Any) -> None:
        if not isinstance(value, str) and not (nullable and value is None):
            raise BadRequest(path, "be a name", value)
        if value is not None and value not in names:
            raise UnknownName(path, kind, value, tuple(names))
    return rule


_MAYBE_FLAG = _kind(lambda v: v is None or type(v) is bool,
                    "be a boolean or null")
_SECONDS = _kind(lambda v: v is None or type(v) in (int, float)
                 and math.isfinite(v) and v > 0,
                 "be null or a finite number of seconds above 0")
_BINDINGS = _kind(lambda v: v is None or isinstance(v, dict) and all(
    type(n) is int and n >= 1 for n in v.values()),
    "be null or map parameter names to integers of at least 1")

#: a session's settings (the ``OptimizerSession`` arguments)
SESSION_FIELDS: Dict[str, Rule] = {
    "dataset_size": _integer(1), "seed": _integer(0), "k": _integer(1),
    "generator": _one_of(GENERATORS, "generator"),
    "retrieval_method": _one_of(METHODS, "retrieval method"),
    "llm_backend": _one_of(LLM_BACKENDS, "LLM backend"),
    "base_compiler": _one_of(BASE_COMPILERS, "base compiler"),
    "use_store": _MAYBE_FLAG}
#: a request's fields; ``make`` names an ``optimizer`` on ``compiler``
#: requests only, and ``from_entry`` binds ``perf`` and ``test`` to
#: exactly the kernel's parameters, the ``test`` run within TEST_BUDGET
REQUEST_FIELDS: Dict[str, Rule] = {
    "source": _kind(lambda v: isinstance(v, str) and v.strip() != "",
                    "be SCoP text"),
    "system": _one_of(SYSTEMS, "request system"),
    "persona": _one_of(PERSONAS, "persona"),
    "optimizer": _one_of(OPTIMIZERS, "optimizing compiler", nullable=True),
    "perf": _BINDINGS, "test": _BINDINGS, "time_limit": _SECONDS,
    "tag": _kind(lambda v: v is None or isinstance(v, str),
                 "be a string or null")}
#: a ``repro serve-batch`` entry: a request, or one read from ``file``
BATCH_ENTRY_FIELDS: Dict[str, Rule] = dict(
    REQUEST_FIELDS, file=_kind(lambda v: isinstance(v, str), "be a path"))
#: a ``repro serve`` body's top-level fields
BODY_FIELDS: Dict[str, Rule] = {
    "request": lambda path, v: check_fields(REQUEST_FIELDS, v, path),
    "session": lambda path, v: check_fields(SESSION_FIELDS, v, path),
    "deadline_s": _SECONDS, "use_store": _MAYBE_FLAG,
    "stream": _kind(lambda v: type(v) is bool, "be a boolean"),
    "include_events": _kind(lambda v: type(v) is bool, "be a boolean")}


def check_fields(table: Mapping[str, Rule], value: Any,
                 where: str) -> Dict[str, Any]:
    """``value``, an object (``None`` reads as none), with each field
    checked by its rule in ``table``; the first field that is unknown or
    breaks its rule raises :class:`BadRequest` naming it."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise BadRequest(where, "be an object", value)
    for name, item in value.items():
        path = f"{where}.{name}" if where else name
        if name not in table:
            raise BadRequest(path, "be left out (known fields: "
                             f"{', '.join(table)})", item)
        table[name](path, item)
    return value


def _bindings(program: Program, entry: Mapping[str, Any], name: str,
              default: int) -> Dict[str, int]:
    value = entry.get(name) or dict.fromkeys(program.params, default)
    if set(value) != set(program.params):
        raise BadRequest(f"request.{name}", "bind exactly the kernel's "
                         f"parameters ({', '.join(program.params)})", value)
    return value


def _check_test_run(program: Program, test: Dict[str, int]) -> None:
    """Each array holds 1 to ``TEST_BUDGET`` elements and the source run
    at most ``TEST_BUDGET`` statement instances at ``test``."""
    over = BadRequest("request.test", f"give each array 1 to {TEST_BUDGET} "
                      f"elements and the source run at most {TEST_BUDGET} "
                      "statement instances", test)
    try:
        shapes = [decl.shape(test) for decl in program.arrays]
        if any(min(shape, default=1) < 1 or math.prod(shape) > TEST_BUDGET
               for shape in shapes):
            raise over
        sorted_instances(program, test, TEST_BUDGET, lambda _budget: over)
    except OverflowError:
        raise over from None


def _dumps(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"))


@dataclass(frozen=True)
class OptimizationRequest:
    """One typed unit of work for a session.

    ``system`` selects the engine: ``"looprag"`` (retrieval + feedback),
    ``"basellm"`` (instruction prompting only) or ``"compiler"`` (one
    optimizing-compiler baseline, named by ``optimizer``).  Parameter
    bindings are stored as sorted item tuples so requests are hashable
    and pickle to worker processes; use :meth:`make` to pass plain
    mappings and a registered :class:`Persona` for its name.
    """

    program: Program
    perf_params: Tuple[Tuple[str, int], ...]
    test_params: Tuple[Tuple[str, int], ...] = ()
    system: str = "looprag"
    #: persona by registered name (checked when the request runs)
    persona: str = "deepseek"
    optimizer: Optional[str] = None
    time_limit: Optional[float] = None
    tag: Optional[str] = None

    @staticmethod
    def make(program: Program,
             perf_params: Union[Mapping[str, int], None] = None,
             test_params: Union[Mapping[str, int], None] = None,
             system: str = "looprag",
             persona: Union[str, Persona] = "deepseek",
             optimizer: Optional[str] = None,
             time_limit: Optional[float] = None,
             tag: Optional[str] = None) -> "OptimizationRequest":
        REQUEST_FIELDS["system"]("request.system", system)
        if (system == "compiler") != (optimizer is not None):
            raise BadRequest("request.optimizer", "be set on 'compiler' "
                             "requests and only on them", optimizer)
        return OptimizationRequest(
            program=program,
            perf_params=tuple(sorted((perf_params or {}).items())),
            test_params=tuple(sorted((test_params or {}).items())),
            system=system, persona=registered_name(persona),
            optimizer=optimizer,
            time_limit=time_limit, tag=tag)

    @staticmethod
    def from_entry(program: Optional[Program],
                   entry: Any) -> "OptimizationRequest":
        """The request a JSON entry (a ``serve-batch`` request, a
        ``repro serve`` body's ``request``) describes for ``program``, or
        for the program its ``source`` holds; every field is checked by
        the request schema (:data:`REQUEST_FIELDS`).  Unset ``perf`` and
        ``test`` bind every parameter to 1500 and 8."""
        entry = check_fields(REQUEST_FIELDS, entry, "request")
        if program is None:
            source = entry.get("source")
            REQUEST_FIELDS["source"]("request.source", source)
            try:
                program = parse_scop(source)
            except Exception as exc:
                raise BadRequest("request.source",
                                 f"be SCoP text (unparseable: {exc})",
                                 source) from None
        test = _bindings(program, entry, "test", 8)
        _check_test_run(program, test)
        return OptimizationRequest.make(
            program, _bindings(program, entry, "perf", 1500), test,
            system=entry.get("system", "looprag"),
            persona=entry.get("persona", "deepseek"),
            optimizer=entry.get("optimizer"),
            time_limit=entry.get("time_limit"), tag=entry.get("tag"))

    # ------------------------------------------------------------------
    def perf(self) -> Dict[str, int]:
        return dict(self.perf_params)

    def test(self) -> Dict[str, int]:
        return dict(self.test_params)

    def effective_time_limit(self) -> float:
        if self.time_limit is not None:
            return self.time_limit
        return (LOOPRAG_TIME_LIMIT if self.system == "looprag"
                else BASELINE_TIME_LIMIT)

    def echo(self) -> Dict[str, Any]:
        """Deterministic JSON form of the request (for reports)."""
        return {
            "target": self.program.name,
            "fingerprint": self.program.fingerprint(),
            "system": self.system,
            "persona": (self.persona
                        if self.system != "compiler" else None),
            "optimizer": self.optimizer,
            "perf": dict(self.perf_params),
            "test": dict(self.test_params),
            "time_limit": self.effective_time_limit(),
            "tag": self.tag,
        }


@dataclass(frozen=True)
class OptimizationResult:
    """The user-facing outcome of one request.

    Everything needed downstream is first-class and serializable:
    verdict, speedup, the winning recipe and code, per-stage snapshots,
    and the deterministic event log.  ``pipeline_result`` additionally
    carries the full in-memory :class:`PipelineResult` (every candidate
    with its test report) on in-process runs; it is ``None`` on
    persistent store hits and on pooled batch results, where
    ``best_program`` is rebuilt from the exact structural serialization
    instead.  Such a result keeps its events and its program as the
    stored JSON text and decodes each on first read, so a hit that is
    only counted (a suite run) decodes neither; equality ignores the
    events.
    """

    request: OptimizationRequest
    system_label: str
    passed: bool
    speedup: float
    baseline_seconds: Optional[float]
    best_seconds: Optional[float]
    recipe: Optional[str]
    best_code: Optional[str]
    stage_pass: Tuple[Tuple[str, bool], ...] = ()
    stage_speedup: Tuple[Tuple[str, float], ...] = ()
    failure: Optional[str] = None
    from_cache: bool = False
    pipeline_result: Optional[PipelineResult] = field(
        default=None, compare=False)
    #: the event log, or its stored JSON text until first read
    _events: Union[Tuple[SessionEvent, ...], str] = field(
        default=(), compare=False, repr=False)
    #: the winning program's structural JSON text, when there is no
    #: ``pipeline_result`` to take it from
    _best_program_json: Optional[str] = field(default=None, compare=False,
                                              repr=False)

    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[SessionEvent, ...]:
        """The request's event log (decoded on first read on a hit)."""
        if isinstance(self._events, str):
            object.__setattr__(self, "_events", tuple(
                SessionEvent.from_dict(e) for e in json.loads(self._events)))
        return self._events  # type: ignore[return-value]

    @property
    def best_program(self) -> Optional[Program]:
        if self.pipeline_result is not None and \
                self.pipeline_result.best is not None:
            return self.pipeline_result.best.response.program
        if self._best_program_json is not None:
            return program_from_json(json.loads(self._best_program_json))
        return None

    def stage(self, name: str) -> bool:
        return dict(self.stage_pass).get(name, self.passed)

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """Serialize for the persistent result store."""
        best = self._best_program_json
        if best is None and self.best_program is not None:
            best = _dumps(program_to_json(self.best_program))
        return {
            "schema": RESULT_SCHEMA,
            "system_label": self.system_label,
            "passed": self.passed,
            "speedup": self.speedup,
            "baseline_seconds": self.baseline_seconds,
            "best_seconds": self.best_seconds,
            "recipe": self.recipe,
            "best_code": self.best_code,
            "stage_pass": [list(p) for p in self.stage_pass],
            "stage_speedup": [list(p) for p in self.stage_speedup],
            "failure": self.failure,
            "events": _dumps([e.to_dict() for e in self.events]),
            "best_program": best,
        }

    @staticmethod
    def from_payload(request: OptimizationRequest,
                     payload: dict) -> "OptimizationResult":
        if payload.get("schema") != RESULT_SCHEMA:
            raise ValueError("stale result payload")
        events, best = payload["events"], payload["best_program"]
        if not (isinstance(events, str)
                and (best is None or isinstance(best, str))):
            raise TypeError("result payload without its embedded JSON text")
        return OptimizationResult(
            request=request,
            system_label=str(payload["system_label"]),
            passed=bool(payload["passed"]),
            speedup=float(payload["speedup"]),
            baseline_seconds=payload["baseline_seconds"],
            best_seconds=payload["best_seconds"],
            recipe=payload["recipe"],
            best_code=payload["best_code"],
            stage_pass=tuple((str(n), bool(v))
                             for n, v in payload["stage_pass"]),
            stage_speedup=tuple((str(n), float(v))
                                for n, v in payload["stage_speedup"]),
            failure=payload["failure"],
            from_cache=True,
            _events=events,
            _best_program_json=best)

    def to_json_dict(self, include_events: bool = True) -> dict:
        """Deterministic JSON document (request echo + verdict + events).

        Byte-stable across runs: no wall-clock fields, no cache-state
        flag (a warm rerun must render identically to the cold run that
        populated the store).
        """
        doc: Dict[str, Any] = {
            "request": self.request.echo(),
            "result": {
                "system": self.system_label,
                "passed": self.passed,
                "speedup": round(self.speedup, 6),
                "baseline_seconds": self.baseline_seconds,
                "best_seconds": self.best_seconds,
                "recipe": self.recipe,
                "failure": self.failure,
                "stage_pass": [list(p) for p in self.stage_pass],
                "stage_speedup": [[n, round(v, 6)]
                                  for n, v in self.stage_speedup],
                "code": self.best_code,
            },
        }
        if include_events:
            doc["events"] = [e.to_dict() for e in self.events]
        return doc


# ----------------------------------------------------------------------
# the batch driver: store hits first, misses across one supervised
# worker pool, every completed result persisted
# ----------------------------------------------------------------------
def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (defaults to 1 = serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def optimize_batch(items: Sequence[Tuple["OptimizerSession",
                                         OptimizationRequest]],
                   jobs: Optional[int] = None) -> List[OptimizationResult]:
    """Serve ``(session, request)`` pairs; results align with ``items``.

    Each request resolves against its own session's result store first;
    misses run on a ``jobs``-wide supervised worker pool
    (``jobs``/``REPRO_JOBS``, 1 = serial, as is a platform without
    ``fork``) and are persisted as they complete.  Identical to calling
    ``session.optimize(request)`` per item in order.  If a pooled
    request fails or its worker dies, every other completed result is
    still persisted before the first failure is re-raised (the
    supervisor's relayed failure, or ``WorkerCrashed``).

    A pooled result is rebuilt from its worker's store payload, as a
    store hit is, so its ``pipeline_result`` is ``None``.  Workers emit
    inside their fork; the parent re-publishes each result's event log
    to its session's bus when the result arrives.
    """
    items = list(items)
    if jobs is None:
        jobs = default_jobs()
    stores = [session._store() for session, _request in items]
    results: List[Optional[OptimizationResult]] = [None] * len(items)
    misses: List[int] = []
    for i, (session, request) in enumerate(items):
        hit = (session._store_lookup(stores[i], request)
               if stores[i] is not None else None)
        if hit is not None:
            results[i] = hit
        else:
            misses.append(i)

    def finish(i: int, result: OptimizationResult) -> None:
        results[i] = result
        if stores[i] is not None:
            session, request = items[i]
            stores[i].put(session._request_key(request),
                          result.to_payload())

    for i in misses:
        if items[i][1].system == "looprag":
            _ = items[i][0].retriever  # build shared state before forking
    if (jobs > 1 and len(misses) > 1
            and "fork" in multiprocessing.get_all_start_methods()):
        _run_on_workers([items[i] for i in misses],
                        lambda n, result: finish(misses[n], result),
                        min(jobs, len(misses)))
    else:
        for i in misses:
            session, request = items[i]
            finish(i, session._execute(request))
    return results  # type: ignore[return-value]


def _run_on_workers(items: List[Tuple["OptimizerSession",
                                      OptimizationRequest]],
                    finish: Callable[[int, OptimizationResult], None],
                    width: int) -> None:
    """``items`` on a ``width``-wide worker pool, one driving thread per
    worker.  Workers fork after ``items`` exists, so they find a job's
    session by position, unpickled.  The first failure in item order
    is re-raised once every other item has finished."""
    from ..serve.supervisor import WorkerSupervisor

    supervisor = WorkerSupervisor(width,
                                  lambda job: items[job["position"]][0])
    positions = iter(range(len(items)))
    lock = threading.Lock()
    errors: Dict[int, Exception] = {}

    def drive() -> None:
        while True:
            with lock:
                position = next(positions, None)
            if position is None:
                return
            session, request = items[position]
            try:
                result = supervisor.execute({
                    "request": request, "position": position,
                    "use_store": False})
                with lock:
                    for event in result.events:
                        session.events.publish(event)
                    finish(position, result)
            except Exception as exc:
                with lock:  # keep going: the loss is this item only
                    errors[position] = exc

    supervisor.start()
    try:
        threads = [threading.Thread(target=drive, daemon=True)
                   for _ in range(width)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        supervisor.shutdown()
    if errors:
        raise errors[min(errors)]


# ----------------------------------------------------------------------
# process-wide shared state: one retriever per corpus, one session per
# spec of named settings
# ----------------------------------------------------------------------
_RETRIEVERS: Dict[Tuple[int, int, str], Retriever] = {}
_RETRIEVERS_LOCK = threading.Lock()


def _corpus_retriever(dataset_size: int, seed: int,
                      generator: str) -> Retriever:
    """The memoized retriever over one corpus.

    The index does not depend on the retrieval method (``method`` is a
    per-``rank`` argument), so every method over one corpus shares it;
    the lock keeps concurrent first requests (the serve daemon's
    handler threads, overlapping batches) from indexing it twice.
    """
    key = (dataset_size, seed, generator)
    got = _RETRIEVERS.get(key)
    if got is None:
        with _RETRIEVERS_LOCK:
            got = _RETRIEVERS.get(key)
            if got is None:
                got = _RETRIEVERS[key] = Retriever(
                    cached_dataset(dataset_size, seed, generator))
    return got


class OptimizerSession:
    """A long-lived optimization service instance.

    All configuration is named parts looked up in plain tables
    (validated eagerly, with actionable errors); all heavy state is
    built lazily, once, and shared across every request and worker.

    ``retriever`` injects a pre-built index over a corpus of the
    caller's own (tests and examples use it); such a session skips the
    persistent result store, because its corpus has no key to store
    results by.
    """

    def __init__(self,
                 dataset_size: int = DEFAULT_DATASET_SIZE,
                 seed: int = DEFAULT_SEED,
                 generator: str = "looprag",
                 retrieval_method: str = "loop-aware",
                 llm_backend: str = "simulated",
                 base_compiler: str = "gcc",
                 k: int = DEFAULT_K,
                 retriever: Optional[Retriever] = None,
                 use_store: bool = True) -> None:
        # eager validation: bad settings fail at construction, unknown
        # names with the registered ones in the message
        check_fields(SESSION_FIELDS, {
            "dataset_size": dataset_size, "seed": seed,
            "generator": generator, "retrieval_method": retrieval_method,
            "llm_backend": llm_backend, "base_compiler": base_compiler,
            "k": k, "use_store": use_store}, "session")
        self.llm_backend = llm_backend
        self.retrieval_method = retrieval_method
        self.base = BASE_COMPILERS[base_compiler]
        self.base_name = base_compiler
        self.dataset_size = dataset_size
        self.seed = seed
        self.generator = generator
        self.k = k
        self.events = EventBus()
        self._retriever: Optional[Retriever] = retriever
        #: an injected corpus has no key -> results are not stored
        self._content_keyed = retriever is None
        self.use_store = use_store
        self._pipelines: Dict[Tuple, FeedbackPipeline] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # shared state (lazy, built once)
    # ------------------------------------------------------------------
    @property
    def retriever(self) -> Retriever:
        """The session's retriever (index built on first use).

        Sessions configured by size/seed share the process-wide
        memoized retriever (and through it the two-layer dataset
        cache), so N sessions over the same corpus cost one index.
        """
        if self._retriever is None:
            self._retriever = _corpus_retriever(
                self.dataset_size, self.seed, self.generator)
        return self._retriever

    def pipeline_for(self, system: str, persona: str,
                     time_limit: Optional[float] = None
                     ) -> FeedbackPipeline:
        """The memoized per-(system, persona, time limit) pipeline."""
        if time_limit is None:
            time_limit = (LOOPRAG_TIME_LIMIT if system == "looprag"
                          else BASELINE_TIME_LIMIT)
        key = (system, persona, time_limit)
        with self._lock:
            pipe = self._pipelines.get(key)
            if pipe is not None:
                return pipe
            resolved = lookup(PERSONAS, "persona", persona)
            backend, seed = self.llm_backend, self.seed

            def llm_factory():
                # resolved per run, so REPRO_RETRY_* changes reach
                # long-lived registry sessions too
                factory = lookup(LLM_BACKENDS, "LLM backend", backend)
                return ResilientLLM(factory(resolved, seed),
                                    ResilientCall(f"llm:{backend}"))
            if system == "looprag":
                pipe = FeedbackPipeline(
                    retriever=self.retriever,
                    llm_factory=llm_factory,
                    base_compiler=self.base,
                    retrieval_method=self.retrieval_method,
                    k=self.k,
                    time_limit=time_limit,
                    use_feedback=True,
                    seed=seed)
            else:
                pipe = FeedbackPipeline(
                    retriever=None,
                    llm_factory=llm_factory,
                    base_compiler=self.base,
                    k=self.k,
                    time_limit=time_limit,
                    use_feedback=False,
                    seed=seed)
            self._pipelines[key] = pipe
            return pipe

    # ------------------------------------------------------------------
    # store keying
    # ------------------------------------------------------------------
    def _store(self):
        if not (self.use_store and self._content_keyed):
            return None
        from ..evaluation.store import active_store
        return active_store()

    def _request_key(self, request: OptimizationRequest) -> Tuple:
        """Store key: the echoed request, the session spec and the code.

        ``request.echo()`` is the request object the result document
        prints, so every request field that reaches the document is in
        the key by construction (two kernels sharing a fingerprint
        still differ in their echoed name).
        """
        from ..evaluation.store import code_signature
        spec = {"base_compiler": self.base_name,
                "retrieval_method": self.retrieval_method,
                "llm_backend": self.llm_backend,
                "generator": self.generator,
                "dataset_size": self.dataset_size,
                "seed": self.seed, "k": self.k}
        return (request.echo(), spec, code_signature())

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def optimize(self, request: OptimizationRequest,
                 use_store: Optional[bool] = None,
                 cancel: Optional[CancelToken] = None
                 ) -> OptimizationResult:
        """Serve one request: store hit or live pipeline run.

        ``cancel`` installs a cooperative cancellation scope for the
        duration of the run: the pipeline checkpoints at its step
        boundaries and raises :class:`~repro.cancellation.Cancelled`
        (or ``DeadlineExceeded``) as soon as the token is due.  Store
        hits are served regardless — they cost no pipeline work.
        """
        store = self._store() if use_store is not False else None
        if store is not None:
            hit = self._store_lookup(store, request)
            if hit is not None:
                return hit
        with cancel_scope(cancel):
            result = self._execute(request)
        if store is not None:
            store.put(self._request_key(request), result.to_payload())
        return result

    def optimize_many(self, requests: Sequence[OptimizationRequest],
                      jobs: Optional[int] = None
                      ) -> List[OptimizationResult]:
        """Serve a batch through :func:`optimize_batch`; results align
        with ``requests``."""
        return optimize_batch([(self, r) for r in requests], jobs)

    # ------------------------------------------------------------------
    def _store_lookup(self, store, request: OptimizationRequest
                      ) -> Optional[OptimizationResult]:
        payload = store.get(self._request_key(request))
        if payload is None:
            return None
        try:
            result = OptimizationResult.from_payload(request, payload)
        except (KeyError, TypeError, ValueError):
            return None  # stale/foreign payload: recompute
        self.events.publish(SessionEvent.make(
            0, "cache_hit", {"target": request.program.name,
                             "system": request.system}))
        return result

    def _execute(self, request: OptimizationRequest) -> OptimizationResult:
        log = EventLog(forward=self.events.publish)
        log.emit("request", **request.echo())
        if request.system == "compiler":
            return self._compiler_baseline(request, log)
        pipeline = self.pipeline_for(request.system, request.persona,
                                     request.effective_time_limit())
        pr = pipeline.run(request.program, request.perf(), request.test(),
                          emit=log.emit)
        best = pr.best
        label = ("looprag" if request.system == "looprag" else "base")
        return OptimizationResult(
            request=request,
            system_label=f"{label}-{request.persona}-{self.base_name}",
            passed=pr.passed,
            speedup=pr.speedup,
            baseline_seconds=pr.baseline_seconds,
            best_seconds=pr.best_seconds,
            recipe=(best.response.applied.describe()
                    if best is not None else None),
            best_code=(scop_body_to_c(best.response.program)
                       if best is not None else None),
            stage_pass=pr.stage_pass,
            stage_speedup=pr.stage_speedup,
            pipeline_result=pr,
            _events=log.events())

    def _compiler_baseline(self, request: OptimizationRequest,
                           log: EventLog) -> OptimizationResult:
        """One optimizing-compiler baseline; mirrors the harness exactly."""
        name = request.optimizer
        optimizer = lookup(OPTIMIZERS, "optimizing compiler", name)()
        base = BASE_COMPILERS[optimizer.base_compiler]
        machine: MachineModel = getattr(optimizer, "machine_override",
                                        DEFAULT_MACHINE)
        limit = request.effective_time_limit()
        perf = request.perf()
        baseline = estimate_cached(base.finalize(request.program), perf,
                                   DEFAULT_MACHINE).seconds

        def done(passed: bool, speedup: float, failure: Optional[str],
                 recipe: Optional[str], program: Optional[Program],
                 seconds: Optional[float]) -> OptimizationResult:
            log.emit("selected", passed=passed, speedup=speedup,
                     failure=failure)
            return OptimizationResult(
                request=request, system_label=name, passed=passed,
                speedup=speedup, baseline_seconds=baseline,
                best_seconds=seconds, recipe=recipe,
                best_code=(scop_body_to_c(program)
                           if program is not None else None),
                failure=failure, _events=log.events(),
                _best_program_json=(_dumps(program_to_json(program))
                                    if program is not None else None))

        res = optimizer.optimize(request.program, perf)
        if not res.ok:
            return done(False, 0.0, res.failure, None, None, None)
        final = base.finalize(res.program)
        seconds = estimate_cached(final, perf, machine).seconds
        if seconds > limit:
            return done(False, 0.0,
                        f"execution timeout ({seconds:.0f}s > "
                        f"{limit:.0f}s)", None, None, None)
        return done(True, baseline / seconds if seconds > 0 else 0.0,
                    None, res.recipe.describe(), res.program, seconds)


#: the session registry: one session per spec of named settings
SESSIONS: Dict[Tuple, OptimizerSession] = {}


def shared_session(**spec: Any) -> OptimizerSession:
    """The process-wide session for ``spec``, built on first use.

    ``spec`` holds named settings only; a session over an injected
    ``retriever`` is constructed directly.
    No lock: two racing builders each build one and the first stored
    wins, and a forked worker never inherits a held lock.
    """
    key = tuple(sorted(spec.items()))
    session = SESSIONS.get(key)
    if session is None:
        session = SESSIONS.setdefault(key, OptimizerSession(**spec))
    return session
