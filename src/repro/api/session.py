"""The optimizer session: shared state once, typed requests many times.

``OptimizerSession`` is the long-lived service object the ROADMAP's
production framing asks for.  It owns every piece of expensive shared
state exactly once — the synthesized corpus (via ``cached_dataset``'s
two cache layers), the retriever index, the process-wide dependence /
compiled-kernel / legality caches it shares with the rest of the
system, and the machine model — and serves typed
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

Components are resolved from the registries in
:mod:`repro.api.registry`; unknown names raise
:class:`~repro.registry.UnknownComponentError` listing the registered
alternatives.

Determinism: each pipeline run seeds its RNG from ``(session seed,
program fingerprint)``, never from call order, so batching, pooling and
caching cannot change any result.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..cancellation import CancelToken, cancel_scope
from ..codegen import scop_body_to_c
from ..compilers import OPTIMIZER_BASE
from ..compilers.base import BaseCompiler
from ..ir.program import Program
from ..ir.serialize import program_from_json, program_to_json
from ..llm.personas import PERSONAS, Persona
from ..machine.analytical import estimate_cached
from ..machine.model import DEFAULT_MACHINE, MachineModel
from ..pipeline.generation import (BASELINE_TIME_LIMIT, DEFAULT_K,
                                   FeedbackPipeline, LOOPRAG_TIME_LIMIT,
                                   PipelineResult)
from ..registry import UnknownComponentError
from ..retrieval.retriever import Retriever
from ..synthesis.dataset import Dataset
from .events import EventBus, EventLog, SessionEvent
from .registry import (BASE_COMPILER_REGISTRY, LLM_BACKENDS,
                       OPTIMIZER_REGISTRY, RETRIEVAL_METHODS)

#: request kinds the session serves
SYSTEMS = ("looprag", "basellm", "compiler")

DEFAULT_DATASET_SIZE = 400
DEFAULT_SEED = 0

#: store payload format version; bump on incompatible result changes
RESULT_SCHEMA = 1


def _params_tuple(params: Union[Mapping[str, int],
                                Sequence[Tuple[str, int]], None]
                  ) -> Tuple[Tuple[str, int], ...]:
    if params is None:
        return ()
    if isinstance(params, Mapping):
        return tuple(sorted((str(k), int(v)) for k, v in params.items()))
    return tuple(sorted((str(k), int(v)) for k, v in params))


@dataclass(frozen=True)
class OptimizationRequest:
    """One typed unit of work for a session.

    ``system`` selects the engine: ``"looprag"`` (retrieval + feedback),
    ``"basellm"`` (instruction prompting only) or ``"compiler"`` (one
    optimizing-compiler baseline, named by ``optimizer``).  Parameter
    bindings are stored as sorted item tuples so requests are hashable
    and pickle to worker processes; use :meth:`make` to pass plain
    mappings.
    """

    program: Program
    perf_params: Tuple[Tuple[str, int], ...]
    test_params: Tuple[Tuple[str, int], ...] = ()
    system: str = "looprag"
    #: persona by registered name, or a :class:`Persona` object for
    #: ad-hoc profiles (those skip the persistent store — no stable key)
    persona: Union[str, Persona] = "deepseek"
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
        if system not in SYSTEMS:
            raise UnknownComponentError("request system", system, SYSTEMS)
        return OptimizationRequest(
            program=program,
            perf_params=_params_tuple(perf_params),
            test_params=_params_tuple(test_params),
            system=system, persona=persona, optimizer=optimizer,
            time_limit=time_limit, tag=tag)

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

    def persona_name(self) -> str:
        if isinstance(self.persona, Persona):
            return self.persona.name
        return self.persona

    def echo(self) -> Dict[str, Any]:
        """Deterministic JSON form of the request (for reports)."""
        return {
            "target": self.program.name,
            "fingerprint": self.program.fingerprint(),
            "system": self.system,
            "persona": (self.persona_name()
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
    instead.
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
    events: Tuple[SessionEvent, ...] = ()
    from_cache: bool = False
    pipeline_result: Optional[PipelineResult] = field(
        default=None, compare=False)
    _best_program_json: Optional[dict] = field(default=None, compare=False,
                                               repr=False)

    # ------------------------------------------------------------------
    @property
    def best_program(self) -> Optional[Program]:
        if self.pipeline_result is not None and \
                self.pipeline_result.best is not None:
            return self.pipeline_result.best.response.program
        if self._best_program_json is not None:
            return program_from_json(self._best_program_json)
        return None

    def stage(self, name: str) -> bool:
        return dict(self.stage_pass).get(name, self.passed)

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """Serialize for the persistent result store."""
        best = self.best_program
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
            "events": [e.to_dict() for e in self.events],
            "best_program": (program_to_json(best)
                             if best is not None else None),
        }

    @staticmethod
    def from_payload(request: OptimizationRequest,
                     payload: dict) -> "OptimizationResult":
        if payload.get("schema") != RESULT_SCHEMA:
            raise ValueError("stale result payload")
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
            events=tuple(SessionEvent.from_dict(e)
                         for e in payload["events"]),
            from_cache=True,
            _best_program_json=payload["best_program"])

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
    stores = [session._store() if session._cacheable(request) else None
              for session, request in items]
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


class OptimizerSession:
    """A long-lived optimization service instance.

    All configuration is named components resolved through registries
    (validated eagerly, with actionable errors); all heavy state is
    built lazily, once, and shared across every request and worker.

    ``dataset``/``retriever`` inject pre-built corpora (ad-hoc
    ablations and tests use this); such sessions skip the persistent
    result store because their corpus has no content signature to key
    it by.
    """

    def __init__(self,
                 dataset_size: int = DEFAULT_DATASET_SIZE,
                 seed: int = DEFAULT_SEED,
                 generator: str = "looprag",
                 retrieval_method: str = "loop-aware",
                 llm_backend: str = "simulated",
                 base_compiler: Union[str, BaseCompiler] = "gcc",
                 machine: MachineModel = DEFAULT_MACHINE,
                 k: int = DEFAULT_K,
                 dataset: Optional[Dataset] = None,
                 retriever: Optional[Retriever] = None,
                 use_store: bool = True) -> None:
        # eager component validation: typos fail at construction, with
        # the registered names in the message
        self.llm_backend = llm_backend
        LLM_BACKENDS.get(llm_backend)
        self.retrieval_method = retrieval_method
        self._demo_strategy = RETRIEVAL_METHODS.get(retrieval_method)
        if isinstance(base_compiler, str):
            self.base = BASE_COMPILER_REGISTRY.get(base_compiler)
            self.base_name = base_compiler
        else:
            self.base = base_compiler
            self.base_name = base_compiler.name
        self.machine = machine
        self.dataset_size = dataset_size
        self.seed = seed
        self.generator = generator
        self.k = k
        self.events = EventBus()
        self._retriever: Optional[Retriever] = retriever
        if retriever is None and dataset is not None:
            self._retriever = Retriever(dataset)
        #: injected corpora have no dataset signature -> not store-keyed
        self._content_keyed = (dataset is None and retriever is None
                               and machine is DEFAULT_MACHINE)
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
            from ..evaluation.harness import shared_retriever
            self._retriever = shared_retriever(
                self.dataset_size, self.seed, self.generator,
                self.retrieval_method)
        return self._retriever

    @property
    def dataset(self) -> Dataset:
        return self.retriever.dataset

    def _persona(self, persona: Union[str, Persona]) -> Persona:
        if isinstance(persona, Persona):
            return persona
        if persona not in PERSONAS:
            raise UnknownComponentError("persona", persona,
                                        tuple(PERSONAS))
        return PERSONAS[persona]

    def _cacheable(self, request: OptimizationRequest) -> bool:
        """Ad-hoc persona objects have no stable content key."""
        if request.system == "compiler":
            return True
        if isinstance(request.persona, str):
            return True
        return PERSONAS.get(request.persona.name) is request.persona

    def pipeline_for(self, system: str, persona: Union[str, Persona],
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
            resolved = self._persona(persona)
            backend = LLM_BACKENDS.get(self.llm_backend)
            seed = self.seed
            if system == "looprag":
                pipe = FeedbackPipeline(
                    retriever=self.retriever,
                    llm_factory=lambda: backend(resolved, seed),
                    base_compiler=self.base,
                    machine=self.machine,
                    retrieval_method=self.retrieval_method,
                    k=self.k,
                    time_limit=time_limit,
                    use_feedback=True,
                    seed=seed,
                    demo_strategy=self._demo_strategy)
            else:
                pipe = FeedbackPipeline(
                    retriever=None,
                    llm_factory=lambda: backend(resolved, seed),
                    base_compiler=self.base,
                    machine=self.machine,
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
        store = (self._store()
                 if use_store is not False and self._cacheable(request)
                 else None)
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
            system_label=(f"{label}-{request.persona_name()}"
                          f"-{self.base_name}"),
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
            events=log.events(),
            pipeline_result=pr)

    def _compiler_baseline(self, request: OptimizationRequest,
                           log: EventLog) -> OptimizationResult:
        """One optimizing-compiler baseline; mirrors the harness exactly."""
        name = request.optimizer
        if name is None:
            raise ValueError("compiler requests need optimizer=<name>")
        optimizer = OPTIMIZER_REGISTRY.get(name)()
        # plugin optimizers declare their base compiler on the class;
        # the paper's five baselines are mapped in OPTIMIZER_BASE
        base_name = getattr(optimizer, "base_compiler",
                            OPTIMIZER_BASE.get(name))
        if base_name is None:
            raise ValueError(
                f"optimizer {name!r} declares no base compiler; set a "
                f"`base_compiler` attribute on the class or add it to "
                f"repro.compilers.OPTIMIZER_BASE")
        base = BASE_COMPILER_REGISTRY.get(base_name)
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
                failure=failure, events=log.events(),
                _best_program_json=(program_to_json(program)
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
