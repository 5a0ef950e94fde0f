"""In-memory span tracer that wraps the program's layers from outside.

Nothing under ``src/`` is edited: :func:`install` replaces each layer's
public function or method by a timing wrapper, by patching module
attributes (every module under ``repro`` that holds the function, found
by identity through ``sys.modules``) and class attributes.  A span is
``(id, name, start, end, parent id, request id, thread id)``; spans are
kept in memory and written out at the end as Chrome trace-event JSON
(``chrome://tracing`` and Perfetto read it).

Self time is a span's duration minus the time its direct child spans
cover.  A layer's ``calls`` counts entries into the layer: a span whose
parent belongs to the same layer (``is_legal_schedule`` calling
``schedule_violations``) adds self time but no call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: span names that are not layers: regions the benchmark opens and the
#: request roots.  Their self time is what ``other.self_s`` reports.
ROOTS = ("bench.setup", "bench.build", "api.optimize", "serve.handle")
ROOT_REQUESTS = ("api.optimize", "serve.handle")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._counts_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._tls = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def count(self, name: str) -> None:
        with self._counts_lock:
            self.counts[name] += 1

    def _enter(self, name: str) -> Callable[[], None]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        parent, rid = stack[-1] if stack else (0, 0)
        if name in ROOT_REQUESTS and not rid:
            rid = next(self._rids)
        sid = next(self._ids)
        stack.append((sid, rid))
        start = time.perf_counter()

        def _exit() -> None:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, rid,
                               threading.get_ident()))
        return _exit

    @contextmanager
    def region(self, name: str):
        """One benchmark-opened root span around the ``with`` body."""
        done = self._enter(name)
        try:
            yield
        finally:
            done()

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                done()
            if observe is not None:
                observe(tracer, result)
            return result
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return counted

    # -- patching ------------------------------------------------------
    def patch_function(self, module: str, attr: str, make: Callable,
                       only: Optional[str] = None) -> None:
        """Replace ``module.attr`` wherever a ``repro`` module holds it.

        Modules are reached through ``sys.modules``, so the package
        re-export ``repro.analysis.dependences`` (a function shadowing
        the submodule attribute) is patched like any other holder.
        ``only`` restricts patching to one importing module.
        """
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        patched = 0
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if only is not None and mod_name != only:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)
                    patched += 1
        if not patched:
            raise RuntimeError(f"no import site found for {module}.{attr}")

    def patch_method(self, cls, attr: str, make: Callable) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- output --------------------------------------------------------
    def chrome_events(self, label: str) -> List[Dict]:
        """Chrome trace events ("X" complete events, microseconds); the
        writer assigns process ids."""
        if not self.spans:
            return []
        origin = min(span[2] for span in self.spans)
        tids: Dict[int, int] = {}
        events = [{"name": "process_name", "ph": "M",
                   "args": {"name": label}}]
        for sid, name, start, end, parent, rid, tid in self.spans:
            events.append({
                "name": name, "ph": "X",
                "tid": tids.setdefault(tid, len(tids) + 1),
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": sid, "parent": parent, "request": rid}})
        return events


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _observe_compile(tracer: Tracer, errors) -> None:
    tracer.count("llm.candidates")
    if not errors:
        tracer.count("llm.compile_ok")


def _observe_check(tracer: Tracer, report) -> None:
    tracer.count("testing.reports")
    if report.passed:
        tracer.count("testing.passed")


def _observe_store_get(tracer: Tracer, payload) -> None:
    if payload is not None:
        tracer.count("evaluation.store.hits")


def _import_all() -> None:
    """Import every ``repro`` module so every import site exists."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer the benchmark reports (see ``workloads.json``)."""
    _import_all()
    m = sys.modules

    def span(name, observe=None):
        return lambda fn: tracer.wrap(name, fn, observe)

    def count(name):
        return lambda fn: tracer.counter(name, fn)

    deps = "repro.analysis.dependences"
    tracer.patch_function(deps, "dependences", span("analysis.dependences"))
    tracer.patch_function(deps, "compute_dependences",
                          count("analysis.dependences.misses"))
    for attr in ("is_legal_schedule", "schedule_violations",
                 "parallel_violations"):
        tracer.patch_function(deps, attr, span("analysis.legality"))
    tracer.patch_method(m["repro.compilers.base"].BaseCompiler, "finalize",
                        span("compilers.finalize"))
    retriever = m["repro.retrieval.retriever"].Retriever
    tracer.patch_method(retriever, "__init__", span("retrieval.index"))
    tracer.patch_method(retriever, "demonstrations",
                        span("retrieval.demonstrations"))
    tracer.patch_function("repro.synthesis.store", "dataset_from_payload",
                          span("synthesis.load"))
    tracer.patch_function("repro.synthesis.dataset", "build_dataset",
                          span("synthesis.build"))
    tracer.patch_method(m["repro.llm.simulated"].SimulatedLLM, "generate",
                        span("llm.generate"))
    # only the pipeline's call site: it checks generated candidates
    tracer.patch_function("repro.ir.validate", "check_program",
                          lambda fn: _observed(tracer, fn),
                          only="repro.pipeline.generation")
    checker = m["repro.testing.equivalence"].EquivalenceChecker
    tracer.patch_method(checker, "__init__", span("testing.checker_build"))
    tracer.patch_method(checker, "check",
                        span("testing.check", _observe_check))
    tracer.patch_function("repro.runtime.interpreter", "execute",
                          span("runtime.execute"))
    analytical = "repro.machine.analytical"
    tracer.patch_function(analytical, "estimate_cached",
                          span("machine.estimate"))
    tracer.patch_function(analytical, "estimate",
                          count("machine.estimate.misses"))
    tracer.patch_function("repro.codegen.cprinter", "scop_body_to_c",
                          span("codegen.print"))
    store = m["repro.evaluation.store"].ResultStore
    tracer.patch_method(store, "get",
                        span("evaluation.store.get", _observe_store_get))
    tracer.patch_method(store, "put", span("evaluation.store.put"))
    journal = m["repro.serve.journal"].RequestJournal
    for attr in ("admitted", "started", "completed"):
        tracer.patch_method(journal, attr, span("serve.journal.write"))
    local = m["repro.storage.local"].LocalShardedStore
    tracer.patch_method(local, "append", span("storage.append"))
    tracer.patch_method(local, "read", span("storage.read"))
    tracer.patch_method(m["repro.serve.admission"].AdmissionController,
                        "acquire", span("serve.admission"))
    # request roots: every span below one carries its request id
    tracer.patch_method(m["repro.api.session"].OptimizerSession,
                        "optimize", span("api.optimize"))
    tracer.patch_method(m["repro.serve.daemon"].ServeDaemon,
                        "handle_optimize", span("serve.handle"))
    return tracer


def _observed(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def observed(*args, **kwargs):
        errors = fn(*args, **kwargs)
        _observe_compile(tracer, errors)
        return errors
    return observed


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def layer_table(spans) -> Dict[str, Dict[str, float]]:
    """name -> {calls, self_s, total_s} over a list of spans."""
    child_time: Dict[int, float] = defaultdict(float)
    names: Dict[int, str] = {}
    for sid, name, start, end, parent, _rid, _tid in spans:
        names[sid] = name
        if parent:
            child_time[parent] += end - start
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for sid, name, start, end, parent, _rid, _tid in spans:
        row = table[name]
        row["self_s"] += (end - start) - child_time[sid]
        if names.get(parent) != name:
            row["calls"] += 1
            row["total_s"] += end - start
    return dict(table)


def root_time(spans) -> float:
    """Summed duration of parentless spans: the traced wall time.

    On one thread this is the wall time of the benchmark's traced
    regions; with concurrent daemon threads each request root counts
    on its own thread's timeline.
    """
    return sum(end - start for _sid, _n, start, end, parent, _r, _t in spans
               if not parent)


def covered_time(spans) -> float:
    """Union length of all layer spans, per thread (independent of
    :func:`layer_table`; used to check the self-time accounting)."""
    by_thread: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, name, start, end, _p, _r, tid in spans:
        if name not in ROOTS:
            by_thread[tid].append((start, end))
    total = 0.0
    for intervals in by_thread.values():
        intervals.sort()
        cur_start, cur_end = intervals[0]
        for start, end in intervals[1:]:
            if start > cur_end:
                total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        total += cur_end - cur_start
    return total


def ancestry(spans) -> Dict[str, int]:
    """'child<parent' layer pair -> count, for the fidelity checks."""
    names = {span[0]: span[1] for span in spans}
    pairs: Dict[str, int] = defaultdict(int)
    for _sid, name, _s, _e, parent, _r, _t in spans:
        if parent in names:
            pairs[f"{name}<{names[parent]}"] += 1
    return dict(pairs)


def summary(tracer: Tracer) -> Dict:
    """Everything the parent needs from one traced process (JSON-safe)."""
    spans = list(tracer.spans)
    return {"layers": layer_table(spans), "counts": dict(tracer.counts),
            "root_s": root_time(spans), "covered_s": covered_time(spans),
            "ancestry": ancestry(spans)}


def write_chrome(path, events: List[Dict]) -> None:
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
