"""Service-API tests: session/pipeline equivalence, named parts, events.

The acceptance bar for the API: ``optimize_many`` over a 4-kernel suite
is bit-identical to per-request serial ``optimize``, and a session
request reproduces a hand-built ``FeedbackPipeline`` exactly.
"""

import json
import os

import pytest

from repro.api import (LLM_BACKENDS, OptimizationRequest,
                       OptimizationResult, OptimizerSession,
                       UnknownComponentError)
from repro.api import events as events_mod
from repro.api.events import EventBus, EventLog, SessionEvent
from repro.compilers import GCC
from repro.llm import DEEPSEEK_V3, GPT_4O, SimulatedLLM
from repro.pipeline import FeedbackPipeline
from repro.pipeline.generation import (BASELINE_TIME_LIMIT,
                                       LOOPRAG_TIME_LIMIT)
from repro.retrieval import Retriever
from repro.suites import SUITES
from repro.synthesis import build_dataset
from repro.transforms import TransformError, TransformStep

KERNELS = ("gemm", "syrk", "mvt", "atax")

AXPY_SRC = """
scop axpy(N) {
  array X[N] output;
  array Y[N];
  for (i = 0; i < N; i++)
    X[i] = X[i] + 2.0 * Y[i];
}
"""


@pytest.fixture(scope="module")
def retriever():
    return Retriever(build_dataset(size=60, seed=31))


@pytest.fixture(scope="module")
def benches():
    suite = SUITES["polybench"]()
    return [suite.get(name) for name in KERNELS]


def _result_tuple(result: OptimizationResult):
    return (result.passed, result.speedup, result.baseline_seconds,
            result.best_seconds, result.recipe, result.best_code,
            result.stage_pass, result.stage_speedup)


class TestOptimizeManyEquivalence:
    def test_batch_matches_serial_shim(self, retriever, benches):
        """optimize_many == per-request serial optimize on a fresh
        session, bit for bit, over a 4-kernel suite."""
        session = OptimizerSession(retriever=retriever, seed=0)
        requests = [OptimizationRequest.make(
            bench.program, bench.perf, bench.test, persona="deepseek")
            for bench in benches]
        batch = session.optimize_many(requests, jobs=2)

        serial = OptimizerSession(retriever=retriever, seed=0)
        for request, result in zip(requests, batch):
            outcome = serial.optimize(request, use_store=False) \
                .pipeline_result
            assert result.passed == outcome.passed
            assert result.speedup == outcome.speedup
            assert result.stage_pass == outcome.stage_pass
            assert result.stage_speedup == outcome.stage_speedup
            if outcome.best is None:
                assert result.best_program is None
            else:
                assert result.best_program == outcome.best.response.program
                assert result.recipe == \
                    outcome.best.response.applied.describe()

    def test_parallel_matches_serial(self, retriever, benches):
        requests = [OptimizationRequest.make(
            bench.program, bench.perf, bench.test, persona="gpt4")
            for bench in benches]
        serial = OptimizerSession(retriever=retriever, seed=0) \
            .optimize_many(requests, jobs=1)
        parallel = OptimizerSession(retriever=retriever, seed=0) \
            .optimize_many(requests, jobs=4)
        for a, b in zip(serial, parallel):
            assert _result_tuple(a) == _result_tuple(b)
            assert a.events == b.events

    def test_pool_matches_serial(self, retriever, benches):
        """Pooled results render the same documents and store payloads
        as serial ones, byte for byte."""
        requests = [OptimizationRequest.make(
            bench.program, bench.perf, bench.test)
            for bench in benches[:2]]
        serial = OptimizerSession(retriever=retriever, seed=0) \
            .optimize_many(requests, jobs=1)
        pooled = OptimizerSession(retriever=retriever, seed=0) \
            .optimize_many(requests, jobs=2)
        for a, b in zip(serial, pooled):
            assert _result_tuple(a) == _result_tuple(b)
            assert json.dumps(a.to_json_dict(), sort_keys=True) == \
                json.dumps(b.to_json_dict(), sort_keys=True)
            assert a.to_payload() == b.to_payload()
            assert not b.from_cache


class TestShimEquivalence:
    """A session request against a hand-built pipeline core."""

    def test_looprag_shim_matches_pipeline(self, retriever, benches):
        bench = benches[0]
        reference = FeedbackPipeline(
            retriever=retriever,
            llm_factory=lambda: SimulatedLLM(DEEPSEEK_V3, 7),
            base_compiler=GCC,
            time_limit=LOOPRAG_TIME_LIMIT,
            use_feedback=True,
            seed=7).run(bench.program, bench.perf, bench.test)
        session = OptimizerSession(retriever=retriever, seed=7)
        result = session.optimize(OptimizationRequest.make(
            bench.program, bench.perf, bench.test, system="looprag",
            persona=DEEPSEEK_V3), use_store=False)
        assert result.pipeline_result == reference

    def test_basellm_shim_matches_pipeline(self, benches):
        bench = benches[1]
        reference = FeedbackPipeline(
            retriever=None,
            llm_factory=lambda: SimulatedLLM(GPT_4O, 3),
            base_compiler=GCC,
            time_limit=BASELINE_TIME_LIMIT,
            use_feedback=False,
            seed=3).run(bench.program, bench.perf, bench.test)
        session = OptimizerSession(seed=3, use_store=False)
        result = session.optimize(OptimizationRequest.make(
            bench.program, bench.perf, bench.test, system="basellm",
            persona=GPT_4O), use_store=False)
        assert result.pipeline_result == reference


class TestRequestStore:
    def test_roundtrip_is_bit_identical(self, benches, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        bench = benches[0]
        request = OptimizationRequest.make(bench.program, bench.perf,
                                           bench.test)
        cold = OptimizerSession(dataset_size=40, seed=0)
        live = cold.optimize(request)
        assert not live.from_cache
        warm = OptimizerSession(dataset_size=40, seed=0)
        cached = warm.optimize(request)
        assert cached.from_cache
        assert _result_tuple(cached) == _result_tuple(live)
        assert cached.events == live.events
        assert cached.best_program == live.best_program
        # byte-stable JSON document, warm or cold
        assert cached.to_json_dict() == live.to_json_dict()

    def test_fingerprint_aliases_get_their_own_documents(self, tmp_path,
                                                         monkeypatch):
        # s121 and s131 share a Program.fingerprint() but not a name,
        # and the document echoes the name: one store must not serve
        # the first alias's document to the second
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        tsvc = SUITES["tsvc"]()
        aliases = [tsvc.get(name) for name in ("s121", "s131")]
        assert aliases[0].program.fingerprint() \
            == aliases[1].program.fingerprint()
        session = OptimizerSession(dataset_size=40)
        for bench in aliases:
            request = OptimizationRequest.make(bench.program, bench.perf,
                                               bench.test)
            stored = session.optimize(request)
            fresh = session.optimize(request, use_store=False)
            assert stored.to_json_dict() == fresh.to_json_dict()
            assert not stored.from_cache
            assert session.optimize(request).from_cache

    def test_injected_corpus_skips_store(self, retriever, benches,
                                         tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = OptimizerSession(retriever=retriever)
        bench = benches[2]
        request = OptimizationRequest.make(bench.program, bench.perf,
                                           bench.test)
        first = session.optimize(request)
        second = session.optimize(request)
        assert not first.from_cache and not second.from_cache
        assert _result_tuple(first) == _result_tuple(second)


class TestEvents:
    def test_event_stream_is_deterministic(self, retriever, benches):
        bench = benches[0]
        request = OptimizationRequest.make(bench.program, bench.perf,
                                           bench.test)
        a = OptimizerSession(retriever=retriever).optimize(request)
        b = OptimizerSession(retriever=retriever).optimize(request)
        assert a.events == b.events
        kinds = {e.kind for e in a.events}
        assert {"request", "retrieval_done", "round_start",
                "candidate_generated", "candidate_compiled",
                "candidate_tested", "stage_done", "selected"} <= kinds
        # local sequence numbers, gapless
        assert [e.seq for e in a.events] == list(range(len(a.events)))

    def test_bus_subscription(self, retriever, benches):
        bench = benches[0]
        session = OptimizerSession(retriever=retriever)
        seen = []
        unsubscribe = session.events.subscribe(seen.append)
        result = session.optimize(OptimizationRequest.make(
            bench.program, bench.perf, bench.test))
        unsubscribe()
        assert tuple(seen) == result.events
        session.optimize(OptimizationRequest.make(
            bench.program, bench.perf, bench.test))
        assert len(seen) == len(result.events)  # unsubscribed

    def test_fork_pool_republishes_events_to_parent(self, retriever,
                                                    benches):
        """Pooled workers emit inside their fork; the parent
        re-publishes each result's log so subscribers still see every
        event."""
        session = OptimizerSession(retriever=retriever)
        seen = []
        session.events.subscribe(seen.append)
        requests = [OptimizationRequest.make(
            bench.program, bench.perf, bench.test)
            for bench in benches[:2]]
        results = session.optimize_many(requests, jobs=2)
        expected = [e for r in results for e in r.events]
        assert sorted(e.to_dict()["kind"] for e in seen) == \
            sorted(e.to_dict()["kind"] for e in expected)
        assert len(seen) == len(expected)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_drops_inherited_subscribers(self):
        """A subscriber the parent registered is never called from a
        forked child: a hook writing to a shared pipe delivers once."""
        bus = EventBus()
        read_fd, write_fd = os.pipe()
        bus.subscribe(lambda event: os.write(write_fd, b"x"))
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            try:
                bus.publish(SessionEvent.make(0, "child", {}))
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        bus.publish(SessionEvent.make(0, "parent", {}))
        os.close(write_fd)
        try:
            assert os.read(read_fd, 16) == b"x"
        finally:
            os.close(read_fd)

    def test_concurrent_batches_on_one_session(self, retriever,
                                               benches):
        """Several pooled optimize_many calls on ONE session may
        overlap; each batch's workers serve only that batch."""
        import threading

        session = OptimizerSession(retriever=retriever)
        requests = [OptimizationRequest.make(
            bench.program, bench.perf, bench.test)
            for bench in benches[:2]]
        outcomes = []
        errors = []

        def run_batch():
            try:
                outcomes.append(session.optimize_many(
                    requests, jobs=2))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=run_batch)
                   for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(outcomes) == 3
        first = [_result_tuple(r) for r in outcomes[0]]
        assert all([_result_tuple(r) for r in batch] == first
                   for batch in outcomes)

    def test_raising_subscriber_is_dropped(self):
        bus = EventBus()

        def bad(_event):
            raise RuntimeError("boom")
        bus.subscribe(bad)
        log = EventLog(forward=bus.publish)
        log.emit("request", target="x")
        log.emit("selected", passed=True)
        assert bus.subscriber_count == 0
        assert len(log) == 2

    def test_wall_time_excluded_from_identity(self):
        a = SessionEvent.make(0, "request", {"target": "k"}, wall=1.0)
        b = SessionEvent.make(0, "request", {"target": "k"}, wall=2.0)
        assert a == b
        assert "wall" not in a.to_dict()
        assert SessionEvent.from_dict(a.to_dict()) == a

    def test_event_log_is_a_bounded_ring(self, monkeypatch):
        monkeypatch.setattr(events_mod, "DEFAULT_EVENT_LOG_LIMIT", 3)
        log = EventLog()
        for i in range(5):
            log.emit("tick", i=i)
        assert len(log) == 3
        assert log.dropped == 2
        retained = log.events()
        # seq keeps counting, so truncation is recognizable
        assert [e.seq for e in retained] == [2, 3, 4]
        assert retained[0].seq > 0

    def test_event_log_forwards_even_what_the_ring_drops(self,
                                                          monkeypatch):
        monkeypatch.setattr(events_mod, "DEFAULT_EVENT_LOG_LIMIT", 1)
        seen = []
        log = EventLog(forward=seen.append)
        log.emit("a")
        log.emit("b")
        assert [e.kind for e in seen] == ["a", "b"]  # live saw all
        assert [e.kind for e in log.events()] == ["b"]
        assert log.dropped == 1


class TestRegistries:
    def test_unknown_llm_backend_lists_names(self):
        with pytest.raises(UnknownComponentError,
                           match=r"unknown LLM backend 'gpt-live'.*"
                                 r"registered: simulated"):
            OptimizerSession(llm_backend="gpt-live")

    def test_unknown_retrieval_method_lists_names(self):
        with pytest.raises(UnknownComponentError,
                           match=r"loop-aware, bm25, weighted"):
            OptimizerSession(retrieval_method="dense")

    def test_unknown_base_compiler_lists_names(self):
        with pytest.raises(UnknownComponentError,
                           match=r"unknown base compiler 'tcc'"):
            OptimizerSession(base_compiler="tcc")

    @pytest.mark.parametrize("field, value", [
        ("dataset_size", 0), ("dataset_size", -3), ("k", 0), ("k", -1)])
    def test_counts_below_one_name_the_field(self, field, value):
        with pytest.raises(ValueError,
                           match=rf"session field '{field}' must be at "
                                 rf"least 1, got {value}"):
            OptimizerSession(**{field: value})

    def test_unknown_optimizer_lists_names(self, benches):
        session = OptimizerSession(use_store=False)
        request = OptimizationRequest.make(
            benches[0].program, benches[0].perf, system="compiler",
            optimizer="llvm-bolt")
        with pytest.raises(UnknownComponentError,
                           match=r"pluto, polly, graphite, perspective, "
                                 r"icx"):
            session.optimize(request)

    def test_unknown_persona_lists_names(self, retriever, benches):
        session = OptimizerSession(retriever=retriever)
        request = OptimizationRequest.make(
            benches[0].program, benches[0].perf, benches[0].test,
            persona="claude")
        with pytest.raises(UnknownComponentError,
                           match=r"deepseek, gpt4, deepseek-v2.5"):
            session.optimize(request)

    def test_requests_carry_registered_persona_names(self, benches):
        """A registered profile becomes its name; an unregistered one,
        or anything else that is not a name, is refused."""
        from dataclasses import replace

        program = benches[0].program
        assert OptimizationRequest.make(
            program, {}, {}, persona=GPT_4O).persona == "gpt4"
        for persona in (replace(DEEPSEEK_V3, p_attempt=0.1),
                        replace(DEEPSEEK_V3, name="deepseek-x"), 5):
            with pytest.raises(UnknownComponentError,
                               match=r"deepseek, gpt4, deepseek-v2.5"):
                OptimizationRequest.make(program, {}, {}, persona=persona)

    def test_unknown_request_system(self, benches):
        with pytest.raises(UnknownComponentError,
                           match=r"looprag, basellm, compiler"):
            OptimizationRequest.make(benches[0].program, {}, {},
                                     system="genetic")

    def test_unknown_transform_kind_lists_names(self):
        with pytest.raises(TransformError, match=r"registered: tiling"):
            TransformStep.make("loop-unroll")

    def test_named_tables_agree(self, tmp_path, capsys):
        """``OPTIMIZERS`` is the one list of optimizing compilers: the
        bench tokens, each class's name and base compiler, and the
        ``repro compilers`` report all follow it."""
        from repro.cli import BENCH_COMPILERS, main
        from repro.compilers import BASE_COMPILERS, OPTIMIZERS

        assert BENCH_COMPILERS == tuple(OPTIMIZERS)
        for name, cls in OPTIMIZERS.items():
            assert cls.name == name
            assert cls.base_compiler in BASE_COMPILERS
        kernel = tmp_path / "axpy.scop"
        kernel.write_text(AXPY_SRC)
        assert main(["compilers", str(kernel)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(OPTIMIZERS)

    def test_pluggable_optimizer_with_class_base(self, benches,
                                                 monkeypatch):
        """An optimizer added to ``OPTIMIZERS`` declares its base
        compiler on the class and is then fully servable."""
        from repro.compilers import OPTIMIZERS
        from repro.compilers.base import Optimizer
        from repro.transforms import TransformRecipe

        class NoOp(Optimizer):
            name = "noop"
            base_compiler = "gcc"

            def optimize(self, program, params):
                return self._done(program, TransformRecipe())

        monkeypatch.setitem(OPTIMIZERS, "noop", NoOp)
        session = OptimizerSession(use_store=False)
        result = session.optimize(OptimizationRequest.make(
            benches[0].program, benches[0].perf, system="compiler",
            optimizer="noop"))
        assert result.passed and result.speedup == 1.0

    def test_pluggable_llm_backend(self, retriever, benches, monkeypatch):
        """A backend added under a new name is fully usable."""
        calls = []

        def tracing_backend(persona, seed):
            calls.append((persona.name, seed))
            return SimulatedLLM(persona, seed)

        monkeypatch.setitem(LLM_BACKENDS, "tracing", tracing_backend)
        bench = benches[0]
        request = OptimizationRequest.make(bench.program, bench.perf,
                                           bench.test)
        traced = OptimizerSession(
            retriever=retriever, llm_backend="tracing") \
            .optimize(request)
        stock = OptimizerSession(retriever=retriever) \
            .optimize(request)
        assert calls == [("deepseek", 0)]
        assert _result_tuple(traced) == _result_tuple(stock)
