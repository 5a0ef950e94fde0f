"""Feedback-pipeline integration tests."""

import pytest

from repro.api import OptimizationRequest, OptimizerSession
from repro.compilers import GCC
from repro.ir import parse_scop
from repro.llm import DEEPSEEK_V3, GPT_4O, SimulatedLLM
from repro.pipeline import FeedbackPipeline, ISSUE_ET, STAGES
from repro.pipeline.generation import (BASELINE_TIME_LIMIT,
                                       LOOPRAG_TIME_LIMIT)
from repro.retrieval import Retriever
from repro.suites import SUITES
from repro.synthesis import build_dataset

PERF = {"NI": 1200, "NJ": 1200, "NK": 1200}
TEST = {"NI": 7, "NJ": 6, "NK": 5}


def run(session, program, system, persona):
    """One store-free request; the pipeline's own result."""
    return session.optimize(
        OptimizationRequest.make(program, PERF, TEST, system=system,
                                 persona=persona),
        use_store=False).pipeline_result


@pytest.fixture(scope="module")
def retriever():
    return Retriever(build_dataset(size=60, seed=31))


@pytest.fixture(scope="module")
def looprag(retriever):
    session = OptimizerSession(retriever=retriever, seed=2)
    return lambda program: run(session, program, "looprag", DEEPSEEK_V3)


def base_llm(program):
    return run(OptimizerSession(seed=2, use_store=False), program,
               "basellm", GPT_4O)


class TestLoopragSystem:
    def test_gemm_passes_and_speeds_up(self, looprag, gemm):
        out = looprag(gemm)
        assert out.passed
        assert out.speedup > 3.0

    def test_best_program_verified(self, looprag, gemm):
        import numpy as np
        from repro.runtime import run as execute
        out = looprag(gemm)
        a = execute(gemm, TEST)
        b = execute(out.best.response.program, TEST)
        for name in a.outputs:
            assert np.allclose(a.outputs[name], b.outputs[name],
                               rtol=1e-6, atol=1e-9)

    def test_deterministic(self, retriever, gemm):
        a, b = (run(OptimizerSession(retriever=retriever, seed=7), gemm,
                    "looprag", DEEPSEEK_V3) for _ in range(2))
        assert a.speedup == b.speedup
        assert a.passed == b.passed

    def test_stage_snapshots_monotone(self, looprag, gemm):
        stages = dict(looprag(gemm).stage_pass)
        order = [stages[s] for s in STAGES]
        # once passing, later stages never regress
        for earlier, later in zip(order, order[1:]):
            assert later >= earlier

    def test_candidates_recorded(self, looprag, gemm):
        assert len(looprag(gemm).candidates) >= 14  # two rounds of K=7

    def test_demos_attached(self, looprag, gemm):
        assert len(looprag(gemm).demos) == 3


class TestBaseLLM:
    def test_runs_without_retrieval(self, gemm):
        out = base_llm(gemm)
        assert out.candidates
        # no feedback: only the first round of candidates exists
        assert len(out.candidates) == 7

    def test_stage_snapshots_flat(self, gemm):
        stages = dict(base_llm(gemm).stage_pass)
        assert len({stages[s] for s in STAGES}) == 1


class TestTimeLimit:
    def test_slow_candidates_classified_et(self, retriever):
        # an artificial 1-microsecond budget makes everything time out
        heavy = parse_scop("""
        scop heavy(N) {
          array A[N][N] output;
          array B[N][N];
          for (i = 0; i < N; i++)
            for (j = 0; j < N; j++)
              A[i][j] += B[j][i] * 2.0;
        }
        """)
        pipeline = FeedbackPipeline(
            retriever=retriever,
            llm_factory=lambda: SimulatedLLM(DEEPSEEK_V3, 2),
            base_compiler=GCC,
            time_limit=1e-9, seed=2)
        result = pipeline.run(heavy, {"N": 2000}, {"N": 8})
        assert not result.passed
        assert result.speedup == 0.0


class TestIssueClassification:
    def test_all_issue_kinds_observable(self, retriever):
        """Across a handful of kernels the pipeline must exhibit CE, IA
        and passing candidates (the failure taxonomy of §4.3)."""
        sources = [
            ("k1", "scop k1(N) { array A[N][N] output; array B[N][N]; "
                   "for (i = 1; i < N; i++) for (j = 1; j < N; j++) "
                   "A[i][j] = A[i-1][j-1] + B[i][j]; }"),
            ("k2", "scop k2(N) { array A[N][N] output; "
                   "for (i = 0; i < N; i++) for (j = 1; j < N; j++) "
                   "A[i][j] = A[i][j-1] * 0.5 + 1.0; }"),
            ("k3", "scop k3(N) { array A[N][N] output; array B[N][N]; "
                   "array C[N][N] output; "
                   "for (i = 1; i < N; i++) { "
                   "for (j = 1; j < N; j++) A[i][j] = A[i-1][j] + B[i][j]; "
                   "for (j = 1; j < N; j++) C[i][j] = A[i][j] * B[i][j-1]; "
                   "} }"),
        ]
        issues = set()
        for name, src in sources:
            program = parse_scop(src)
            for seed in range(3):
                pipeline = FeedbackPipeline(
                    retriever=retriever,
                    llm_factory=lambda s=seed: SimulatedLLM(GPT_4O, s),
                    base_compiler=GCC, seed=seed)
                result = pipeline.run(program, {"N": 1200}, {"N": 9})
                for cand in result.candidates:
                    if cand.issue:
                        issues.add(cand.issue)
        assert "CE" in issues
        assert "IA" in issues


    def test_verdict_keeps_its_own_pipelines_time_limit(self):
        """A LOOPRAG candidate over its 120 s limit stays an ET after a
        baseline pipeline (600 s limit) ran on the same thread."""
        bench = SUITES["polybench"]().get("covariance")
        session = OptimizerSession(dataset_size=40, seed=0,
                                   use_store=False)
        result = session.optimize(OptimizationRequest.make(
            bench.program, bench.perf, bench.test)).pipeline_result
        slow = [c for c in result.candidates
                if c.report is not None and c.report.passed
                and LOOPRAG_TIME_LIMIT < c.seconds <= BASELINE_TIME_LIMIT]
        assert slow
        assert all(c.issue == ISSUE_ET and not c.passed for c in slow)
        session.optimize(OptimizationRequest.make(
            bench.program, bench.perf, bench.test, system="basellm"))
        assert all(c.issue == ISSUE_ET and not c.passed for c in slow)
