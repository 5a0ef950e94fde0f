"""Compiler baseline tests: correctness, recipes and relative behaviour."""

import numpy as np
import pytest

from repro.analysis import dependences, is_legal_schedule
from repro.compilers import (BASE_COMPILERS, CLANG, GCC, ICX, Graphite,
                             IcxOptimizer, Perspective, Polly, Pluto)
from repro.ir import parse_scop
from repro.machine import estimate
from repro.runtime import run

BIG = {"NI": 1200, "NJ": 1200, "NK": 1200}
SMALL = {"NI": 7, "NJ": 6, "NK": 5}

#: the ``recur`` fixture's kernel with its recurrence broken
SEQ_COPY_SRC = """
scop recur(LEN) {
  array X[LEN] output;
  array Y[LEN];
  for (i = 1; i < LEN; i++)
    X[i] = Y[i-1] + 1.0;
}
"""


def correct(original, optimized, params):
    a = run(original, params)
    b = run(optimized, params)
    return all(np.allclose(a.outputs[k], b.outputs[k]) for k in a.outputs)


class TestBaseCompilers:
    def test_gcc_vectorizes_stream(self, stream):
        out = GCC.finalize(stream)
        assert out.vector_dims == frozenset({1})

    def test_gcc_skips_recurrence(self, recur):
        assert GCC.finalize(recur).vector_dims == frozenset()

    def test_icx_vectorizes_reduction(self):
        p = parse_scop("""
        scop dot(N) {
          array S[N] output;
          array X[N];
          array Y[N];
          for (i = 0; i < N; i++)
            for (j = 0; j < N; j++)
              S[i] += X[j] * Y[j];
        }
        """)
        assert GCC.finalize(p).vector_dims == frozenset()
        assert ICX.finalize(p).vector_dims == frozenset({3})

    def test_tiled_innermost_not_autovectorized(self, stream):
        from repro.transforms import tile
        t = tile(stream, [1], 32)
        assert GCC.finalize(t).vector_dims == frozenset()

    def test_finalize_idempotent(self, gemm):
        once = GCC.finalize(gemm)
        assert GCC.finalize(once).vector_dims == once.vector_dims

    def test_registry(self):
        assert set(BASE_COMPILERS) == {"gcc", "clang", "icx"}


class TestPluto:
    def test_gemm_recipe_shape(self, gemm):
        res = Pluto().optimize(gemm, BIG)
        assert res.ok
        kinds = res.recipe.kinds()
        assert "interchange" in kinds
        assert "fusion" in kinds
        assert "tiling" in kinds
        assert "parallel" in kinds

    def test_gemm_correct(self, gemm):
        res = Pluto().optimize(gemm, BIG)
        assert correct(gemm, res.program, SMALL)

    def test_gemm_big_speedup(self, gemm):
        res = Pluto().optimize(gemm, BIG)
        base = estimate(GCC.finalize(gemm), BIG).seconds
        opt = estimate(GCC.finalize(res.program), BIG).seconds
        assert base / opt > 10

    def test_syrk_reproduces_listing1(self, syrk):
        res = Pluto().optimize(syrk, {"N": 1200, "M": 1000})
        kinds = set(res.recipe.kinds())
        assert {"interchange", "fusion", "tiling", "parallel"} <= kinds
        assert correct(syrk, res.program, {"N": 8, "M": 5})

    def test_jacobi_parallel_not_tiled(self, jacobi2d):
        res = Pluto().optimize(jacobi2d, {"T": 100, "N": 1000})
        assert correct(jacobi2d, res.program, {"T": 2, "N": 7})
        assert res.program.parallel_dims

    def test_recurrence_untouched_parallel(self, recur):
        res = Pluto().optimize(recur, {"LEN": 100000})
        assert correct(recur, res.program, {"LEN": 17})
        assert not res.program.parallel_dims

    def test_legal_by_construction(self, gemm, syrk, jacobi2d, stream):
        for p in (gemm, syrk, jacobi2d, stream):
            res = Pluto().optimize(p, {k: 600 for k in p.params})
            assert is_legal_schedule(res.program, dependences(p))


class TestPolly:
    def test_dummy_call_fails_scop_detection(self, stream):
        tagged = stream.with_tags("dummy-call")
        res = Polly().optimize(tagged, {"LEN": 1000})
        assert not res.ok and "scop" in res.failure

    def test_pure_annotation_recovers(self, stream):
        tagged = stream.with_tags("dummy-call", "pure-annotated")
        assert Polly().optimize(tagged, {"LEN": 1000}).ok

    def test_gemm_correct(self, gemm):
        res = Polly().optimize(gemm, BIG)
        assert res.ok and correct(gemm, res.program, SMALL)

    def test_weaker_than_pluto_on_gemm(self, gemm):
        pluto_t = estimate(GCC.finalize(
            Pluto().optimize(gemm, BIG).program), BIG).seconds
        polly_t = estimate(CLANG.finalize(
            Polly().optimize(gemm, BIG).program), BIG).seconds
        assert pluto_t <= polly_t * 1.5


class TestGraphite:
    def test_dummy_call_fails(self, stream):
        res = Graphite().optimize(stream.with_tags("dummy-call"),
                                  {"LEN": 100})
        assert not res.ok

    def test_pure_annotation_triggers_dce(self, stream):
        res = Graphite().optimize(
            stream.with_tags("dummy-call", "pure-annotated"), {"LEN": 100})
        assert not res.ok and "dce" in res.failure

    def test_bails_on_flow_dependence(self, gemm):
        res = Graphite().optimize(gemm, BIG)
        assert res.ok and not res.recipe  # emits the original

    def test_parallelizes_doall(self, stream):
        res = Graphite().optimize(stream, {"LEN": 100000})
        assert res.ok and res.program.parallel_dims


class TestPerspective:
    def test_profiling_timeout_on_huge_loop(self, stream):
        res = Perspective().optimize(stream, {"LEN": 5_000_000_000})
        assert not res.ok and "timeout" in res.failure

    def test_speculates_over_war(self):
        # carried WAR only: privatization/speculation makes this DOALL
        p = parse_scop("""
        scop shiftup(N) {
          array A[N] output;
          for (i = 0; i < N - 1; i++)
            A[i] = A[i + 1] * 2.0;
        }
        """)
        res = Perspective().optimize(p, {"N": 100000})
        assert res.ok and res.program.parallel_dims

    def test_dep_dense_kernel_fails_analysis(self):
        # LU-style elimination: dozens of dependence classes overwhelm
        # the validation planner
        p = parse_scop("""
        scop lu_like(N) {
          array A[N][N] output;
          array b[N];
          array x[N] output;
          array y[N];
          for (i = 0; i < N; i++) {
            for (j = 0; j < i; j++) {
              for (k = 0; k < j; k++)
                A[i][j] -= A[i][k] * A[k][j];
              A[i][j] = A[i][j] / A[j][j];
            }
            for (j = i; j < N; j++)
              for (k = 0; k < i; k++)
                A[i][j] -= A[i][k] * A[k][j];
          }
          for (i = 0; i < N; i++) {
            y[i] = b[i];
            for (j = 0; j < i; j++)
              y[i] -= A[i][j] * y[j];
            x[i] = y[i] + 1.0;
          }
        }
        """)
        res = Perspective().optimize(p, {"N": 1000})
        assert not res.ok and "analysis" in res.failure

    def test_flow_dependence_blocks_speculation(self, recur):
        res = Perspective().optimize(recur, {"LEN": 200000})
        assert not res.ok and "speculation" in res.failure

    def test_correct_when_it_succeeds(self, stream):
        res = Perspective().optimize(stream, {"LEN": 200000})
        assert res.ok and correct(stream, res.program, {"LEN": 50})


class TestIcx:
    def test_vectorizes_only(self, gemm):
        res = IcxOptimizer().optimize(gemm, BIG)
        assert res.ok
        assert not res.program.parallel_dims
        assert res.program.vector_dims


class TestFinalizeFromSource:
    """``finalize(candidate, source)`` judges a schedule-only candidate
    on its source's dependences; the verdict must equal judging it on
    its own.  Under ``REPRO_ANALYSIS=reference`` the per-instance walk
    arbitrates."""

    @pytest.fixture(scope="class")
    def finalized(self):
        """``(candidate, source)`` of every finalize call the deepseek
        looprag pipeline makes on the TSVC and LORE kernels."""
        from repro.api import OptimizationRequest, OptimizerSession
        from repro.compilers.base import BaseCompiler
        from repro.evaluation.harness import suites

        calls = []
        finalize = BaseCompiler.finalize

        def recording(self, program, source=None):
            if source is not None:
                calls.append((program, source))
            return finalize(self, program, source)

        session = OptimizerSession(dataset_size=60, seed=0,
                                   use_store=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BaseCompiler, "finalize", recording)
            for name in ("tsvc", "lore"):
                for bench in suites()[name]:
                    session.optimize(OptimizationRequest.make(
                        bench.program, bench.perf, bench.test,
                        system="looprag", persona="deepseek"),
                        use_store=False)
        return calls

    def test_source_verdict_equals_own(self, finalized):
        assert any(c.kernel_key() == s.kernel_key() for c, s in finalized)
        for candidate, source in finalized:
            for base in BASE_COMPILERS.values():
                assert base.finalize(candidate, source) == \
                    base.finalize(candidate), (candidate.name, base.name)

    def test_judged_on_source_only_when_kernels_match(self, recur,
                                                      monkeypatch):
        from repro.compilers import base as base_module
        from repro.ir import parse_scop
        from repro.transforms import pad_statements

        analyzed = []
        real = base_module.dependences

        def spy(program, *args):
            analyzed.append(program)
            return real(program, *args)

        monkeypatch.setattr(base_module, "dependences", spy)
        marked = recur.with_parallel(frozenset({1}))
        assert GCC.finalize(marked, recur) == GCC.finalize(marked)
        assert analyzed[0] is pad_statements(recur)
        # a different body: the source's recurrence must not block it
        copy = parse_scop(SEQ_COPY_SRC)
        assert copy.kernel_key() != recur.kernel_key()
        analyzed.clear()
        assert GCC.finalize(copy, recur).vector_dims == frozenset({1})
        assert analyzed == [pad_statements(copy)]
        assert analyzed[0] is not pad_statements(recur)
