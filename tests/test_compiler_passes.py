"""Unit tests for the individual optimizer passes (compilers.passes)."""

import pytest

from repro.analysis import dependences, is_legal_schedule
from repro.compilers.passes import (align_statement_loops,
                                    best_band_permutation,
                                    distribute_for_tiling, fuse_greedily,
                                    parallelize_outermost,
                                    tile_shared_band, tile_statement_tails,
                                    vectorize_innermost)
from repro.ir import parse_scop
from repro.transforms import TransformStep, pad_statements, shared_band


class TestAlign:
    def test_syrk_alignment(self, syrk):
        deps = dependences(syrk)
        out, steps = align_statement_loops(syrk, deps)
        assert steps, "the k/j interchange of §2.2 must be found"
        assert steps[0].kind == "interchange"
        assert steps[0].arg_dict()["stmts"] == ["S2"]
        assert is_legal_schedule(out, deps)

    def test_already_aligned_untouched(self, jacobi2d):
        deps = dependences(jacobi2d)
        _out, steps = align_statement_loops(jacobi2d, deps)
        assert steps == []

    def test_single_statement_untouched(self, stream):
        _out, steps = align_statement_loops(stream, dependences(stream))
        assert steps == []


class TestFuse:
    def test_gemm_fusion_after_alignment(self, gemm):
        deps = dependences(gemm)
        aligned, _ = align_statement_loops(gemm, deps)
        fused, steps = fuse_greedily(aligned, deps)
        assert any(s.kind == "fusion" for s in steps)
        assert is_legal_schedule(fused, deps)

    def test_illegal_fusion_skipped(self, jacobi2d):
        deps = dependences(jacobi2d)
        plain = TransformStep.make("fusion", col=2).apply(
            pad_statements(jacobi2d))
        assert not is_legal_schedule(plain, deps)
        # jacobi sweeps cannot fuse without shifting: the illegal plain
        # fusion is skipped and a shifted one taken instead
        fused, steps = fuse_greedily(jacobi2d, deps)
        assert [s.kind for s in steps[:2]] == ["shifting", "fusion"]
        assert is_legal_schedule(fused, deps)

    def test_shift_enabled_fusion(self):
        p = parse_scop("""
        scop sh(N) {
          array A[N] output;
          array B[N] output;
          for (i = 2; i < N - 2; i++)
            A[i] = B[i] + 1.0;
          for (i = 2; i < N - 2; i++)
            B[i] = A[i + 1] * 2.0;
        }
        """)
        deps = dependences(p)
        fused, steps = fuse_greedily(p, deps)
        kinds = [s.kind for s in steps]
        assert "shifting" in kinds and "fusion" in kinds
        assert is_legal_schedule(fused, deps)


class TestPermutation:
    def test_bad_order_fixed(self):
        p = parse_scop("""
        scop colmaj(N) {
          array A[N][N] output;
          array B[N][N];
          for (j = 0; j < N; j++)
            for (i = 0; i < N; i++)
              A[i][j] = B[i][j] * 2.0;
        }
        """)
        deps = dependences(p)
        out, steps = best_band_permutation(p, deps, {"N": 2000})
        assert steps, "column-major traversal should be permuted"
        assert is_legal_schedule(out, deps)

    def test_good_order_kept(self, stream):
        deps = dependences(stream)
        _out, steps = best_band_permutation(stream, deps, {"LEN": 100000})
        assert steps == []


class TestTiling:
    def test_band_tiled(self, syrk):
        deps = dependences(syrk)
        aligned, _ = align_statement_loops(syrk, deps)
        fused, _ = fuse_greedily(aligned, deps)
        tiled, steps = tile_shared_band(fused, deps, 32)
        assert steps and steps[-1].kind == "tiling"
        assert is_legal_schedule(tiled, deps)

    def test_skew_fallback(self):
        p = parse_scop("""
        scop diag(N) {
          array A[N+2][N+2] output;
          for (i = 2; i < N; i++)
            for (j = 2; j < N; j++)
              A[i][j] = A[i-1][j+1] + 1.0;
        }
        """)
        deps = dependences(p)
        tiled, steps = tile_shared_band(p, deps, 32, allow_skew=True)
        kinds = [s.kind for s in steps]
        assert "skewing" in kinds and "tiling" in kinds
        assert is_legal_schedule(tiled, deps)

    def test_tails_tiled_after_band(self, gemm):
        deps = dependences(gemm)
        aligned, _ = align_statement_loops(gemm, deps)
        fused, _ = fuse_greedily(aligned, deps)
        banded, _ = tile_shared_band(fused, deps, 32)
        tailed, steps = tile_statement_tails(banded, deps, 32)
        assert steps and steps[0].arg_dict()["stmts"] == ["S2"]
        assert is_legal_schedule(tailed, deps)

    def test_distribute_for_tiling(self):
        p = parse_scop("""
        scop dt(N) {
          array A[N][N] output;
          array B[N][N] output;
          for (i = 2; i < N - 2; i++)
            for (j = 2; j < N - 2; j++) {
              A[i][j] = B[i][j] + 1.0;
              B[i][j] = A[i - 1][j + 2] * 2.0;
            }
        }
        """)
        deps = dependences(p)
        out, steps = distribute_for_tiling(p, deps, 32)
        kinds = [s.kind for s in steps]
        assert "distribution" in kinds and "tiling" in kinds
        assert is_legal_schedule(out, deps)


class TestPragmaPasses:
    def test_parallelize_outermost_legal(self, gemm):
        deps = dependences(gemm)
        out, steps = parallelize_outermost(gemm, deps)
        assert steps and steps[0].arg_dict()["col"] == 1
        assert out.parallel_dims == frozenset({1})

    def test_parallelize_skips_recurrence(self, recur):
        deps = dependences(recur)
        _out, steps = parallelize_outermost(recur, deps)
        assert steps == []

    def test_vectorize_innermost_reduction_gate(self):
        p = parse_scop("""
        scop dot(N) {
          array s[2] output;
          array a[N];
          for (i = 0; i < N; i++)
            s[0] += a[i] * a[i];
        }
        """)
        deps = dependences(p)
        _out, no_red = vectorize_innermost(p, deps,
                                           allow_reductions=False)
        out, with_red = vectorize_innermost(p, deps,
                                            allow_reductions=True)
        assert no_red == []
        assert with_red and out.vector_dims == frozenset({1})
