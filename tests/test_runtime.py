"""Interpreter and data-initialisation tests."""

import numpy as np
import pytest

from repro.ir import parse_scop
from repro.runtime import (RuntimeExecutionError, allocate, checksum,
                           execute, run)


class TestReferenceSemantics:
    def test_gemm_matches_numpy(self, gemm):
        params = {"NI": 7, "NJ": 6, "NK": 5}
        st = allocate(gemm, params)
        expected = st["C"] * 1.2 + 1.5 * st["A"] @ st["B"]
        result = run(gemm, params)
        assert np.allclose(result.outputs["C"], expected)

    def test_syrk_matches_numpy(self, syrk):
        params = {"N": 8, "M": 6}
        st = allocate(syrk, params)
        C, A = st["C"].copy(), st["A"]
        for i in range(8):
            for j in range(i + 1):
                C[i, j] *= 1.2
                for k in range(6):
                    C[i, j] += 1.5 * A[i, k] * A[j, k]
        assert np.allclose(run(syrk, params).outputs["C"], C)

    def test_jacobi_two_sweeps(self, jacobi2d):
        params = {"T": 2, "N": 8}
        st = allocate(jacobi2d, params)
        A, B = st["A"].copy(), st["B"].copy()
        for _t in range(2):
            for i in range(1, 7):
                for j in range(1, 7):
                    B[i, j] = 0.2 * (A[i, j] + A[i, j - 1] + A[i, 1 + j]
                                     + A[1 + i, j] + A[i - 1, j])
            for i in range(1, 7):
                for j in range(1, 7):
                    A[i, j] = 0.2 * (B[i, j] + B[i, j - 1] + B[i, 1 + j]
                                     + B[1 + i, j] + B[i - 1, j])
        out = run(jacobi2d, params).outputs
        assert np.allclose(out["A"], A)
        assert np.allclose(out["B"], B)

    def test_sequential_recurrence(self, recur):
        out = run(recur, {"LEN": 10}).outputs["X"]
        st = allocate(recur, {"LEN": 10})
        X = st["X"].copy()
        for i in range(1, 10):
            X[i] = X[i - 1] + 1.0
        assert np.allclose(out, X)

    def test_instance_count(self, gemm):
        result = run(gemm, {"NI": 4, "NJ": 3, "NK": 2})
        assert result.instances == 4 * 3 + 4 * 2 * 3


def _variant_checksum(program, params, variant):
    storage = allocate(program, params, variant)
    execute(program, params, storage)
    return checksum(storage, program.outputs)


class TestDeterminism:
    def test_same_variant_same_checksum(self, gemm):
        params = {"NI": 5, "NJ": 5, "NK": 5}
        assert _variant_checksum(gemm, params, 3) == \
            _variant_checksum(gemm, params, 3)

    def test_different_variants_differ(self, gemm):
        params = {"NI": 5, "NJ": 5, "NK": 5}
        assert _variant_checksum(gemm, params, 0) != \
            _variant_checksum(gemm, params, 1)


class TestErrors:
    def test_out_of_bounds_raises(self):
        p = parse_scop("""
        scop oob(N) {
          array A[N] output;
          for (i = 0; i < N; i++)
            A[i + 1] = 1.0;
        }
        """)
        with pytest.raises(RuntimeExecutionError):
            run(p, {"N": 4})

    def test_negative_index_raises(self):
        p = parse_scop("""
        scop neg(N) {
          array A[N] output;
          for (i = 0; i < N; i++)
            A[i - 1] = 1.0;
        }
        """)
        with pytest.raises(RuntimeExecutionError):
            run(p, {"N": 4})

    def test_budget(self, gemm):
        from repro.runtime import BudgetExceededError
        with pytest.raises(BudgetExceededError):
            run(gemm, {"NI": 50, "NJ": 50, "NK": 50}, budget=100)


class TestInitKinds:
    @pytest.mark.parametrize("kind", ["poly", "zeros", "ones", "ramp",
                                      "alt", "identity"])
    def test_kinds_allocate(self, kind):
        from repro.ir.program import ArrayDecl
        from repro.ir import aff
        from repro.runtime import init_array
        decl = ArrayDecl("A", (aff(4), aff(5)), kind)
        arr = init_array(decl, (4, 5))
        assert arr.shape == (4, 5)
        assert np.isfinite(arr).all()

    def test_checksum_order_stable(self, gemm):
        st = allocate(gemm, {"NI": 4, "NJ": 4, "NK": 4})
        c1 = checksum(st, ("C", "A"))
        c2 = checksum(st, ("A", "C"))
        assert c1 == c2
