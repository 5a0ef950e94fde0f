"""Property-based equivalence: vectorized engine vs reference interpreter.

The vectorized block executor must be *bit-identical* to the reference
tree-walking interpreter: outputs, checksum, executed-instance count,
branch-coverage ratio, and the exact exception class on failures.  These
properties pin that contract across synthesized programs, schedule
rewrites (legal and illegal), compound assignments, guards, and
out-of-bounds / budget-exhausted candidates.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import parse_scop
from repro.runtime import (BranchCoverage, allocate, checksum,
                           clone_storage, engine_override, execute)
from repro.runtime.interpreter import engine_name
from repro.synthesis.generator import ExampleSynthesizer
from repro.transforms import TransformError, interchange, skew, tile

_SETTINGS = dict(deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def observe(program, params, budget=2_000_000, variant=0):
    """Run one engine; capture everything the contract covers."""
    coverage = BranchCoverage()
    storage = allocate(program, params, variant)
    try:
        instances = execute(program, params, storage, coverage=coverage,
                            budget=budget)
    except Exception as exc:
        return ("error", type(exc).__name__, coverage.ratio())
    outputs = {name: storage[name].copy() for name in program.outputs}
    return ("ok", instances, checksum(storage, program.outputs),
            coverage.ratio(), outputs)


def assert_engines_agree(program, params, budget=2_000_000, variant=0):
    with engine_override("reference"):
        ref = observe(program, params, budget, variant)
    with engine_override("vectorized"):
        got = observe(program, params, budget, variant)
    assert ref[0] == got[0], (ref, got)
    if ref[0] == "error":
        assert ref == got  # same exception class + coverage
        return
    assert ref[1] == got[1], "executed-instance counts differ"
    assert ref[2] == got[2], "checksums differ"
    assert ref[3] == got[3], "coverage ratios differ"
    for name, want in ref[4].items():
        out = got[4][name]
        assert out.shape == want.shape
        assert np.array_equal(want, out, equal_nan=True), \
            f"output {name} differs"


class TestSynthesizedPrograms:
    @settings(max_examples=25, **_SETTINGS)
    @given(index=st.integers(min_value=0, max_value=400),
           size=st.integers(min_value=4, max_value=11),
           variant=st.integers(min_value=0, max_value=3))
    def test_synthesized(self, index, size, variant):
        program = ExampleSynthesizer(base_seed=7).synthesize(index)
        assert_engines_agree(program, {"N": size}, variant=variant)

    @settings(max_examples=15, **_SETTINGS)
    @given(index=st.integers(min_value=0, max_value=200),
           cols=st.tuples(st.integers(min_value=1, max_value=5),
                          st.integers(min_value=1, max_value=5)),
           size=st.integers(min_value=4, max_value=9))
    def test_transformed_candidates(self, index, cols, size):
        """Schedule rewrites — including illegal ones — stay identical."""
        program = ExampleSynthesizer(base_seed=11).synthesize(index)
        a, b = cols
        for transform in (
                lambda p: interchange(p, min(a, b), max(a, b) + 1),
                lambda p: tile(p, [a], 2 + b),
                lambda p: skew(p, target_col=a, source_col=b, factor=1)):
            try:
                candidate = transform(program)
            except (TransformError, Exception):
                continue
            assert_engines_agree(candidate, {"N": size})


GEMM = """
scop gemm(NI, NJ, NK) {
  scalars alpha=1.5 beta=1.2;
  array C[NI][NJ] output;
  array A[NI][NK];
  array B[NK][NJ];
  for (i = 0; i < NI; i++) {
    for (j = 0; j < NJ; j++)
      C[i][j] *= beta;
    for (k = 0; k < NK; k++)
      for (j = 0; j < NJ; j++)
        C[i][j] += alpha * A[i][k] * B[k][j];
  }
}
"""


class TestCompoundOps:
    @settings(max_examples=20, **_SETTINGS)
    @given(op=st.sampled_from(["=", "+=", "-=", "*=", "/="]),
           size=st.integers(min_value=3, max_value=16),
           variant=st.integers(min_value=0, max_value=2))
    def test_each_assignment_op(self, op, size, variant):
        src = f"""
        scop ops(N) {{
          array A[N][N] output;
          array B[N][N];
          for (i = 0; i < N; i++)
            for (j = 0; j < N; j++)
              A[i][j] {op} B[i][j] + 0.5;
        }}
        """
        assert_engines_agree(parse_scop(src), {"N": size}, variant=variant)

    @settings(max_examples=15, **_SETTINGS)
    @given(size=st.integers(min_value=3, max_value=9),
           variant=st.integers(min_value=0, max_value=3))
    def test_reduction_chain(self, size, variant):
        assert_engines_agree(
            parse_scop(GEMM),
            {"NI": size, "NJ": size + 1, "NK": size + 2}, variant=variant)

    @settings(max_examples=10, **_SETTINGS)
    @given(size=st.integers(min_value=3, max_value=8))
    def test_calls_vector_safe_and_not(self, size):
        # sqrt vectorizes bit-exactly; exp must stay on the scalar path
        src = """
        scop funcs(N) {
          array A[N] output;
          array B[N];
          for (i = 0; i < N; i++)
            A[i] = sqrt(B[i]) + exp(B[i]) * fabs(B[i] - 0.5);
        }
        """
        assert_engines_agree(parse_scop(src), {"N": size})

    @settings(max_examples=10, **_SETTINGS)
    @given(size=st.integers(min_value=4, max_value=24))
    def test_sequential_recurrence(self, size):
        """Dependence-carrying runs must demote to the scalar path."""
        src = """
        scop rec(N) {
          array X[N] output;
          for (i = 1; i < N; i++)
            X[i] = X[i-1] * 1.01 + 0.25;
        }
        """
        assert_engines_agree(parse_scop(src), {"N": size})

    @settings(max_examples=10, **_SETTINGS)
    @given(size=st.integers(min_value=10, max_value=24),
           threshold=st.integers(min_value=0, max_value=30))
    def test_guarded_at_vector_scale(self, size, threshold):
        """Guard coverage recording matches on block-sized runs."""
        src = f"""
        scop guarded(N) {{
          array A[N][N] output;
          array B[N][N];
          for (i = 0; i < N; i++)
            for (j = 0; j < N; j++)
              if (i + j >= {threshold})
                A[i][j] = B[i][j] * 3.0;
        }}
        """
        assert_engines_agree(parse_scop(src), {"N": size})


class TestErrorClasses:
    @settings(max_examples=15, **_SETTINGS)
    @given(shift=st.integers(min_value=-3, max_value=3),
           size=st.integers(min_value=3, max_value=16))
    def test_out_of_bounds_candidates(self, shift, size):
        src = f"""
        scop oob(N) {{
          array A[N] output;
          array B[N];
          for (i = 0; i < N; i++)
            A[i + {shift}] = B[i];
        }}
        """
        assert_engines_agree(parse_scop(src), {"N": size})

    @settings(max_examples=10, **_SETTINGS)
    @given(budget=st.integers(min_value=1, max_value=80),
           size=st.integers(min_value=4, max_value=8))
    def test_budget_exhaustion(self, budget, size):
        assert_engines_agree(
            parse_scop(GEMM), {"NI": size, "NJ": size, "NK": size},
            budget=budget)

    @settings(max_examples=10, **_SETTINGS)
    @given(size=st.integers(min_value=3, max_value=16),
           read_shift=st.integers(min_value=-2, max_value=2))
    def test_read_out_of_bounds(self, size, read_shift):
        src = f"""
        scop roob(N) {{
          array A[N] output;
          array B[N];
          for (i = 0; i < N; i++)
            A[i] = B[i + {read_shift}] * 2.0;
        }}
        """
        assert_engines_agree(parse_scop(src), {"N": size})


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with engine_override("turbo"):
            with pytest.raises(ValueError):
                engine_name()

    @pytest.mark.skipif(os.environ.get("REPRO_ENGINE") is not None,
                        reason="environment pins an execution engine "
                               "(reference-spec CI job)")
    def test_default_is_vectorized(self):
        assert engine_name() == "vectorized"

    def test_override_restores_environment(self):
        before = os.environ.get("REPRO_ENGINE")
        with engine_override("reference"):
            assert engine_name() == "reference"
        assert os.environ.get("REPRO_ENGINE") == before

    def test_error_messages_match(self):
        src = """
        scop oob(N) {
          array A[N] output;
          for (i = 0; i < N; i++)
            A[i + 1] = 1.0;
        }
        """
        program = parse_scop(src)
        messages = {}
        for engine in ("reference", "vectorized"):
            with engine_override(engine):
                storage = allocate(program, {"N": 5})
                try:
                    execute(program, {"N": 5}, storage)
                except Exception as exc:
                    messages[engine] = (type(exc).__name__, str(exc))
        assert messages["reference"] == messages["vectorized"]

    def test_partial_writes_before_error_match(self):
        """An OOB mid-stream leaves identical partial state behind."""
        src = """
        scop partial(N) {
          array A[N] output;
          array B[N] output;
          for (i = 0; i < N; i++) {
            B[i] = 7.0;
            A[i + 1] = B[i];
          }
        }
        """
        program = parse_scop(src)
        states = {}
        for engine in ("reference", "vectorized"):
            with engine_override(engine):
                storage = allocate(program, {"N": 6})
                try:
                    execute(program, {"N": 6}, storage)
                except Exception:
                    pass
                states[engine] = clone_storage(storage)
        for name in states["reference"]:
            assert np.array_equal(states["reference"][name],
                                  states["vectorized"][name])

    def test_native_engine_rejected(self):
        """A stale ``REPRO_ENGINE=native`` fails loudly, naming the
        engines that remain, instead of silently running another one."""
        program = parse_scop(GEMM)
        params = {"NI": 2, "NJ": 2, "NK": 2}
        storage = allocate(program, params)
        with engine_override("native"):
            with pytest.raises(ValueError) as info:
                execute(program, params, storage)
        message = str(info.value)
        assert "'native'" in message
        assert "vectorized" in message and "reference" in message
