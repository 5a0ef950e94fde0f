"""Property-based equivalence: vectorized analysis vs scalar reference.

The vectorized dependence/legality engine must be *bit-identical* to the
scalar reference walk — every `Dependence` (witnesses, distance vectors,
ordering), every legality and parallelism verdict, and the error
class/message on budget exhaustion.  These properties pin that contract
across the synthesis generator corpus, the canonical kernels, and
schedule rewrites both legal and illegal.
"""

import gc
import itertools
import os
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dependences import (analysis_engine_name,
                                        analysis_override,
                                        compute_dependences,
                                        parallel_violations,
                                        schedule_violations)
from repro.ir import parse_scop
from repro.ir.schedule import Schedule
from repro.suites import lore, polybench, tsvc
from repro.synthesis.generator import ExampleSynthesizer
from repro.transforms import interchange, skew, tile

_SETTINGS = dict(deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def both_engines(fn):
    with analysis_override("reference"):
        ref = fn()
    with analysis_override("vectorized"):
        vec = fn()
    return ref, vec


def assert_dependences_identical(program, params=None):
    ref, vec = both_engines(lambda: compute_dependences(program, params))
    assert len(ref) == len(vec)
    for a, b in zip(ref, vec):
        # dataclass equality covers kind/source/target/array/distances/
        # common iterators/carried flag AND the witness tuples — the
        # engines must agree witness for witness, not just class-wise
        assert a == b, f"dependence differs:\n  ref {a}\n  vec {b}"
        assert a.witnesses == b.witnesses and hash(a) == hash(b)
    return ref


def candidate_schedules(program):
    candidates = []
    for col_a, col_b in itertools.combinations((1, 3, 5), 2):
        for make in (lambda p: interchange(p, col_a, col_b),
                     lambda p: tile(p, [col_a], 2),
                     lambda p: skew(p, target_col=col_a,
                                    source_col=col_b, factor=1)):
            try:
                candidates.append(make(program))
            except Exception:
                continue
    return candidates


class TestSynthesizedPrograms:
    @settings(max_examples=25, **_SETTINGS)
    @given(index=st.integers(min_value=0, max_value=400))
    def test_dependences_identical(self, index):
        program = ExampleSynthesizer(base_seed=7).synthesize(index)
        assert_dependences_identical(program)

    @settings(max_examples=10, **_SETTINGS)
    @given(index=st.integers(min_value=0, max_value=200),
           size=st.integers(min_value=4, max_value=14))
    def test_explicit_params_identical(self, index, size):
        program = ExampleSynthesizer(base_seed=11).synthesize(index)
        assert_dependences_identical(program, {"N": size})

    @settings(max_examples=15, **_SETTINGS)
    @given(index=st.integers(min_value=0, max_value=300))
    def test_legality_verdicts_identical(self, index):
        program = ExampleSynthesizer(base_seed=3).synthesize(index)
        deps = assert_dependences_identical(program)
        for candidate in candidate_schedules(program):
            ref, vec = both_engines(
                lambda: schedule_violations(candidate, deps))
            # identity, not just equality: the verdict lists must pick
            # out the same Dependence objects in the same order
            assert [id(d) for d in ref] == [id(d) for d in vec]

    @settings(max_examples=15, **_SETTINGS)
    @given(index=st.integers(min_value=0, max_value=300))
    def test_parallelism_verdicts_identical(self, index):
        program = ExampleSynthesizer(base_seed=5).synthesize(index)
        deps = assert_dependences_identical(program)
        for dim in range(program.schedule_width):
            ref, vec = both_engines(
                lambda: parallel_violations(program, deps, dim))
            assert [id(d) for d in ref] == [id(d) for d in vec]


class TestCanonicalKernels:
    def test_fixture_kernels(self, gemm, syrk, jacobi2d, stream, recur):
        for program in (gemm, syrk, jacobi2d, stream, recur):
            deps = assert_dependences_identical(program)
            for candidate in candidate_schedules(program):
                ref, vec = both_engines(
                    lambda: schedule_violations(candidate, deps))
                assert [id(d) for d in ref] == [id(d) for d in vec]
                # the candidate's own analysis, after the source's: the
                # vectorized engine now replays witnesses from the slot
                # tables the source's pass memoized
                assert_dependences_identical(candidate)

    @pytest.mark.parametrize(
        "name", [bench.name for bench in polybench()][:8])
    def test_polybench_kernels(self, name):
        """The first eight PolyBench kernels: dependences witness for
        witness, then every legality and parallelism verdict."""
        program = polybench().get(name).program
        deps = assert_dependences_identical(program)
        for candidate in candidate_schedules(program):
            ref, vec = both_engines(
                lambda: schedule_violations(candidate, deps))
            assert [id(d) for d in ref] == [id(d) for d in vec]
        for dim in range(program.schedule_width):
            ref, vec = both_engines(
                lambda: parallel_violations(program, deps, dim))
            assert [id(d) for d in ref] == [id(d) for d in vec]

    @pytest.mark.parametrize(
        "suite,name",
        [("tsvc", bench.name) for bench in tsvc()]
        + [("lore", bench.name) for bench in lore()])
    def test_tsvc_and_lore_kernels(self, suite, name):
        """Every TSVC and LORE kernel's dependences, witness for
        witness."""
        suites = {"tsvc": tsvc, "lore": lore}
        assert_dependences_identical(suites[suite]().get(name).program)

    def test_witness_overflow_rotation_identical(self, gemm):
        """gemm's reduction class overflows the witness bound; the crc
        rotation slots must match record for record."""
        ref, vec = both_engines(lambda: compute_dependences(gemm))
        overflowed = [d for d in ref if len(d.witnesses) >= 24]
        assert overflowed, "expected at least one full witness bucket"
        for a, b in zip(ref, vec):
            assert a.witnesses == b.witnesses

    @settings(max_examples=40, **_SETTINGS)
    @given(names=st.sampled_from([(), ("i",), ("k", "i", "j"),
                                  ("t", "i", "j", "k")]),
           si=st.integers(0, 12),
           rows=st.lists(st.lists(st.integers(-1000, 100000),
                                  min_size=4, max_size=4),
                         min_size=1, max_size=30))
    def test_slot_crc_matches_reference_hash(self, names, si, rows):
        """The slot table's array CRC equals the reference walk's
        ``zlib.crc32`` of each iterator-only instance repr."""
        from repro.analysis.vectorized import _crc_rows, _StmtMeta

        meta = _StmtMeta(si, names)
        values = np.array(rows, dtype=np.int64)[:, :len(names)]
        expected = [zlib.crc32(repr((si, tuple(zip(meta.sorted_names,
                                                   row)))).encode())
                    for row in values.tolist()]
        assert _crc_rows(meta.slot_text, values).tolist() == expected

    def test_missing_statement_marks_violated(self, gemm):
        from dataclasses import replace

        deps = compute_dependences(gemm)
        renamed = gemm.with_statements(
            [replace(s, name="X" + s.name) for s in gemm.statements])
        ref, vec = both_engines(
            lambda: schedule_violations(renamed, deps))
        assert [id(d) for d in ref] == [id(d) for d in vec]
        assert len(ref) == len(deps)  # all sources/targets unknown


class TestCandidateKeyRetention:
    def test_held_keys_do_not_grow_with_candidates(self, gemm,
                                                   monkeypatch):
        """Judging 70 distinct candidate schedules of one kernel holds
        no more evaluated schedule keys for its dependence list than
        judging one: the verdicts are memoized, so only the candidate
        being judged keeps its keys."""
        evaluated = []
        evaluate = Schedule.evaluate_columns

        def recording(self, columns, params, length):
            keys = evaluate(self, columns, params, length)
            evaluated.append(weakref.ref(keys))
            return keys

        def held():
            gc.collect()
            return sum(ref() is not None for ref in evaluated)

        candidates = [skew(gemm, target_col=3, source_col=1, factor=f)
                      for f in range(1, 71)]
        with analysis_override("vectorized"):
            deps = compute_dependences(gemm)
            monkeypatch.setattr(Schedule, "evaluate_columns", recording)
            schedule_violations(candidates[0], deps)
            held_for_one = held()
            assert held_for_one > 0
            for candidate in candidates[1:]:
                schedule_violations(candidate, deps)
                parallel_violations(candidate, deps, 1)
            assert held() <= held_for_one


class TestErrorParity:
    def test_budget_exceeded_message_identical(self, monkeypatch, gemm):
        import sys

        # the package re-exports a `dependences` *function*, shadowing
        # the submodule attribute — go through sys.modules
        dep_mod = sys.modules["repro.analysis.dependences"]
        monkeypatch.setattr(dep_mod, "_ANALYSIS_BUDGET", 10)
        messages = {}
        for engine in ("reference", "vectorized"):
            with analysis_override(engine):
                with pytest.raises(RuntimeError) as err:
                    compute_dependences(gemm)
                messages[engine] = (type(err.value).__name__,
                                    str(err.value))
        assert messages["reference"] == messages["vectorized"]
        assert "dependence analysis budget exceeded" in \
            messages["reference"][1]


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with analysis_override("turbo"):
            with pytest.raises(ValueError):
                analysis_engine_name()

    @pytest.mark.skipif(os.environ.get("REPRO_ANALYSIS") is not None,
                        reason="environment pins an analysis engine "
                               "(reference-spec CI job)")
    def test_default_is_vectorized(self):
        assert analysis_engine_name() == "vectorized"

    def test_override_restores_environment(self):
        before = os.environ.get("REPRO_ANALYSIS")
        with analysis_override("reference"):
            assert analysis_engine_name() == "reference"
        assert os.environ.get("REPRO_ANALYSIS") == before
