"""Equivalence checking tests: inputs, differential, audits."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ir import parse_scop
from repro.runtime import allocate, clone_storage, execute
from repro.runtime.vectorized import execution_key
from repro.testing import (EquivalenceChecker, TestInput, input_pool,
                           materialize_input, VERDICT_IA, VERDICT_PASS,
                           VERDICT_RE)
from repro.testing import TestReport as Report
from repro.testing.equivalence import TEST_BUDGET
from repro.transforms import interchange, parallelize, shift, tile, vectorize
from repro.transforms.recipe import ALL_KINDS

from recipe_candidates import KERNELS, candidates, target


class TestInputs:
    def test_pool_contains_seeds_and_mutants(self):
        pool = input_pool()
        seeds = [t for t in pool if not t.mutations]
        mutants = [t for t in pool if t.mutations]
        assert len(seeds) == 4 and len(mutants) == 32

    def test_materialize_deterministic(self, gemm):
        ti = TestInput(variant=1, mutations=(("value", 42),))
        a = materialize_input(gemm, {"NI": 5, "NJ": 5, "NK": 5}, ti)
        b = materialize_input(gemm, {"NI": 5, "NJ": 5, "NK": 5}, ti)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_mutation_changes_data(self, gemm):
        params = {"NI": 5, "NJ": 5, "NK": 5}
        plain = materialize_input(gemm, params, TestInput(variant=0))
        mutated = materialize_input(
            gemm, params, TestInput(variant=0,
                                    mutations=(("operator", 7),)))
        assert any(not np.array_equal(plain[k], mutated[k])
                   for k in plain)

    @pytest.mark.parametrize("kind", ["value", "operator", "statement"])
    def test_all_mutation_kinds_apply(self, gemm, kind):
        params = {"NI": 5, "NJ": 5, "NK": 5}
        ti = TestInput(variant=0, mutations=((kind, 3),))
        storage = materialize_input(gemm, params, ti)
        assert all(np.isfinite(arr).all() for arr in storage.values())


class TestDifferential:
    @pytest.fixture
    def checker(self, gemm):
        return EquivalenceChecker(gemm, {"NI": 7, "NJ": 6, "NK": 5})

    def test_identity_passes(self, gemm, checker):
        assert checker.check(gemm).verdict == VERDICT_PASS

    def test_legal_transform_passes(self, gemm, checker):
        t = interchange(gemm, 3, 5, stmts=["S2"])
        assert checker.check(t).verdict == VERDICT_PASS

    @staticmethod
    def _outer_bound_moved(gemm, delta):
        """GEMM with S2's outer upper bound moved by ``delta``."""
        from repro.ir.domain import Domain, IterSpec
        stmt = gemm.statements[1]
        specs = list(stmt.domain.iters)
        spec = specs[0]
        specs[0] = IterSpec(spec.name, spec.lowers,
                            tuple(u + delta for u in spec.uppers))
        return gemm.with_statement(
            "S2", stmt.with_domain(Domain(tuple(specs))))

    def test_shrunk_bound_caught(self, gemm, checker):
        broken = self._outer_bound_moved(gemm, -1)
        assert checker.check(broken).verdict == VERDICT_IA

    def test_oob_caught_as_re(self, checker, gemm):
        broken = self._outer_bound_moved(gemm, 1)
        assert checker.check(broken).verdict == VERDICT_RE

    def test_renamed_copy_reports_its_own_name(self, checker, gemm):
        """RE details name the program, so verdicts are kept per name."""
        broken = self._outer_bound_moved(gemm, 1)
        assert checker.check(broken).detail.startswith("gemm/S2:")
        copy = broken.renamed("other")
        report = checker.check(copy)
        assert report.detail.startswith("other/S2:")
        fresh = EquivalenceChecker(gemm, checker.params)
        assert fresh.check(copy) == report

    def test_verdicts_cached(self, gemm, checker):
        first = checker.check(gemm)
        assert checker.check(gemm) is first


class TestAudits:
    def test_big_tile_illegality_caught_at_small_size(self, syrk):
        """The size-32 tile never crosses a boundary at N=8, yet the
        candidate is wrong at scale — the order audit must catch it."""
        checker = EquivalenceChecker(syrk, {"N": 8, "M": 6})
        bad = tile(syrk, [1, 3], 32)
        report = checker.check(bad)
        assert report.verdict == VERDICT_IA
        assert "reordered" in report.detail

    def test_race_on_parallel_recurrence(self, recur):
        checker = EquivalenceChecker(recur, {"LEN": 16})
        racy = parallelize(recur, 1)
        report = checker.check(racy)
        assert report.verdict == VERDICT_IA
        assert "race" in report.detail

    def test_simd_on_recurrence_caught(self, recur):
        checker = EquivalenceChecker(recur, {"LEN": 16})
        report = checker.check(vectorize(recur, 1))
        assert report.verdict == VERDICT_IA

    def test_reduction_clause_forgiven(self):
        p = parse_scop("""
        scop dot(N) {
          array s[2] output;
          array a[N];
          array b[N];
          for (i = 0; i < N; i++)
            s[0] += a[i] * b[i];
        }
        """)
        checker = EquivalenceChecker(p, {"N": 20})
        assert checker.check(parallelize(p, 1)).verdict == VERDICT_PASS
        assert checker.check(vectorize(p, 1)).verdict == VERDICT_PASS

    def test_legal_parallel_passes(self, gemm):
        checker = EquivalenceChecker(gemm, {"NI": 7, "NJ": 6, "NK": 5})
        assert checker.check(parallelize(gemm, 1)).verdict == VERDICT_PASS


class TestInputSelection:
    def test_seed0_inputs_pinned(self, gemm):
        """The checker's battery is the first three pool entries; the
        mutation seeds are the pool rng's first two draws, on which
        every stored verdict depends."""
        checker = EquivalenceChecker(gemm, {"NI": 6, "NJ": 6, "NK": 6})
        assert checker._inputs == [
            TestInput(0),
            TestInput(0, (("value", 885440),)),
            TestInput(0, (("operator", 403958),)),
        ]

    def test_guard_never_true_keeps_three_inputs(self):
        source = """
        scop g(N) {
          array A[N] output;
          for (i = 0; i < N; i++)
            if (i >= %d)
              A[i] = 1.0;
        }
        """
        checker = EquivalenceChecker(parse_scop(source % 100), {"N": 5})
        assert checker.num_inputs == 3
        report = checker.check(parse_scop(source % 2))
        assert report.verdict == VERDICT_IA
        assert "output mismatch" in report.detail


class TestSharedRuns:
    """The audits run per fingerprint; the test battery runs once per
    instance stream the interpreter executes inside one checker, and
    never for the ground truth's own stream."""

    @staticmethod
    def _count_runs(monkeypatch):
        from repro.testing import equivalence
        runs = []
        real = equivalence.execute

        def counting(program, *args, **kwargs):
            runs.append(program)
            return real(program, *args, **kwargs)

        monkeypatch.setattr(equivalence, "execute", counting)
        return runs

    def test_marks_only_variant_shares_the_run(self, gemm, monkeypatch):
        checker = EquivalenceChecker(gemm, {"NI": 5, "NJ": 6, "NK": 4})
        runs = self._count_runs(monkeypatch)
        truth = Report(VERDICT_PASS, "", checker.num_inputs)
        # the original, a marks-only variant and a tile larger than the
        # test extent all execute the ground truth's instance stream
        assert checker.check(gemm) == truth
        assert checker.check(vectorize(parallelize(gemm, 1), 5)) == truth
        assert checker.check(tile(gemm, [1], 32)) == truth
        assert runs == []
        # a legal interchange reorders the stream: it runs, and passes
        swapped = interchange(gemm, 3, 5, ["S2"])
        assert checker.check(swapped) == truth
        assert len(runs) == checker.num_inputs
        # runtime errors name the program, so a renamed copy runs again
        assert checker.check(swapped.renamed("copy")) == truth
        assert len(runs) == 2 * checker.num_inputs

    def test_racy_marks_only_variant_still_audited(self, recur):
        checker = EquivalenceChecker(recur, {"LEN": 16})
        assert checker.check(recur).passed
        report = checker.check(parallelize(recur, 1))
        assert report.verdict == VERDICT_IA
        assert "data race" in report.detail

    def test_pipeline_reports_equal_fresh_checkers(self, monkeypatch):
        """Every report one TSVC pipeline run gets equals what a fresh
        checker, sharing nothing, reports for the same candidate."""
        from repro.api import OptimizationRequest, OptimizerSession
        from repro.evaluation.harness import suites

        checked = {}
        check = EquivalenceChecker.check

        def recording(self, candidate):
            report = check(self, candidate)
            checked.setdefault((id(self), id(candidate)),
                               (self, candidate, report))
            return report

        monkeypatch.setattr(EquivalenceChecker, "check", recording)
        session = OptimizerSession(dataset_size=60, seed=0,
                                   use_store=False)
        suite = suites()["tsvc"]
        for bench in suite:
            session.optimize(OptimizationRequest.make(
                bench.program, bench.perf, bench.test,
                system="looprag", persona="deepseek"), use_store=False)
        monkeypatch.undo()
        assert len(checked) > len(suite)
        for checker, candidate, report in checked.values():
            fresh = EquivalenceChecker(checker.original, checker.params)
            assert fresh.check(candidate) == report, candidate.name


def _fresh_runs(checker, candidate):
    """Each checker input run afresh: instance count and every array's
    bytes, or the error."""
    runs = []
    for pristine in checker._storages:
        storage = clone_storage(pristine)
        try:
            count = execute(candidate, checker.params, storage,
                            budget=TEST_BUDGET)
        except Exception as exc:
            runs.append((type(exc).__name__, str(exc)))
            continue
        runs.append((count, sorted((name, arr.tobytes())
                                   for name, arr in storage.items())))
    return runs


class TestExecutionIdentity:
    """``execution_key`` is sound as the test-battery key: equal keys
    mean equal runs, and the ground truth's stream passes under any
    name."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(source=st.one_of(st.integers(0, 300),
                            st.sampled_from(KERNELS)),
           recipes=st.lists(st.lists(st.sampled_from(ALL_KINDS),
                                     min_size=1, max_size=3),
                            min_size=1, max_size=4),
           seed=st.integers(0, 100))
    @example(source="gemm", recipes=[["parallel"], ["tiling"]], seed=0)
    @example(source=17, recipes=[["interchange"], ["skewing"]], seed=1)
    def test_equal_keys_run_alike(self, source, recipes, seed):
        program, params = target(source)
        checker = EquivalenceChecker(program, params)
        groups = {}
        for candidate in candidates(program, recipes, seed):
            try:
                key = execution_key(candidate, params, TEST_BUDGET)
            except Exception:
                continue
            groups.setdefault(key, []).append(candidate)
        for members in groups.values():
            runs = [_fresh_runs(checker, c) for c in members]
            assert all(r == runs[0] for r in runs[1:]), \
                [c.provenance for c in members]
        # the checker keys the ground truth's pass without the name
        truth = execution_key(program, params, TEST_BUDGET)[1:]
        shared = [c for key, members in groups.items()
                  if key[1:] == truth for c in members]
        assert program in shared
        for candidate in shared:
            assert checker._run(candidate) == Report(
                VERDICT_PASS, "", checker.num_inputs)
