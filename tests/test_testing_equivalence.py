"""Equivalence checking tests: inputs, coverage, differential, audits."""

import numpy as np
import pytest

from repro.ir import parse_scop
from repro.runtime import allocate
from repro.testing import (EquivalenceChecker, TestInput, input_pool,
                           materialize_input, VERDICT_IA, VERDICT_PASS,
                           VERDICT_RE)
from repro.transforms import (interchange, parallelize, shift, tile,
                              vectorize)


class TestInputs:
    def test_pool_contains_seeds_and_mutants(self):
        pool = input_pool(max_seeds=2, mutations_per_seed=3, seed=1)
        seeds = [t for t in pool if not t.mutations]
        mutants = [t for t in pool if t.mutations]
        assert len(seeds) == 2 and len(mutants) == 6

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

    def test_shrunk_bound_caught(self, gemm, checker):
        from repro.ir.domain import Domain, IterSpec
        stmt = gemm.statements[1]
        specs = list(stmt.domain.iters)
        spec = specs[0]
        specs[0] = IterSpec(spec.name, spec.lowers,
                            tuple(u - 1 for u in spec.uppers))
        broken = gemm.with_statement(
            "S2", stmt.with_domain(Domain(tuple(specs))))
        assert checker.check(broken).verdict == VERDICT_IA

    def test_oob_caught_as_re(self, checker, gemm):
        from repro.ir.domain import Domain, IterSpec
        stmt = gemm.statements[1]
        specs = list(stmt.domain.iters)
        spec = specs[0]
        specs[0] = IterSpec(spec.name, spec.lowers,
                            tuple(u + 1 for u in spec.uppers))
        broken = gemm.with_statement(
            "S2", stmt.with_domain(Domain(tuple(specs))))
        assert checker.check(broken).verdict == VERDICT_RE

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


class TestCoverageGuidedSelection:
    def test_input_count_bounded(self, gemm):
        checker = EquivalenceChecker(gemm, {"NI": 6, "NJ": 6, "NK": 6})
        assert 3 <= checker.num_inputs <= 12

    def test_guarded_kernel_reaches_full_coverage(self):
        p = parse_scop("""
        scop g(N) {
          array A[N] output;
          for (i = 0; i < N; i++)
            if (i >= 2)
              A[i] = A[i] + 1.0;
        }
        """)
        checker = EquivalenceChecker(p, {"N": 12})
        assert checker.coverage == 1.0


class TestSharedRuns:
    """The audits run per fingerprint; the test battery runs once per
    name and mark-free content inside one checker."""

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

    def test_marks_only_variant_shares_the_run(self, stream, monkeypatch):
        checker = EquivalenceChecker(stream, {"LEN": 16})
        runs = self._count_runs(monkeypatch)
        plain = checker.check(stream)
        assert plain.passed and len(runs) == checker.num_inputs
        assert checker.check(vectorize(parallelize(stream, 1), 1)) is plain
        assert len(runs) == checker.num_inputs
        # runtime errors name the program, so a renamed copy runs again
        checker.check(parallelize(stream.renamed("copy"), 1))
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
