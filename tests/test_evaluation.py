"""Evaluation-layer tests: metrics, harness caching, reporting, CLI."""

import os

import pytest

from repro.evaluation import (average_speedup, pass_at_k, percent_faster,
                              render_table, speedup_ratio)
from repro.evaluation.experiments import ExperimentResult


class TestMetrics:
    def test_pass_at_k_basic(self):
        assert pass_at_k([True, False, True, True]) == 75.0

    def test_pass_at_k_empty(self):
        assert pass_at_k([]) == 0.0

    def test_average_speedup_counts_failures(self):
        assert average_speedup([2.0, 0.0, 4.0]) == 2.0

    def test_average_speedup_excludes_outliers(self):
        # >600x entries are dropped entirely (the paper's rule)
        assert average_speedup([2.0, 700.0, 4.0]) == 3.0

    def test_average_speedup_cap_inclusive(self):
        assert average_speedup([600.0]) == 600.0

    def test_percent_faster(self):
        a = {"x": 2.0, "y": 1.0, "z": 5.0}
        b = {"x": 1.0, "y": 1.0, "z": 9.0}
        assert percent_faster(a, b) == pytest.approx(100 / 3)

    def test_percent_faster_disjoint(self):
        assert percent_faster({"x": 1.0}, {"y": 1.0}) == 0.0

    def test_speedup_ratio(self):
        assert speedup_ratio(10.0, 2.0) == 5.0
        assert speedup_ratio(1.0, 0.0) == float("inf")


class TestReporting:
    def test_render_aligns_columns(self):
        result = ExperimentResult(
            experiment="x", title="T",
            columns=("name", "value"),
            rows=(("alpha", 1.5), ("b", None)),
            notes=("hello",))
        text = render_table(result)
        assert "T" in text
        assert "alpha  1.50" in text
        assert "b      -" in text
        assert "note: hello" in text

    def test_render_all(self):
        from repro.evaluation import render_all
        r = ExperimentResult("x", "T", ("a",), ((1,),))
        assert render_all([r, r]).count("T") == 2


class TestHarnessCaching:
    def test_run_cache_hits(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_LIMIT", "3")
        from repro.evaluation.harness import compiler_plan, results_for
        from repro.evaluation.store import active_store
        a = results_for(compiler_plan("polybench", "graphite"))
        store = active_store()
        hits, misses = store.hits, store.misses
        b = results_for(compiler_plan("polybench", "graphite"))
        assert a == b
        # the second run is served entirely from the result store
        assert (store.hits - hits, store.misses - misses) == (len(b), 0)

    def test_suite_limit_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_LIMIT", "4")
        from repro.evaluation.harness import suites
        assert all(len(s) == 4 for s in suites().values())

    def test_retriever_shared(self):
        from repro.api import OptimizerSession
        sessions = [OptimizerSession(dataset_size=30, seed=5,
                                     retrieval_method=method)
                    for method in ("loop-aware", "bm25")]
        assert sessions[0].retriever is sessions[1].retriever
        other = OptimizerSession(dataset_size=30, seed=6)
        assert other.retriever is not sessions[0].retriever


class TestCli:
    def test_suites_command(self, capsys):
        from repro.cli import main
        assert main(["suites"]) == 0
        out = capsys.readouterr().out
        assert "polybench (30 kernels)" in out

    def test_experiment_unknown(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["experiment", "tab99"])

    def test_bad_binding_rejected(self, tmp_path):
        from repro.cli import main
        f = tmp_path / "k.scop"
        f.write_text("scop k(N) { array A[N] output; "
                     "for (i = 0; i < N; i++) A[i] = 1.0; }")
        with pytest.raises(SystemExit):
            main(["optimize", str(f), "--perf", "N:12"])

    def test_synthesize_command(self, capsys):
        from repro.cli import main
        assert main(["synthesize", "--size", "10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "10 examples" in out
        assert "tiling" in out

    def test_compilers_command(self, capsys, tmp_path):
        from repro.cli import main
        f = tmp_path / "k.scop"
        f.write_text("scop k(N) { array A[N] output; array B[N]; "
                     "for (i = 0; i < N; i++) A[i] = B[i] + 1.0; }")
        assert main(["compilers", str(f), "--perf", "N=100000"]) == 0
        out = capsys.readouterr().out
        assert "pluto" in out and "polly" in out
