"""`repro perf` — the execution-engine micro-benchmark subcommand."""

import json
import os

from repro.cli import main
from repro.runtime import engine_override


def test_perf_json_report(tmp_path, capsys):
    out = tmp_path / "BENCH_interpreter.json"
    code = main(["perf", "--suite", "polybench", "--limit", "2",
                 "--repeat", "1", "--param", "12", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "polybench"
    assert report["bit_identical"] is True
    assert len(report["kernels"]) == 2
    for row in report["kernels"]:
        assert row["identical"] is True
        assert row["instances"] > 0
        assert row["reference_ms"] > 0
        assert row["vectorized_ms"] > 0
    assert report["aggregate_speedup"] > 0
    table = capsys.readouterr().out
    assert "aggregate" in table


def test_perf_restores_engine_env(tmp_path):
    with engine_override("reference"):
        main(["perf", "--suite", "polybench", "--limit", "1",
              "--repeat", "1", "--param", "8",
              "--json", str(tmp_path / "r.json")])
        assert os.environ["REPRO_ENGINE"] == "reference"


def test_perf_analysis_json_report(tmp_path, capsys):
    out = tmp_path / "BENCH_analysis.json"
    code = main(["perf", "--target", "analysis", "--suite", "polybench",
                 "--limit", "2", "--repeat", "1", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "polybench"
    assert report["target"] == "analysis"
    assert report["bit_identical"] is True
    assert len(report["kernels"]) == 2
    for row in report["kernels"]:
        assert row["identical"] is True
        assert row["deps"] > 0
        assert row["queries"] > 0
        assert row["reference_dep_ms"] > 0
        assert row["vectorized_dep_ms"] > 0
        assert row["reference_legality_ms"] > 0
        assert row["vectorized_legality_ms"] > 0
    assert report["aggregate_speedup"] > 0
    table = capsys.readouterr().out
    assert "aggregate" in table


def test_perf_analysis_restores_analysis_env(tmp_path):
    from repro.analysis import analysis_override

    with analysis_override("reference"):
        main(["perf", "--target", "analysis", "--suite", "polybench",
              "--limit", "1", "--repeat", "1",
              "--json", str(tmp_path / "a.json")])
        assert os.environ["REPRO_ANALYSIS"] == "reference"
