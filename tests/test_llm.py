"""Simulated-LLM tests: prompts, intents, slips, determinism."""

import random
import sys

import pytest

from repro.codegen import scop_body_to_c
from repro.ir import check_program, parse_scop
from repro.llm import (DEEPSEEK_V3, GPT_4O, Intent, SimulatedLLM,
                       base_prompt, compile_feedback_prompt, demo_prompt,
                       intents_from_recipe, materialize, semantic_slip,
                       syntax_slip)
from repro.llm import test_rank_feedback_prompt as make_rank_prompt
from repro.llm.prompts import AttemptRecord
from repro.retrieval import Retriever
from repro.runtime import run
from repro.synthesis import build_dataset
from repro.transforms import TransformRecipe, TransformStep


@pytest.fixture(scope="module")
def retriever():
    return Retriever(build_dataset(size=50, seed=21))


def _count_renders(monkeypatch):
    """Fingerprints of the programs ``scop_body_to_c`` renders from now
    on (patched in every ``repro`` module that imported it)."""
    from repro.codegen import cprinter

    original = cprinter.scop_body_to_c
    rendered = []

    def counting(program):
        rendered.append(program.fingerprint())
        return original(program)

    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(module, "scop_body_to_c", None) is original:
            monkeypatch.setattr(module, "scop_body_to_c", counting)
    return rendered


def _demo_prompt_for(program, retriever):
    demos = retriever.demonstrations(program, random.Random(0))
    return demo_prompt(program, scop_body_to_c(program), demos)


class TestPrompts:
    def test_base_prompt_contains_rules(self, gemm):
        p = base_prompt(gemm, scop_body_to_c(gemm))
        assert "As a compiler" in p.text
        assert "markdown code block" in p.text

    def test_demo_prompt_contains_examples(self, gemm, retriever):
        p = _demo_prompt_for(gemm, retriever)
        assert "// original code" in p.text
        assert "// optimized code" in p.text
        assert "analyze" in p.text and "learn" in p.text

    def test_compile_feedback_mentions_error(self, gemm):
        prev = base_prompt(gemm, scop_body_to_c(gemm))
        p = compile_feedback_prompt(prev, "bad code", None,
                                    "error: 'tmp' undeclared")
        assert "compilation error" in p.text
        assert "'tmp' undeclared" in p.text

    def test_rank_prompt_orders_by_speed(self, gemm):
        prev = base_prompt(gemm, scop_body_to_c(gemm))
        attempts = (
            AttemptRecord(0, "slow", None, True, 2.0),
            AttemptRecord(1, "fast", None, True, 1.0),
            AttemptRecord(2, "broken", None, False, None),
        )
        p = make_rank_prompt(prev, attempts)
        assert "1 > 0" in p.text
        assert "Failed: 2" in p.text

    def test_feedback_code_renders_on_first_read(self, gemm,
                                                 monkeypatch):
        prev = base_prompt(gemm, scop_body_to_c(gemm))
        eager = "```c\n" + scop_body_to_c(gemm) + "\n```"
        renders = _count_renders(monkeypatch)
        fix = compile_feedback_prompt(prev, gemm, None, "error: x")
        rank = make_rank_prompt(prev, (AttemptRecord(0, gemm, gemm,
                                                     True, 1.0),))
        assert renders == []
        assert fix.text == compile_feedback_prompt(
            prev, eager, None, "error: x").text
        assert rank.text == make_rank_prompt(
            prev, (AttemptRecord(0, eager, gemm, True, 1.0),)).text
        assert len(renders) == 2
        assert fix.text is fix.text and len(renders) == 2


class TestIntents:
    def test_intents_from_recipe_dedupes(self):
        recipe = TransformRecipe.of(
            TransformStep.make("tiling", columns=[1], sizes=[16]),
            TransformStep.make("tiling", columns=[2], sizes=[16]),
            TransformStep.make("parallel", col=1))
        intents = intents_from_recipe(recipe)
        assert [i.kind for i in intents] == ["tiling", "parallel"]
        assert intents[0].size == 16

    def test_materialize_tiling_uses_band(self, gemm):
        step = materialize(Intent(kind="tiling", size=8), gemm,
                           random.Random(0))
        assert step.kind == "tiling"
        assert step.arg_dict()["sizes"] == [8, 8]

    def test_materialize_interchange_fixes_stride(self, syrk):
        step = materialize(Intent(kind="interchange"), syrk,
                           random.Random(0))
        args = step.arg_dict()
        # the stride heuristic proposes the k/j swap in S2 (§2.2)
        assert args.get("stmts") == ["S2"]

    def test_materialize_on_impossible_program(self, stream):
        assert materialize(Intent(kind="fusion"), stream,
                           random.Random(0)) is None
        assert materialize(Intent(kind="shifting"), stream,
                           random.Random(0)) is None


class TestSlips:
    def test_semantic_slip_changes_output(self, gemm):
        params = {"NI": 7, "NJ": 6, "NK": 5}
        reference = run(gemm, params).checksum
        changed = 0
        for seed in range(8):
            slipped, what = semantic_slip(gemm, random.Random(seed))
            if what == "no-op slip":
                continue
            try:
                if run(slipped, params).checksum != reference:
                    changed += 1
            except Exception:
                changed += 1  # RE counts as caught
        assert changed >= 5

    def test_syntax_slip_fails_compilation(self, gemm):
        for seed in range(6):
            broken, _ = syntax_slip(gemm, random.Random(seed))
            assert check_program(broken)


class TestSimulatedLLM:
    def test_deterministic_generation(self, gemm, retriever):
        prompt = _demo_prompt_for(gemm, retriever)
        a = SimulatedLLM(DEEPSEEK_V3, seed=4).generate(prompt, 0, "r1")
        b = SimulatedLLM(DEEPSEEK_V3, seed=4).generate(prompt, 0, "r1")
        assert a.program.fingerprint() == b.program.fingerprint()

    def test_personas_differ(self, gemm, retriever):
        prompt = _demo_prompt_for(gemm, retriever)
        outs_a = [SimulatedLLM(DEEPSEEK_V3, seed=4).generate(prompt, k, "r1")
                  .program.fingerprint() for k in range(5)]
        outs_b = [SimulatedLLM(GPT_4O, seed=4).generate(prompt, k, "r1")
                  .program.fingerprint() for k in range(5)]
        assert outs_a != outs_b

    def test_base_mode_rarely_tiles(self, gemm):
        prompt = base_prompt(gemm, scop_body_to_c(gemm))
        llm = SimulatedLLM(DEEPSEEK_V3, seed=4)
        kinds = set()
        for k in range(10):
            kinds.update(llm.generate(prompt, k, "r1").applied.kinds())
        assert "tiling" not in kinds

    def test_demo_mode_learns_tiling(self, gemm, retriever):
        prompt = _demo_prompt_for(gemm, retriever)
        llm = SimulatedLLM(DEEPSEEK_V3, seed=4)
        kinds = set()
        for k in range(10):
            kinds.update(llm.generate(prompt, k, "r1").applied.kinds())
        assert "tiling" in kinds

    def test_response_renders_markdown(self, gemm, retriever):
        prompt = _demo_prompt_for(gemm, retriever)
        out = SimulatedLLM(DEEPSEEK_V3, seed=4).generate(prompt, 0, "r1")
        assert out.text.startswith("```c")
        assert out.text == "```c\n" + scop_body_to_c(out.program) + "\n```"
        assert out.text is out.text

    @pytest.mark.parametrize("k", [1, 8])
    def test_request_renders_target_and_best_only(self, retriever, gemm,
                                                  monkeypatch, k):
        """Generated candidates are never rendered on the request path:
        whatever ``k`` is, a request prints the target (for the prompt
        and the retrieval query) and the best candidate's code."""
        from repro.api import OptimizationRequest, OptimizerSession

        session = OptimizerSession(retriever=retriever, seed=0, k=k,
                                   use_store=False)
        request = OptimizationRequest.make(
            gemm, {"NI": 200, "NJ": 220, "NK": 240},
            {"NI": 8, "NJ": 7, "NK": 6}, persona="deepseek")
        renders = _count_renders(monkeypatch)
        result = session.optimize(request, use_store=False)
        assert result.best_code is not None
        assert 2 <= len(renders) <= 4
        assert renders.count(result.best_program.fingerprint()) >= 1
        assert {fp for fp in renders} <= {
            gemm.fingerprint(), result.best_program.fingerprint()}

    def test_misread_is_correlated(self):
        # find a target/persona/seed combination that misreads, then all
        # candidates must carry a slip
        complex_src = """
        scop dense(N) {
          array A[N][N] output;
          array B[N][N];
          array C[N][N] output;
          for (i = 1; i < N; i++) {
            for (j = 1; j < N; j++)
              A[i][j] = A[i-1][j] + B[i][j];
            for (j = 1; j < N; j++)
              C[i][j] = A[i][j] * B[i][j-1];
          }
        }
        """
        program = parse_scop(complex_src)
        prompt = base_prompt(program, scop_body_to_c(program))
        for seed in range(30):
            llm = SimulatedLLM(GPT_4O, seed=seed)
            state = llm._misread_state(prompt)
            if state is not None:
                outs = [llm.generate(prompt, k, "r1") for k in range(5)]
                assert all(o.slipped for o in outs)
                return
        pytest.fail("no misread observed in 30 seeds")
