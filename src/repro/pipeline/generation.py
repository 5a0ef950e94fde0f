"""Feedback-based iterative generation (§4.3).

Runs K candidate slots through the paper's four steps:

* **Step 1** — build demonstrations (retrieved example SCoPs + optimized
  versions), generate K candidates, compile them (validation = CE);
* **Step 2** — regenerate CE candidates with the compiler diagnostics
  (first round of compilation feedback), test every compiling candidate
  (mutation + differential ⇒ IA/RE/ET) and rank the passing
  ones by modeled execution time;
* **Step 3** — show each slot the testing results and performance
  rankings (Appendix E.4) and regenerate;
* **Step 4** — compile/regenerate (second round of compilation feedback),
  test, and select the fastest passing candidate over *all* rounds.

Issue classes follow the paper: CE (compile error), IA (incorrect
answer), RE (runtime error), ET (execution timeout), IC (inefficient
code — passes but slower than the best).  ``stage_pass`` snapshots what
pass@k would have been had the pipeline stopped after each step —
Table 7's ablation reads those directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..cancellation import checkpoint
from ..compilers.base import BaseCompiler, GCC
from ..ir.program import Program
from ..ir.validate import check_program
from ..machine.analytical import estimate_cached
from ..machine.model import DEFAULT_MACHINE
from ..llm.prompts import (AttemptRecord, Prompt, base_prompt,
                           compile_feedback_prompt, demo_prompt,
                           test_rank_feedback_prompt)
from ..llm.simulated import LLMResponse, SimulatedLLM
from ..retrieval.retriever import RetrievedDemo, Retriever
from ..testing.equivalence import (TestReport, VERDICT_ET, VERDICT_PASS,
                                   checker_for)
from ..codegen import scop_body_to_c

ISSUE_CE = "CE"
ISSUE_IA = "IA"
ISSUE_RE = "RE"
ISSUE_ET = "ET"
ISSUE_IC = "IC"

DEFAULT_K = 7
DEFAULT_TIME_LIMIT = 120.0

#: the paper's runtime limits: 120 s for LOOPRAG's candidates, 600 s for
#: baseline systems (§6.1).  Defined here (not in the facade module) so
#: the service API can import them without pulling in the shims.
LOOPRAG_TIME_LIMIT = 120.0
BASELINE_TIME_LIMIT = 600.0

STAGES = ("step1", "step2", "step3", "step4_prefix", "step4")


@dataclass
class Candidate:
    """One generated candidate with its evaluation.

    ``time_limit`` is the limit of the pipeline that built it, so its
    verdict does not depend on which pipeline runs later.
    """

    slot: int
    round_tag: str
    response: LLMResponse
    time_limit: float
    compile_errors: List[str] = field(default_factory=list)
    report: Optional[TestReport] = None
    seconds: Optional[float] = None

    @property
    def compiled(self) -> bool:
        return not self.compile_errors

    @property
    def passed(self) -> bool:
        return (self.compiled and self.report is not None
                and self.report.passed and self.issue != ISSUE_ET)

    @property
    def issue(self) -> Optional[str]:
        if not self.compiled:
            return ISSUE_CE
        if self.report is None:
            return None
        if not self.report.passed:
            return self.report.verdict
        if self.seconds is not None and self.seconds > self.time_limit:
            return ISSUE_ET
        return None


def _no_emit(kind: str, **data) -> None:
    """Default event sink: drop everything.

    ``FeedbackPipeline.run`` reports progress through an ``emit(kind,
    **data)`` callable (see :mod:`repro.api.events` for the vocabulary);
    the kinds are plain strings here so the pipeline stays importable
    without the service API package.  Emission never consumes pipeline
    RNG — results are bit-identical with or without a subscriber.
    """


@dataclass(frozen=True)
class PipelineResult:
    """Everything the evaluation layer needs from one run."""

    target: str
    passed: bool
    baseline_seconds: float
    best_seconds: Optional[float]
    speedup: float
    best: Optional[Candidate]
    candidates: Tuple[Candidate, ...]
    stage_pass: Tuple[Tuple[str, bool], ...]
    stage_speedup: Tuple[Tuple[str, float], ...]
    demos: Tuple[RetrievedDemo, ...]

    def stage(self, name: str) -> bool:
        return dict(self.stage_pass)[name]

    def speedup_at(self, name: str) -> float:
        return dict(self.stage_speedup).get(name, 0.0)


class FeedbackPipeline:
    """The four-step loop for one (persona, base compiler) configuration."""

    def __init__(self,
                 retriever: Optional[Retriever],
                 llm_factory,
                 base_compiler: BaseCompiler = GCC,
                 retrieval_method: str = "loop-aware",
                 k: int = DEFAULT_K,
                 time_limit: float = DEFAULT_TIME_LIMIT,
                 use_feedback: bool = True,
                 seed: int = 0) -> None:
        self.retriever = retriever
        self.llm_factory = llm_factory
        self.base = base_compiler
        self.retrieval_method = retrieval_method
        self.k = k
        self.time_limit = time_limit
        self.use_feedback = use_feedback
        self.seed = seed

    # ------------------------------------------------------------------
    def run(self, target: Program, perf_params: Mapping[str, int],
            test_params: Mapping[str, int],
            emit: Optional[Callable] = None) -> PipelineResult:
        if emit is None:
            emit = _no_emit
        checkpoint()  # cooperative cancellation (deadline/drain)
        llm: SimulatedLLM = self.llm_factory()
        rng = random.Random(f"pipeline/{self.seed}/{target.fingerprint()}")
        checker = checker_for(target, test_params)
        baseline = estimate_cached(self.base.finalize(target), perf_params,
                                   DEFAULT_MACHINE).seconds
        target_text = scop_body_to_c(target)

        demos: Tuple[RetrievedDemo, ...] = ()
        if self.retriever is not None:
            demos = tuple(self.retriever.demonstrations(
                target, rng, self.retrieval_method))
            emit("retrieval_done", method=self.retrieval_method,
                 demos=[d.entry.name for d in demos])
            prompt = demo_prompt(target, target_text, demos)
        else:
            prompt = base_prompt(target, target_text)

        stage_pass: Dict[str, bool] = {}
        stage_speed: Dict[str, float] = {}
        all_candidates: List[Candidate] = []

        def snapshot(stage: str) -> None:
            passing = [c for c in all_candidates if c.passed]
            best = min((c.seconds for c in passing), default=None)
            stage_speed[stage] = (baseline / best
                                  if best and best > 0 else 0.0)
            emit("stage_done", stage=stage, passed=stage_pass[stage],
                 speedup=stage_speed[stage])

        # --- step 1: generate + compile --------------------------------
        emit("round_start", stage="step1")
        slots: List[Candidate] = []
        for k in range(self.k):
            cand = self._generate(llm, prompt, k, "r1", emit)
            slots.append(cand)
            all_candidates.append(cand)
        self._evaluate(checker, perf_params,
                       [c for c in slots if c.compiled], emit)
        stage_pass["step1"] = any(c.passed for c in slots)
        snapshot("step1")

        if not self.use_feedback:
            stage_pass.update({s: stage_pass["step1"]
                               for s in STAGES[1:]})
            for s in STAGES[1:]:
                stage_speed[s] = stage_speed["step1"]
            return self._finish(target, baseline, all_candidates,
                                stage_pass, stage_speed, demos, emit)

        # --- step 2: compile feedback round 1 + test + rank ------------
        emit("round_start", stage="step2")
        slots = self._compile_repair(llm, prompt, slots, "r1-fix",
                                     all_candidates, emit)
        self._evaluate(checker, perf_params,
                       [c for c in slots if c.compiled], emit)
        for cand in slots:
            llm.note_result(cand.slot, cand.passed)
        stage_pass["step2"] = (stage_pass["step1"]
                               or any(c.passed for c in slots))
        snapshot("step2")

        # --- step 3: testing + ranking feedback, regenerate -------------
        emit("round_start", stage="step3")
        attempts = tuple(
            AttemptRecord(index=c.slot, code=c.response.program,
                          program=c.response.program
                          if c.compiled else None,
                          passed=c.passed, seconds=c.seconds)
            for c in slots)
        fb_prompt = test_rank_feedback_prompt(prompt, attempts)
        new_slots: List[Candidate] = []
        for k in range(self.k):
            cand = self._generate(llm, fb_prompt, k, "r2", emit)
            new_slots.append(cand)
            all_candidates.append(cand)
        self._evaluate(checker, perf_params,
                       [c for c in new_slots if c.compiled], emit)
        stage_pass["step3"] = (stage_pass["step2"]
                               or any(c.passed for c in new_slots))
        stage_pass["step4_prefix"] = stage_pass["step3"]
        snapshot("step3")
        stage_speed["step4_prefix"] = stage_speed["step3"]

        # --- step 4: compile feedback round 2 + final selection ---------
        emit("round_start", stage="step4")
        new_slots = self._compile_repair(llm, fb_prompt, new_slots,
                                         "r2-fix", all_candidates, emit)
        self._evaluate(checker, perf_params,
                       [c for c in new_slots if c.compiled], emit)
        stage_pass["step4"] = (stage_pass["step3"]
                               or any(c.passed for c in new_slots))
        snapshot("step4")
        return self._finish(target, baseline, all_candidates, stage_pass,
                            stage_speed, demos, emit)

    # ------------------------------------------------------------------
    def _generate(self, llm: SimulatedLLM, prompt: Prompt, slot: int,
                  round_tag: str, emit: Callable = _no_emit) -> Candidate:
        checkpoint()  # before each backend call
        response = llm.generate(prompt, slot, round_tag)
        errors = check_program(response.program)
        emit("candidate_generated", slot=slot, round=round_tag,
             recipe=response.applied.describe(),
             slipped=response.slipped)
        emit("candidate_compiled", slot=slot, round=round_tag,
             ok=not errors, errors="; ".join(errors))
        return Candidate(slot=slot, round_tag=round_tag,
                         response=response, time_limit=self.time_limit,
                         compile_errors=errors)

    def _compile_repair(self, llm: SimulatedLLM, prompt: Prompt,
                        slots: List[Candidate], round_tag: str,
                        all_candidates: List[Candidate],
                        emit: Callable = _no_emit) -> List[Candidate]:
        repaired: List[Candidate] = []
        for cand in slots:
            if cand.compiled:
                repaired.append(cand)
                continue
            feedback = compile_feedback_prompt(
                prompt, cand.response.program, None,
                "; ".join(cand.compile_errors))
            fixed = self._generate(llm, feedback, cand.slot, round_tag,
                                   emit)
            all_candidates.append(fixed)
            repaired.append(fixed if fixed.compiled else cand)
        return repaired

    def _evaluate(self, checker, perf_params: Mapping[str, int],
                  candidates: Sequence[Candidate],
                  emit: Callable = _no_emit) -> None:
        for cand in candidates:
            if cand.report is not None:
                continue
            checkpoint()  # before each candidate's test battery
            cand.report = checker.check(cand.response.program)
            if cand.report.passed:
                finalized = self.base.finalize(cand.response.program,
                                               checker.original)
                cand.seconds = estimate_cached(
                    finalized, perf_params, DEFAULT_MACHINE).seconds
            emit("candidate_tested", slot=cand.slot,
                 round=cand.round_tag, verdict=cand.report.verdict,
                 seconds=cand.seconds)

    def _finish(self, target: Program, baseline: float,
                all_candidates: List[Candidate],
                stage_pass: Dict[str, bool],
                stage_speed: Dict[str, float],
                demos: Tuple[RetrievedDemo, ...],
                emit: Callable = _no_emit) -> PipelineResult:
        passing = [c for c in all_candidates if c.passed]
        best = min(passing, key=lambda c: c.seconds) if passing else None
        best_seconds = best.seconds if best else None
        speedup = (baseline / best_seconds
                   if best_seconds and best_seconds > 0 else 0.0)
        emit("selected", passed=bool(passing), speedup=speedup,
             slot=best.slot if best else None,
             round=best.round_tag if best else None)
        return PipelineResult(
            target=target.name,
            passed=bool(passing),
            baseline_seconds=baseline,
            best_seconds=best_seconds,
            speedup=speedup,
            best=best,
            candidates=tuple(all_candidates),
            stage_pass=tuple(stage_pass.items()),
            stage_speedup=tuple(stage_speed.items()),
            demos=demos)
