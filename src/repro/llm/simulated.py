"""The simulated LLM.

``SimulatedLLM`` is a stateful chat session: it consumes the prompts of
Appendix E and emits candidate *code* (a transformed program plus its
pseudo-C rendering, rendered only when read).  The pipeline treats
responses as opaque — it validates, tests and times them exactly as it
would real LLM output; all five failure classes (CE/IA/RE/ET/IC) arise
from genuine mechanisms.

Behaviour per prompt kind:

* **base** — samples transformations from the persona's own repertoire
  (plus unprompted OpenMP/SIMD pragmas with persona probabilities);
* **demo** — abstracts the demonstrated recipes into intents and adopts
  each with ``p_adopt_step``, then adds its own repertoire items;
* **compile-feedback** — regenerates its remembered intent without the
  syntax slip with ``p_fix_compile`` (round 2: ``p_fix_compile_round2``);
* **test+rank feedback** — restarts from the best-ranked passing
  attempt's intent, drops a suspect step of failing ones with
  ``p_drop_bad_step`` and tries one additional intent.

Every random draw comes from a stable per-(persona, target, k, round)
seed, so whole experiments replay bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.dependences import dependences, is_legal_schedule
from ..ir.program import Program
from ..transforms import TransformError, TransformRecipe, TransformStep
from .adapt import (Intent, intents_from_recipe, materialize,
                    semantic_slip, syntax_slip)
from .personas import Persona
from .prompts import (KIND_BASE, KIND_COMPILE_FEEDBACK, KIND_DEMO,
                      KIND_TEST_RANK_FEEDBACK, Prompt, fenced_code)


#: canonical phase order of a coherent composition: enabling interchanges
#: and shifts first, then loop-structure changes, tiling, scalar rewrites,
#: pragmas last — the order every demonstrated recipe also follows
_PHASE = {"interchange": 0, "shifting": 1, "fusion": 2, "distribution": 2,
          "skewing": 3, "tiling": 4, "reg_accum": 5, "parallel": 6,
          "vectorize": 7}


def _phase_sorted(intents: List[Intent]) -> List[Intent]:
    return sorted(intents, key=lambda i: _PHASE.get(i.kind, 9))


@dataclass(frozen=True)
class LLMResponse:
    """One generated candidate."""

    program: Program
    applied: TransformRecipe
    slipped: Optional[str] = None

    @cached_property
    def text(self) -> str:
        """The response as the model writes it: the code in a C block."""
        return fenced_code(self.program)


class SimulatedLLM:
    """One chat session of a persona."""

    def __init__(self, persona: Persona, seed: int = 0) -> None:
        self.persona = persona
        self.seed = seed
        #: remembered intents per candidate index (the chat history)
        self._intents: Dict[int, List[Intent]] = {}
        self._passed: Dict[int, bool] = {}
        #: per-target systematic misunderstanding: None (fine), "syntax"
        #: (every candidate fails to compile the same way) or "semantic"
        #: (every candidate carries the same wrong rewrite)
        self._misread: Dict[str, Optional[str]] = {}
        #: targets the session recovered on after failures; it rewrites
        #: those conservatively from then on (drops aggressive tiling) —
        #: the reason paper-LOOPRAG trails PLuTo on PolyBench despite
        #: learning from PLuTo's own demonstrations (§6.3)
        self._recovered: set = set()

    # ------------------------------------------------------------------
    @staticmethod
    def _complexity(program: Program) -> float:
        """How easy a kernel is to misread when rewriting it by hand."""
        imperfect = len({len(s.domain.iters)
                         for s in program.statements}) > 1
        score = (0.18 * len(program.statements)
                 + 0.25 * max(0, program.max_depth - 1)
                 + (0.1 if imperfect else 0.0)
                 + 0.05 * sum(len(s.guards) for s in program.statements))
        return min(1.2, score)

    def _misread_state(self, prompt: Prompt) -> Optional[str]:
        fp = prompt.target.fingerprint()
        if fp not in self._misread:
            rng = random.Random(
                f"misread/{self.persona.name}/{self.seed}/{fp}")
            p = self.persona.p_misread * self._complexity(prompt.target)
            if prompt.kind == KIND_BASE:
                p *= 0.5  # without demos the model rewrites less
            if rng.random() < p:
                kind = "syntax" if rng.random() < 0.6 else "semantic"
            else:
                kind = None
            self._misread[fp] = kind
        return self._misread[fp]

    # ------------------------------------------------------------------
    def _rng(self, prompt: Prompt, k: int, round_tag: str) -> random.Random:
        return random.Random(
            f"{self.persona.name}/{self.seed}/"
            f"{prompt.target.fingerprint()}/{k}/{round_tag}")

    def generate(self, prompt: Prompt, k: int,
                 round_tag: str = "r0") -> LLMResponse:
        """Produce one candidate for slot ``k``."""
        rng = self._rng(prompt, k, round_tag)
        state = self._misread_state(prompt)
        fp = prompt.target.fingerprint()
        if prompt.kind == KIND_COMPILE_FEEDBACK:
            return self._repair(prompt, k, rng, round_tag)
        if prompt.kind == KIND_TEST_RANK_FEEDBACK:
            if state == "semantic":
                recover = random.Random(
                    f"recover/{self.persona.name}/{self.seed}/{fp}")
                if recover.random() < self.persona.p_recover:
                    self._misread[fp] = None
                    self._recovered.add(fp)
            intents = self._refine_intents(prompt, k, rng)
            if fp in self._recovered:
                intents = [i for i in intents
                           if i.kind != "tiling" or rng.random() < 0.4]
        elif prompt.kind == KIND_DEMO:
            intents = self._learn_intents(prompt, rng)
        else:
            intents = self._own_intents(rng, prompt.target)
        self._intents[k] = intents
        return self._emit(prompt, intents, rng, allow_slips=True)

    def note_result(self, k: int, passed: bool) -> None:
        """Pipeline telling the session which candidates passed."""
        self._passed[k] = passed

    # ------------------------------------------------------------------
    @staticmethod
    def _is_simple(program: Program) -> bool:
        """Flat single-statement loops — where base LLMs confidently add
        pragmas (TSVC); on dependence-rich imperfect nests (PolyBench)
        they rarely do, and break semantics when they try (Fig 1)."""
        return (len(program.statements) == 1
                and program.max_depth <= 2)

    def _own_intents(self, rng: random.Random,
                     program: Program) -> List[Intent]:
        persona = self.persona
        intents: List[Intent] = []
        if rng.random() >= persona.p_attempt:
            return intents
        simple = self._is_simple(program)
        damp = 1.0 if simple else 0.2
        for kind in persona.repertoire:
            p = {"interchange": 0.5, "fusion": 0.3,
                 "reg_accum": persona.p_reg_accum}.get(kind, 0.25)
            if rng.random() < p:
                intents.append(Intent(kind=kind))
        if rng.random() < persona.p_parallel * damp:
            intents.append(Intent(kind="parallel"))
        if rng.random() < persona.p_vectorize * damp:
            intents.append(Intent(kind="vectorize"))
        return _phase_sorted(intents)

    def _learn_intents(self, prompt: Prompt,
                       rng: random.Random) -> List[Intent]:
        persona = self.persona
        intents: List[Intent] = []
        seen = set()
        for demo in prompt.demos:
            for intent in intents_from_recipe(demo.entry.recipe):
                if intent.kind in seen:
                    continue
                if rng.random() < persona.p_adopt_step:
                    seen.add(intent.kind)
                    intents.append(intent)
        # demonstrations guide the model but do not erase its own
        # repertoire (§1: "while preserving their inherent optimization
        # capabilities") — enabling interchanges especially
        for kind in persona.repertoire:
            if kind in seen:
                continue
            p = {"interchange": 0.6, "fusion": 0.25,
                 "reg_accum": persona.p_reg_accum * 0.5}.get(kind, 0.2)
            if rng.random() < p:
                seen.add(kind)
                intents.append(Intent(kind=kind))
        if "parallel" not in seen and rng.random() < persona.p_parallel:
            intents.append(Intent(kind="parallel"))
        if "vectorize" not in seen and rng.random() < persona.p_vectorize:
            intents.append(Intent(kind="vectorize"))
        return _phase_sorted(intents)

    def _refine_intents(self, prompt: Prompt, k: int,
                        rng: random.Random) -> List[Intent]:
        persona = self.persona
        best: Optional[List[Intent]] = None
        best_seconds = float("inf")
        for record in prompt.attempts:
            if record.passed and record.index in self._intents:
                seconds = record.seconds or float("inf")
                if seconds < best_seconds:
                    best_seconds = seconds
                    best = self._intents[record.index]
        own = self._intents.get(k, [])
        if best is not None:
            intents = list(best)
        elif own and rng.random() < persona.p_drop_bad_step:
            intents = list(own)
            if intents:
                intents.pop(rng.randrange(len(intents)))
        else:
            intents = list(own)
        # half the slots try one extra idea learnt from demos or habits;
        # the other half simplify — drop a demonstrated step and keep the
        # pragmas (rank feedback telling the model "less is more")
        demo_kinds = []
        for demo in prompt.demos:
            demo_kinds.extend(intents_from_recipe(demo.entry.recipe))
        have = {i.kind for i in intents}
        if rng.random() < 0.5:
            extras = [i for i in demo_kinds if i.kind not in have]
            for kind in ("parallel", "vectorize"):
                if kind not in have:
                    extras.append(Intent(kind=kind))
            if extras and rng.random() < 0.8:
                intents.append(rng.choice(extras))
        else:
            droppable = [i for i in intents
                         if i.kind not in ("parallel", "vectorize")]
            if droppable:
                victim = rng.choice(droppable)
                intents = [i for i in intents if i is not victim]
            for kind in ("parallel", "vectorize"):
                if kind not in have:
                    intents.append(Intent(kind=kind))
        return _phase_sorted(intents)

    # ------------------------------------------------------------------
    def _repair(self, prompt: Prompt, k: int, rng: random.Random,
                round_tag: str) -> LLMResponse:
        persona = self.persona
        p_fix = (persona.p_fix_compile if round_tag == "r1-fix"
                 else persona.p_fix_compile_round2)
        fp = prompt.target.fingerprint()
        if self._misread.get(fp) == "syntax":
            # one correlated decision per (target, round): either the
            # diagnostics snap the model out of its misunderstanding for
            # every slot, or none of them
            decide = random.Random(
                f"fix/{persona.name}/{self.seed}/{fp}/{round_tag}")
            if decide.random() < p_fix:
                self._misread[fp] = None
                self._recovered.add(fp)
        intents = self._intents.get(k, [])
        if rng.random() < p_fix:
            return self._emit(prompt, intents, rng, allow_slips=False)
        # failed repair: another slip-prone attempt
        return self._emit(prompt, intents, rng, allow_slips=True)

    def _emit(self, prompt: Prompt, intents: Sequence[Intent],
              rng: random.Random, allow_slips: bool) -> LLMResponse:
        persona = self.persona
        program = prompt.target
        deps = dependences(prompt.target)
        applied: List[TransformStep] = []
        for intent in intents:
            step = materialize(intent, program, rng)
            if step is None:
                continue
            try:
                candidate = step.apply(program)
            except TransformError:
                continue
            careless = rng.random() < persona.p_skip_legality
            if not careless:
                if step.kind in ("parallel", "vectorize"):
                    # LLMs add reduction clauses, so accumulation-carried
                    # dependences don't block their pragmas
                    from ..compilers.base import concurrency_violations
                    col = step.arg_dict()["col"]
                    if concurrency_violations(candidate, deps, col):
                        if step.kind != "parallel":
                            continue
                        # a careful model moves the pragma inward until
                        # it finds a loop that is actually parallel
                        fallback = self._parallel_fallback(
                            program, deps, col)
                        if fallback is None:
                            # last resort: split the statements into
                            # separate nests and rotate each nest's
                            # parallel loop outermost — one pragma per
                            # distributed loop (the s233 pattern)
                            multi = self._parallel_distribute_fallback(
                                program, deps)
                            if multi is None:
                                continue
                            fb_steps, candidate = multi
                            program = candidate
                            applied.extend(fb_steps)
                            continue
                        step, candidate = fallback
                elif not is_legal_schedule(candidate, deps):
                    if step.kind != "tiling":
                        continue
                    # demos show separately tiled nests: imitate by
                    # distributing first, then tiling (Listing 8's gemm)
                    fallback = self._tiling_fallback(program, deps, step)
                    if fallback is None:
                        continue
                    fb_steps, candidate = fallback
                    program = candidate
                    applied.extend(fb_steps)
                    continue
            program = candidate
            applied.append(step)
        slipped = None
        if allow_slips and applied and \
                rng.random() < persona.p_semantic_slip:
            program, slipped = semantic_slip(program, rng)
        if allow_slips and rng.random() < persona.p_syntax_slip:
            program, detail = syntax_slip(program, rng)
            slipped = f"syntax: {detail}"
        # systematic misread: the same corruption lands in every candidate
        fp = prompt.target.fingerprint()
        state = self._misread.get(fp)
        if state == "semantic":
            det = random.Random(f"misslip/{fp}")
            program, detail = semantic_slip(program, det)
            slipped = f"misread: {detail}"
        elif state == "syntax":
            det = random.Random(f"misslip/{fp}")
            program, detail = syntax_slip(program, det)
            slipped = f"misread syntax: {detail}"
        return LLMResponse(program=program,
                           applied=TransformRecipe(tuple(applied)),
                           slipped=slipped)

    @staticmethod
    def _tiling_fallback(program: Program, deps, tile_step: TransformStep):
        """Distribute statements into nests, then retry the tiling."""
        from ..transforms import shared_band
        if len(program.statements) < 2:
            return None
        schedules = program.aligned_schedules()
        for col in range(program.schedule_width):
            if any(s.dims[col].is_dynamic for s in schedules):
                continue
            if len({s.dims[col].value for s in schedules}) != 1:
                continue
            try:
                dist = TransformStep.make("distribution", col=col)
                candidate = dist.apply(program)
            except TransformError:
                continue
            if not is_legal_schedule(candidate, deps):
                continue
            band = shared_band(candidate)
            if not band:
                continue
            sizes = tile_step.arg_dict().get("sizes") or [32]
            try:
                retile = TransformStep.make(
                    "tiling", columns=list(band[:3]),
                    sizes=[int(sizes[0])] * len(band[:3]))
                tiled = retile.apply(candidate)
            except TransformError:
                continue
            if is_legal_schedule(tiled, deps):
                return [dist, retile], tiled
        return None

    @staticmethod
    def _parallel_distribute_fallback(program: Program, deps):
        """Distribute statements, rotate each nest's parallel loop to the
        shared outer column, then mark it parallel."""
        from ..compilers.base import concurrency_violations
        from ..transforms import statement_loop_columns
        if len(program.statements) < 2:
            return None
        schedules = program.aligned_schedules()
        dist_col = None
        for col in range(program.schedule_width):
            if any(s.dims[col].is_dynamic for s in schedules):
                continue
            if len({s.dims[col].value for s in schedules}) == 1:
                dist_col = col
                break
        if dist_col is None:
            return None
        steps = []
        try:
            step = TransformStep.make("distribution", col=dist_col)
            candidate = step.apply(program)
        except TransformError:
            return None
        if not is_legal_schedule(candidate, deps):
            return None
        steps.append(step)
        outer = None
        for stmt in candidate.statements:
            cols = statement_loop_columns(candidate, stmt.name)
            if not cols:
                return None
            if outer is None:
                outer = cols[0]
            # find a loop of this statement that is parallel-safe for its
            # own dependences and rotate it to the shared outer column
            own = {stmt.name}
            for col in cols:
                trial = candidate
                trial_steps = []
                if col != outer:
                    swap = TransformStep.make(
                        "interchange", col_a=outer, col_b=col,
                        stmts=[stmt.name])
                    try:
                        trial = swap.apply(candidate)
                    except TransformError:
                        continue
                    trial_steps.append(swap)
                racy = [d for d in concurrency_violations(trial, deps,
                                                          outer)
                        if d.source in own or d.target in own]
                if not racy and is_legal_schedule(trial, deps):
                    candidate = trial
                    steps.extend(trial_steps)
                    break
            else:
                return None
        try:
            mark = TransformStep.make("parallel", col=outer)
            final = mark.apply(candidate)
        except TransformError:
            return None
        if concurrency_violations(final, deps, outer):
            return None
        steps.append(mark)
        return steps, final

    @staticmethod
    def _parallel_fallback(program: Program, deps, skip_col: int):
        """Find the next-deeper legal parallel column, if any."""
        from ..compilers.base import concurrency_violations
        from ..transforms.base import dynamic_columns
        for col in dynamic_columns(program):
            if col <= skip_col or col in program.parallel_dims:
                continue
            try:
                step = TransformStep.make("parallel", col=col)
                candidate = step.apply(program)
            except TransformError:
                continue
            if not concurrency_violations(candidate, deps, col):
                return step, candidate
        return None
