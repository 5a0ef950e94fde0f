"""Simulated LLMs: prompts (Appendix E), personas, generation."""

from .adapt import (Intent, intents_from_recipe, materialize,
                    semantic_slip, syntax_slip)
from .personas import (DEEPSEEK_V25, DEEPSEEK_V3, GPT_4O, PERSONAS,
                       Persona)
from .prompts import (AttemptRecord, KIND_BASE, KIND_COMPILE_FEEDBACK,
                      KIND_DEMO, KIND_TEST_RANK_FEEDBACK, Prompt,
                      base_prompt, compile_feedback_prompt, demo_prompt,
                      test_rank_feedback_prompt)
from .simulated import LLMResponse, SimulatedLLM

#: LLM backends by name: ``factory(persona, seed) -> llm``, where an llm
#: provides ``generate(prompt, slot, round_tag)`` and
#: ``note_result(slot, passed)`` (the :class:`SimulatedLLM` protocol).
#: ``"simulated"`` is the paper backend; an API-backed client would be
#: one more entry.
LLM_BACKENDS = {"simulated": SimulatedLLM}

__all__ = [
    "Intent", "intents_from_recipe", "materialize", "semantic_slip",
    "syntax_slip",
    "DEEPSEEK_V25", "DEEPSEEK_V3", "GPT_4O", "PERSONAS", "Persona",
    "AttemptRecord", "KIND_BASE", "KIND_COMPILE_FEEDBACK", "KIND_DEMO",
    "KIND_TEST_RANK_FEEDBACK", "Prompt", "base_prompt",
    "compile_feedback_prompt", "demo_prompt", "test_rank_feedback_prompt",
    "LLMResponse", "SimulatedLLM", "LLM_BACKENDS",
]
