"""Prompt construction (Appendix E).

Prompt *text* is built exactly in the paper's four shapes — base,
demonstration, compilation-feedback, and testing-results + performance-
rankings feedback.  A :class:`Prompt` holds the structured payload
(target program, demonstrations, feedback records), which is all the
simulated LLM reads; the text is the human-auditable rendering that a
real LLM would consume, rendered from that payload on first read (one
renderer per prompt kind), and examples print it.  Prior candidates'
code stays a program until the text is read, so a feedback round renders
no code that nobody reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

from ..codegen import scop_body_to_c
from ..ir.program import Program
from ..retrieval.retriever import RetrievedDemo

GENERATION_RULES = (
    "Here are some generation rules: 1. Provide one optimized code. "
    "2. Do not include the original C program in your response. "
    "3. Do not define new function. 4. Existed variables do not need to "
    "be redefined. If you generate new variable for computing, please "
    "use the double type. 5. Put your code in markdown code block.")

KIND_BASE = "base"
KIND_DEMO = "demo"
KIND_COMPILE_FEEDBACK = "compile-feedback"
KIND_TEST_RANK_FEEDBACK = "test-rank-feedback"


#: code shown in a feedback prompt: its text, or the program whose
#: :func:`fenced_code` rendering it is (rendered only when read)
Code = Union[str, Program]


def fenced_code(program: Program) -> str:
    """A program's loop nest in a markdown C block, as an LLM answers."""
    return "```c\n" + scop_body_to_c(program) + "\n```"


def _code_text(code: Code) -> str:
    return code if isinstance(code, str) else fenced_code(code)


@dataclass(frozen=True)
class AttemptRecord:
    """One prior candidate shown in the feedback prompt."""

    index: int
    code: Code
    program: Optional[Program]
    passed: bool
    seconds: Optional[float]

    @property
    def code_text(self) -> str:
        return _code_text(self.code)


@dataclass(frozen=True)
class Prompt:
    """The structured payload the simulated LLM reads; ``text`` renders
    it for a human (or a real LLM) on first read."""

    kind: str
    target: Program
    target_text: str
    demos: Tuple[RetrievedDemo, ...] = ()
    compile_error: Optional[str] = None
    last_program: Optional[Program] = None
    attempts: Tuple[AttemptRecord, ...] = ()
    last_code: Code = ""

    @cached_property
    def text(self) -> str:
        return _RENDERERS[self.kind](self)


def base_prompt(target: Program, target_text: str) -> Prompt:
    """Appendix E.1 — the baseline-LLM prompt."""
    return Prompt(kind=KIND_BASE, target=target, target_text=target_text)


def _base_text(prompt: Prompt) -> str:
    return ("As a compiler, given the C program below, improve its "
            "performance using meaning-preserving loop transformation "
            f"methods:\n\n{prompt.target_text}\n\n{GENERATION_RULES}")


def demo_prompt(target: Program, target_text: str,
                demos: Sequence[RetrievedDemo]) -> Prompt:
    """Appendix E.2 — generation step 1 with demonstrations."""
    return Prompt(kind=KIND_DEMO, target=target, target_text=target_text,
                  demos=tuple(demos))


def _demo_text(prompt: Prompt) -> str:
    blocks: List[str] = []
    for demo in prompt.demos:
        blocks.append("// original code\n" + demo.entry.example_text)
        blocks.append("// optimized code\n" + demo.entry.optimized_text)
    return ("\n\n".join(blocks)
            + "\n\nPlease analyze what meaning-preserving loop "
              "transformation methods are used in above examples, and "
              "tell me what you learn.\n\n"
              "please use appropriate methods you learn from examples to "
              f"improve its performance:\n\n{prompt.target_text}\n\n"
            + GENERATION_RULES)


def compile_feedback_prompt(previous: Prompt, last_code: Code,
                            last_program: Optional[Program],
                            error: str) -> Prompt:
    """Appendix E.3 — regenerate after a compilation error."""
    return Prompt(kind=KIND_COMPILE_FEEDBACK, target=previous.target,
                  target_text=previous.target_text, demos=previous.demos,
                  compile_error=error, last_program=last_program,
                  last_code=last_code)


def _compile_feedback_text(prompt: Prompt) -> str:
    return (f"This optimized version:\n\n{_code_text(prompt.last_code)}"
            "\n\ndid a wrong transformation from the source code, "
            "resulting in a compilation error. This is the compiler error "
            f"message:\n\n{prompt.compile_error}\n\n"
            "Please check the optimized code and regenerate it.")


def test_rank_feedback_prompt(previous: Prompt,
                              attempts: Sequence[AttemptRecord]) -> Prompt:
    """Appendix E.4 — testing results + performance rankings feedback."""
    return Prompt(kind=KIND_TEST_RANK_FEEDBACK, target=previous.target,
                  target_text=previous.target_text, demos=previous.demos,
                  attempts=tuple(attempts))


def _test_rank_feedback_text(prompt: Prompt) -> str:
    attempts = prompt.attempts
    blocks: List[str] = []
    for record in attempts:
        label = "Available" if record.passed else "Failed"
        blocks.append(f"{label} Example [{record.index}]:\n"
                      + record.code_text)
    passing = sorted((r for r in attempts if r.passed),
                     key=lambda r: r.seconds or float("inf"))
    rank_line = " > ".join(str(r.index) for r in passing) or "(none)"
    failed_line = ", ".join(str(r.index) for r in attempts
                            if not r.passed) or "(none)"
    return ("\n\n".join(blocks)
            + "\n\nThe above examples are optimized by LLMs using "
              "meaning-preserving loop transformation methods. Available "
              "examples pass compilation, execution and equivalence "
              "checks; failed examples do not. Here is the original "
              f"code:\n\n{prompt.target_text}\n\n"
              f"Performance rank result (\">\" means better than):\n"
              f"{rank_line}\nFailed: {failed_line}\n\n"
              "Task: Analyze why available examples succeeded and failed "
              "examples broke correctness. Improve the performance of "
              "original code using the highest-impact meaning-preserving "
              "loop transformation methods learnt from the ranked "
              "examples.")


_RENDERERS = {
    KIND_BASE: _base_text,
    KIND_DEMO: _demo_text,
    KIND_COMPILE_FEEDBACK: _compile_feedback_text,
    KIND_TEST_RANK_FEEDBACK: _test_rank_feedback_text,
}
