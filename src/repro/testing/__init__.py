"""Equivalence checking: mutation inputs + differential tests."""

from .equivalence import (EquivalenceChecker, TestReport, VERDICT_ET,
                          VERDICT_IA, VERDICT_PASS, VERDICT_RE,
                          checker_for)
from .inputs import (MUTATION_KINDS, TestInput, input_pool,
                     materialize_input)

__all__ = [
    "EquivalenceChecker", "TestReport", "VERDICT_ET", "VERDICT_IA",
    "VERDICT_PASS", "VERDICT_RE", "checker_for",
    "MUTATION_KINDS", "TestInput", "input_pool", "materialize_input",
]
