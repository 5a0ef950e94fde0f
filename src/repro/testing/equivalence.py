"""Equivalence checking: differential testing on mutated inputs (§4.3).

For one target program at one parameter binding, an
:class:`EquivalenceChecker`:

1. takes the first ``_INPUTS`` entries of the mutation pool as its test
   inputs;
2. runs the ground truth once per input and caches outputs;
3. checks each candidate with **checksum testing** first (the quick
   filter) and **element-wise testing** second, with FP tolerance —
   legal reorderings change floating-point rounding, so exact equality
   would reject legal transformations.

Two *audits* complement interpretation, standing in for effects that only
manifest at full problem scale or under true concurrency (the paper's
tests run the real binaries at EXTRALARGE sizes on 96 threads, where both
effects appear):

* **order audit** — a candidate whose schedule reorders a recorded
  dependence witness is wrong at any size where its tile boundaries are
  crossed, even if the small differential size hides it (a size-32 tile
  never crosses a boundary at N=8);
* **race audit** — the interpreter is sequential, so an ``omp parallel``
  mark on a dependence-carrying loop cannot corrupt outputs here, but
  would on the testbed; the audit rejects it the way a real run's
  nondeterministic output mismatch would.

Verdicts map onto the paper's failure classes: IA (wrong answer),
RE (runtime error), ET (instance budget / modeled timeout elsewhere).
Verdicts are memoized by candidate name and fingerprint — identical
candidate programs across pipeline rounds and configurations test once
(RE details name the program, so a renamed copy tests on its own).
Below that, the test battery is memoized on what the interpreter
executes, :func:`~repro.runtime.vectorized.execution_key`: the name, the
compiled kernels, the scalars and the global instance order at the
checker's binding.  Candidates with equal keys write the same values in
the same order on every input, so they get the same report.  The ground
truth's own report (a pass on every selected input) is stored when the
checker is built, keyed without the name, since a clean run names no
program.  So a candidate whose schedule collapses to the source order
at the small test sizes — a tile larger than the extent, a marks-only
variant — runs no battery at all.  The audits still run for every
fingerprint, because the race audit reads the marks.

The paper selects its inputs coverage-guided, cutting 500+ mutants to
about 25.  For SCoPs with affine guards that selection reduces to the
input floor: every guard and subscript is affine in the iterators and
parameters, so branch outcomes never depend on the array data, and the
first input already reaches the final coverage.  The checker therefore
keeps the floor, chosen without running anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..ir.program import Program
from ..memo import memoized
from ..runtime.data import Storage, checksum, clone_storage
from ..runtime.interpreter import (BudgetExceededError,
                                   RuntimeExecutionError, execute)
from ..runtime.vectorized import execution_key
from .inputs import TestInput, input_pool, materialize_input

VERDICT_PASS = "pass"
VERDICT_IA = "IA"   # incorrect answer
VERDICT_RE = "RE"   # runtime error
VERDICT_ET = "ET"   # execution timeout (instance budget)

_RTOL = 1e-6
_ATOL = 1e-9

#: test inputs per checker: the first entries of the mutation pool
_INPUTS = 3

#: statement instances one test run may execute (ET beyond it)
TEST_BUDGET = 400_000


@dataclass(frozen=True)
class TestReport:
    """Outcome of testing one candidate."""

    verdict: str
    detail: str = ""
    inputs_used: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_PASS


def _checksum(outputs: Mapping[str, np.ndarray]) -> float:
    """Quick-filter checksum — ``runtime.data.checksum`` over the outputs."""
    return checksum(outputs, tuple(outputs))


class EquivalenceChecker:
    """Differential tester for one (program, params) pair."""

    def __init__(self, original: Program, params: Mapping[str, int],
                 budget: int = TEST_BUDGET, seed: int = 0) -> None:
        self.original = original
        self.params = dict(params)
        self.budget = budget
        self._inputs: List[TestInput] = input_pool(seed=seed)[:_INPUTS]
        self._storages: List[Storage] = []
        self._expected: List[Dict[str, np.ndarray]] = []
        self._checksums: List[float] = []
        self._verdict_cache: Dict[Tuple[str, str], TestReport] = {}
        self._run_ground_truth()
        # the ground truth ran cleanly on every input, so whatever runs
        # its instance stream passes under any name (``checker_for``
        # shares a checker between kernels that differ only in name):
        # its entry leaves the name out of the key
        self._run_cache: Dict[Tuple, TestReport] = {
            execution_key(original, self.params, budget)[1:]:
                TestReport(VERDICT_PASS, "", self.num_inputs)}

    # ------------------------------------------------------------------
    def _run_ground_truth(self) -> None:
        for test_input in self._inputs:
            storage = materialize_input(self.original, self.params,
                                        test_input)
            self._storages.append(clone_storage(storage))
            execute(self.original, self.params, storage,
                    budget=self.budget)
            outputs = {name: storage[name].copy()
                       for name in self.original.outputs}
            self._expected.append(outputs)
            self._checksums.append(_checksum(outputs))

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    # ------------------------------------------------------------------
    def check(self, candidate: Program) -> TestReport:
        """Differentially test one candidate against the ground truth."""
        key = (candidate.name, candidate.fingerprint())
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        report = self._check_uncached(candidate)
        self._verdict_cache[key] = report
        return report

    def _check_uncached(self, candidate: Program) -> TestReport:
        audit = self._audits(candidate)
        if audit is not None:
            return audit
        try:
            key = execution_key(candidate, self.params, self.budget)
        except Exception:
            return self._run(candidate)  # it reports the failure
        report = self._run_cache.get(key[1:]) or self._run_cache.get(key)
        if report is None:
            report = self._run_cache[key] = self._run(candidate)
        return report

    def _run(self, candidate: Program) -> TestReport:
        """Execute the test battery (what :func:`execution_key` covers)."""
        used = 0
        for idx, pristine in enumerate(self._storages):
            storage = clone_storage(pristine)
            used += 1
            try:
                execute(candidate, self.params, storage,
                        budget=self.budget)
            except RuntimeExecutionError as exc:
                return TestReport(VERDICT_RE, str(exc), used)
            except BudgetExceededError as exc:
                return TestReport(VERDICT_ET, str(exc), used)
            except Exception as exc:  # defensive: malformed candidates
                return TestReport(VERDICT_RE, repr(exc), used)
            outputs = {name: storage.get(name)
                       for name in self.original.outputs}
            if any(arr is None for arr in outputs.values()):
                return TestReport(VERDICT_IA,
                                  "missing output array", used)
            # quick filter: checksum testing, then element-wise testing
            got_sum = _checksum(outputs)
            want_sum = self._checksums[idx]
            if math.isclose(got_sum, want_sum, rel_tol=1e-5, abs_tol=1e-6):
                continue
            if not self._elementwise(outputs, idx):
                return TestReport(
                    VERDICT_IA,
                    f"output mismatch on {self._inputs[idx].describe()}",
                    used)
        return TestReport(VERDICT_PASS, "", used)

    def _audits(self, candidate: Program) -> Optional[TestReport]:
        """Full-scale order audit + concurrency race audit (see module doc)."""
        from ..analysis.dependences import dependences, schedule_violations
        try:
            deps = dependences(self.original)
        except Exception:
            return None
        own = {s.name for s in self.original.statements}
        cand_names = {s.name for s in candidate.statements}
        if own - cand_names:
            return None  # structure diverged; leave it to interpretation
        try:
            reordered = schedule_violations(candidate, deps)
        except Exception:
            return None
        if reordered:
            dep = reordered[0]
            return TestReport(
                VERDICT_IA,
                f"reordered dependence {dep} (manifests at full size)", 0)
        from ..compilers.base import concurrency_violations
        for col in sorted(candidate.parallel_dims | candidate.vector_dims):
            kind = ("parallel" if col in candidate.parallel_dims
                    else "simd")
            try:
                racy = concurrency_violations(candidate, deps, col,
                                              forgive_reductions=True)
            except Exception:
                return None
            if racy:
                return TestReport(
                    VERDICT_IA,
                    f"data race: {kind} loop at column {col} carries "
                    f"{racy[0]}", 0)
        return None

    def _elementwise(self, outputs: Mapping[str, np.ndarray],
                     idx: int) -> bool:
        expected = self._expected[idx]
        for name, want in expected.items():
            got = outputs[name]
            if got.shape != want.shape:
                return False
            if not np.allclose(got, want, rtol=_RTOL, atol=_ATOL,
                               equal_nan=True):
                return False
        return True


@memoized(512, key=lambda original, params: (
    original.fingerprint(), tuple(sorted(params.items()))))
def checker_for(original: Program,
                params: Mapping[str, int]) -> EquivalenceChecker:
    """Session-cached checker (the ground truth runs only once)."""
    return EquivalenceChecker(original, params)
