"""Equivalence checking: coverage-guided differential testing (§4.3).

For one target program at one parameter binding, an
:class:`EquivalenceChecker`:

1. selects test inputs *coverage-guided*: inputs are taken from the
   mutation pool until branch coverage of the ground truth saturates
   (the paper's 500+ → ~25 reduction; our pool is proportionally
   smaller), with a minimum floor so differential power remains;
2. runs the ground truth once per selected input and caches outputs;
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
Results are memoized by candidate fingerprint — identical candidate
programs across pipeline rounds and configurations test once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..ir.program import Program
from ..memo import LRUCache
from ..runtime.data import Storage, checksum, clone_storage
from ..runtime.interpreter import (BranchCoverage, BudgetExceededError,
                                   RuntimeExecutionError, execute)
from .inputs import TestInput, input_pool, materialize_input

VERDICT_PASS = "pass"
VERDICT_IA = "IA"   # incorrect answer
VERDICT_RE = "RE"   # runtime error
VERDICT_ET = "ET"   # execution timeout (instance budget)

_RTOL = 1e-6
_ATOL = 1e-9

#: coverage-guided selection floor/ceiling
_MIN_INPUTS = 3
_MAX_INPUTS = 12
_SATURATION_PATIENCE = 2


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
                 budget: int = 400_000, seed: int = 0) -> None:
        self.original = original
        self.params = dict(params)
        self.budget = budget
        self._inputs: List[TestInput] = []
        self._storages: List[Storage] = []
        self._expected: List[Dict[str, np.ndarray]] = []
        self._checksums: List[float] = []
        self._verdict_cache: Dict[str, TestReport] = {}
        self._select_inputs(seed)

    # ------------------------------------------------------------------
    def _select_inputs(self, seed: int) -> None:
        coverage = BranchCoverage()
        stale = 0
        for candidate in input_pool(seed=seed):
            if len(self._inputs) >= _MAX_INPUTS:
                break
            if stale >= _SATURATION_PATIENCE and \
                    len(self._inputs) >= _MIN_INPUTS:
                break
            storage = materialize_input(self.original, self.params,
                                        candidate)
            pristine = clone_storage(storage)
            before = coverage.ratio()
            execute(self.original, self.params, storage,
                    coverage=coverage, budget=self.budget)
            improved = coverage.ratio() > before
            keep = improved or len(self._inputs) < _MIN_INPUTS
            if keep:
                self._inputs.append(candidate)
                self._storages.append(pristine)
                outputs = {name: storage[name].copy()
                           for name in self.original.outputs}
                self._expected.append(outputs)
                self._checksums.append(_checksum(outputs))
            stale = 0 if improved else stale + 1
        self.coverage = coverage.ratio()

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    # ------------------------------------------------------------------
    def check(self, candidate: Program) -> TestReport:
        """Differentially test one candidate against the ground truth."""
        key = candidate.fingerprint()
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


_CHECKER_CACHE = LRUCache(512)


def checker_for(original: Program, params: Mapping[str, int],
                seed: int = 0) -> EquivalenceChecker:
    """Session-cached checker (the ground truth runs only once)."""
    key = (original.fingerprint(), tuple(sorted(params.items())))
    checker = _CHECKER_CACHE.get(key)
    if checker is None:
        checker = EquivalenceChecker(original, params, seed=seed)
        _CHECKER_CACHE.put(key, checker)
    return checker
