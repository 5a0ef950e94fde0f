"""Schedule-ordered SCoP interpreter.

Semantics: enumerate every statement instance (its domain points), map each
through the statement's (aligned) schedule to an integer vector, sort all
instances lexicographically and execute assignments in that order.  This
executes *any* schedule — including illegal ones an LLM persona may emit —
exactly as written, so semantic errors genuinely corrupt outputs and are
caught by differential testing rather than assumed away.

The interpreter is deliberately strict: out-of-bounds subscripts raise
:class:`RuntimeExecutionError` (the paper's RE category) instead of
wrapping, and an instance budget bounds runaway candidates.

Two engines share these semantics (selected by ``REPRO_ENGINE``):

* ``vectorized`` (default) — compiled per-statement kernels plus the
  block executor of :mod:`repro.runtime.vectorized`; bit-identical to
  the reference on outputs, checksums, coverage, instance counts and
  raised error classes, but executes dependence-free runs of instances
  as single NumPy operations;
* ``reference`` — the original strict tree-walking interpreter below,
  kept as the executable specification the equivalence suite pins the
  vectorized engine against.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..ir.program import Program
from .data import Storage, allocate, checksum


class RuntimeExecutionError(RuntimeError):
    """Runtime failure of a candidate (RE): bad subscript, empty bound..."""


class BudgetExceededError(RuntimeError):
    """Instance budget exhausted — treated as execution timeout (ET)."""


@dataclass
class BranchCoverage:
    """Branch outcomes observed while executing (the gcov substitute).

    Tracked branches: every guard of every statement (two outcomes each)
    plus one "statement executed" branch per statement.  Coverage saturates
    quickly on most kernels, which is what lets the tester stop early
    (§4.3: 500+ inputs reduced to ~25).
    """

    outcomes: Set[Tuple[str, int, bool]] = field(default_factory=set)
    possible: Set[Tuple[str, int]] = field(default_factory=set)
    _registered: Set[str] = field(default_factory=set, repr=False)

    def register_program(self, program: Program) -> None:
        """Register a program's branches (idempotent, O(1) on repeat).

        ``execute`` calls this on every run; repeated runs of the same
        program — the differential tester replays each candidate over
        dozens of inputs — are recognised by content fingerprint and
        skipped instead of re-adding every branch to the set.
        """
        key = program.fingerprint()
        if key in self._registered:
            return
        self._registered.add(key)
        for stmt in program.statements:
            self.possible.add((stmt.name, -1))
            for gi in range(len(stmt.guards)):
                self.possible.add((stmt.name, gi))

    def record(self, stmt: str, branch: int, taken: bool) -> None:
        self.outcomes.add((stmt, branch, taken))

    def ratio(self) -> float:
        if not self.possible:
            return 1.0
        total = 0
        covered = 0
        for stmt, branch in self.possible:
            if branch == -1:
                total += 1
                covered += (stmt, -1, True) in self.outcomes
            else:
                total += 2
                covered += (stmt, branch, True) in self.outcomes
                covered += (stmt, branch, False) in self.outcomes
        return covered / total


@dataclass(frozen=True)
class RunResult:
    """Outputs of one interpreted run."""

    outputs: Dict[str, np.ndarray]
    checksum: float
    instances: int


def _budget_error(program: Program, budget: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"{program.name}: more than {budget} statement instances")


def _instances(program: Program, params: Mapping[str, int],
               budget: int) -> List[Tuple[Tuple[int, ...], int, Dict[str, int]]]:
    """Collect (schedule_key, stmt_index, env) for every instance.

    Enumeration and global ordering are shared with the dependence
    concretizer and the vectorized engine (``runtime.instances``); only
    the per-instance execution below stays scalar in this engine.
    """
    from .instances import instance_list

    return instance_list(program, params, budget,
                         lambda b: _budget_error(program, b))


def engine_name() -> str:
    """The active execution engine (``REPRO_ENGINE``, default vectorized)."""
    engine = os.environ.get("REPRO_ENGINE", "vectorized")
    if engine not in ("vectorized", "reference"):
        raise ValueError(
            f"unknown REPRO_ENGINE {engine!r}; "
            f"choose 'vectorized' or 'reference'")
    return engine


@contextmanager
def engine_override(engine: Optional[str]):
    """Temporarily select an execution engine (``None`` = leave as-is).

    The single save/restore point for ``REPRO_ENGINE`` — ``repro perf``
    and the engine-equivalence tests flip engines through this instead of
    hand-rolling environment handling.
    """
    before = os.environ.get("REPRO_ENGINE")
    if engine is not None:
        os.environ["REPRO_ENGINE"] = engine
    try:
        yield
    finally:
        if before is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = before


def execute(program: Program, params: Mapping[str, int],
            storage: Storage,
            coverage: Optional[BranchCoverage] = None,
            budget: int = 2_000_000) -> int:
    """Execute the program in schedule order, mutating ``storage``.

    Returns the number of instances that actually ran (guards included).
    """
    if coverage is not None:
        coverage.register_program(program)
    # synthesized candidates may blow up numerically before the tester
    # rejects them; the overflow itself is data, not a fault
    with np.errstate(over="ignore", invalid="ignore"):
        engine = engine_name()
        if engine == "vectorized":
            from .vectorized import execute_vectorized

            return execute_vectorized(
                program, params, storage, coverage, budget,
                lambda b: _budget_error(program, b))
        scalars = program.scalar_values()
        items = _instances(program, params, budget)
        shapes = {name: arr.shape for name, arr in storage.items()}
        return _run_items(program, params, storage, coverage, items,
                          scalars, shapes)


def _run_items(program, params, storage, coverage, items, scalars,
               shapes) -> int:
    executed = 0
    for _key, si, point in items:
        stmt = program.statements[si]
        env = dict(params)
        env.update(point)
        ok = True
        for gi, guard in enumerate(stmt.guards):
            taken = guard.evaluate(env) >= 0
            if coverage is not None:
                coverage.record(stmt.name, gi, taken)
            if not taken:
                ok = False
                break
        if not ok:
            continue
        if coverage is not None:
            coverage.record(stmt.name, -1, True)
        lhs = stmt.body.lhs
        idx = lhs.index_values(env)
        shape = shapes.get(lhs.array)
        if shape is None:
            raise RuntimeExecutionError(
                f"{program.name}/{stmt.name}: write to unknown array "
                f"'{lhs.array}'")
        _check_bounds(program.name, stmt.name, lhs.array, idx, shape)
        for ref in stmt.body.rhs.reads():
            rshape = shapes.get(ref.array)
            if rshape is None:
                raise RuntimeExecutionError(
                    f"{program.name}/{stmt.name}: read of unknown array "
                    f"'{ref.array}'")
            _check_bounds(program.name, stmt.name, ref.array,
                          ref.index_values(env), rshape)
        try:
            value = stmt.body.rhs.evaluate(env, scalars, storage)
        except (KeyError, IndexError) as exc:
            raise RuntimeExecutionError(
                f"{program.name}/{stmt.name}: {exc}") from exc
        arr = storage[lhs.array]
        if stmt.body.op == "=":
            arr[idx] = value
        elif stmt.body.op == "+=":
            arr[idx] += value
        elif stmt.body.op == "-=":
            arr[idx] -= value
        elif stmt.body.op == "*=":
            arr[idx] *= value
        elif stmt.body.op == "/=":
            arr[idx] = arr[idx] / value if value != 0 else 0.0
        executed += 1
    return executed


def _check_bounds(prog: str, stmt: str, array: str,
                  idx: Tuple[int, ...], shape: Tuple[int, ...]) -> None:
    for value, size in zip(idx, shape):
        if value < 0 or value >= size:
            raise RuntimeExecutionError(
                f"{prog}/{stmt}: index {idx} out of bounds for "
                f"'{array}' with shape {shape}")


def run(program: Program, params: Mapping[str, int], variant: int = 0,
        storage: Optional[Storage] = None,
        coverage: Optional[BranchCoverage] = None,
        budget: int = 2_000_000) -> RunResult:
    """Allocate (or reuse) inputs, execute, and collect output arrays."""
    if storage is None:
        storage = allocate(program, params, variant)
    instances = execute(program, params, storage, coverage, budget)
    outputs = {name: storage[name].copy() for name in program.outputs}
    return RunResult(outputs=outputs,
                     checksum=checksum(storage, program.outputs),
                     instances=instances)
