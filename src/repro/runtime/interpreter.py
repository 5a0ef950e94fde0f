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

* ``vectorized`` (default) — the block executor of
  :mod:`repro.runtime.vectorized` with per-statement vector kernels;
  bit-identical to the reference on outputs, checksums, instance counts
  and raised error classes, but executes dependence-free runs of
  instances as single NumPy operations;
* ``reference`` — the original strict tree-walking interpreter below,
  kept as the executable specification the equivalence suite pins the
  vectorized engine against.

Both execute every instance they run one at a time through
:func:`step`, the single per-instance semantics.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..ir.program import Program
from .data import Storage, allocate, checksum


class RuntimeExecutionError(RuntimeError):
    """Runtime failure of a candidate (RE): bad subscript, empty bound..."""


class BudgetExceededError(RuntimeError):
    """Instance budget exhausted — treated as execution timeout (ET)."""


@dataclass(frozen=True)
class RunResult:
    """Outputs of one interpreted run."""

    outputs: Dict[str, np.ndarray]
    checksum: float
    instances: int


def _budget_error(program: Program, budget: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"{program.name}: more than {budget} statement instances")


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

    The single save/restore point for ``REPRO_ENGINE`` — the
    engine-equivalence tests flip engines through this instead of
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
            storage: Storage, budget: int = 2_000_000) -> int:
    """Execute the program in schedule order, mutating ``storage``.

    Returns the number of instances that actually ran (guards included).
    """
    # synthesized candidates may blow up numerically before the tester
    # rejects them; the overflow itself is data, not a fault
    with np.errstate(over="ignore", invalid="ignore"):
        engine = engine_name()
        if engine == "vectorized":
            from .vectorized import execute_vectorized

            return execute_vectorized(
                program, params, storage, budget,
                lambda b: _budget_error(program, b))
        from .instances import instance_list

        # enumeration and global order are shared with the vectorized
        # engine and the dependence concretizer
        scalars = program.scalar_values()
        items = instance_list(program, params, budget,
                              lambda b: _budget_error(program, b))
        shapes = {name: arr.shape for name, arr in storage.items()}
        executed = 0
        for _key, si, point in items:
            env = dict(params)
            env.update(point)
            executed += step(program.statements[si], env, storage, shapes,
                             scalars, program.name)
        return executed


def step(stmt, env: Dict[str, int], storage: Storage,
         shapes: Mapping[str, Tuple[int, ...]], scalars: Mapping[str, float],
         prog: str) -> bool:
    """Execute one instance of ``stmt`` at ``env``; False if a guard
    skips it.  Both engines run every instance they do not batch here."""
    if any(guard.evaluate(env) < 0 for guard in stmt.guards):
        return False
    lhs = stmt.body.lhs
    idx = lhs.index_values(env)
    shape = shapes.get(lhs.array)
    if shape is None:
        raise RuntimeExecutionError(
            f"{prog}/{stmt.name}: write to unknown array '{lhs.array}'")
    _check_bounds(prog, stmt.name, lhs.array, idx, shape)
    for ref in stmt.body.rhs.reads():
        rshape = shapes.get(ref.array)
        if rshape is None:
            raise RuntimeExecutionError(
                f"{prog}/{stmt.name}: read of unknown array "
                f"'{ref.array}'")
        _check_bounds(prog, stmt.name, ref.array, ref.index_values(env),
                      rshape)
    try:
        value = stmt.body.rhs.evaluate(env, scalars, storage)
    except (KeyError, IndexError) as exc:
        raise RuntimeExecutionError(f"{prog}/{stmt.name}: {exc}") from exc
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
    return True


def _check_bounds(prog: str, stmt: str, array: str,
                  idx: Tuple[int, ...], shape: Tuple[int, ...]) -> None:
    for value, size in zip(idx, shape):
        if value < 0 or value >= size:
            raise RuntimeExecutionError(
                f"{prog}/{stmt}: index {idx} out of bounds for "
                f"'{array}' with shape {shape}")


def run(program: Program, params: Mapping[str, int],
        budget: int = 2_000_000) -> RunResult:
    """Allocate the variant-0 inputs, execute, and collect output
    arrays."""
    storage = allocate(program, params, 0)
    instances = execute(program, params, storage, budget)
    outputs = {name: storage[name].copy() for name in program.outputs}
    return RunResult(outputs=outputs,
                     checksum=checksum(storage, program.outputs),
                     instances=instances)
