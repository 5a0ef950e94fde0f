"""Per-statement vector kernels for the vectorized engine.

This module lowers every statement's RHS to a **vector kernel**:
generated NumPy source that evaluates it for a whole batch of instances
as array expressions over pre-gathered read columns, compiled once per
program :meth:`~repro.ir.program.Program.kernel_key` and cached.  There
is no compiled scalar path: every instance the engine does not batch
runs on the reference interpreter's
:func:`~repro.runtime.interpreter.step`.

Vectorization is *refused* at compile time whenever NumPy cannot
reproduce the scalar semantics bit-for-bit or structurally: ``exp`` calls
(NumPy's SIMD ``exp`` differs from ``math.exp`` in the last ulp — the
scalar reference wins), references whose rank disagrees with the array
declaration (the reference's partial-indexing/IndexError behaviour is
easier to reproduce one instance at a time), and unknown arrays or
functions.  Such statements run one instance at a time on ``step``;
results stay identical either way.

The kernel key covers the array declarations plus each statement's name,
domain, guards and body — exactly what :func:`compile_statement` reads.
It leaves out the schedule (a kernel evaluates one batch of instances
wherever the schedule puts it), the parallel/vector marks and tags
(they carry no semantics) and the program name (only errors name it,
and they come from ``step``).  So every schedule-only or pragma-only
candidate of a program runs on the kernels compiled for the first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..ir.affine import Affine
from ..ir.expr import (Assignment, Bin, Call, Const, Expr, IterExpr, Neg,
                       Ref, Scalar)
from ..ir.program import Program
from ..memo import memoized
from .instances import affine_column

#: funcs whose NumPy lowering is bit-identical to the scalar ``_FUNCS``
#: (sqrt is correctly rounded on both sides; fabs/pow2 are exact) —
#: ``exp`` is deliberately absent
_VECTOR_FUNCS = {
    "sqrt": "np.sqrt(np.abs({0}))",
    "fabs": "np.abs({0})",
    "pow2": "_pow2({0})",
}


def _vdiv(a, b):
    """Elementwise ``a / b if b != 0 else 0.0`` (bit-identical lanes)."""
    b = np.asarray(b)
    if b.ndim == 0:
        return a / b if b != 0 else np.zeros_like(np.asarray(a, dtype=float))
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(a, b, out=out, where=(b != 0))
    return out


def _pow2(x):
    return x * x


def _as_batch(value, n: int) -> np.ndarray:
    """Materialise a kernel result as a length-``n`` float64 vector."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape == (n,):
        return arr
    return np.broadcast_to(arr, (n,))


# ----------------------------------------------------------------------
# Source generation helpers
# ----------------------------------------------------------------------
class _VectorUnsupported(Exception):
    """RHS contains a construct the vector lowering must not touch."""


def _vector_expr_src(expr: Expr, read_slots: Dict[int, str],
                     affines: List[Affine]) -> str:
    """RHS tree as NumPy source over gathered read columns."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Scalar):
        return f"scalars[{expr.name!r}]"
    if isinstance(expr, IterExpr):
        affines.append(expr.expr)
        return (f"_col(_AFF[{len(affines) - 1}], cols, params, _n)"
                f".astype(np.float64)")
    if isinstance(expr, Ref):
        slot = read_slots[id(expr)]
        return f"storage[{expr.array!r}][{slot}]"
    if isinstance(expr, Bin):
        lhs = _vector_expr_src(expr.lhs, read_slots, affines)
        rhs = _vector_expr_src(expr.rhs, read_slots, affines)
        if expr.op == "/":
            return f"_vdiv({lhs}, {rhs})"
        return f"({lhs} {expr.op} {rhs})"
    if isinstance(expr, Neg):
        return f"(-{_vector_expr_src(expr.operand, read_slots, affines)})"
    if isinstance(expr, Call):
        template = _VECTOR_FUNCS.get(expr.func)
        if template is None:
            raise _VectorUnsupported(expr.func)
        return template.format(
            _vector_expr_src(expr.arg, read_slots, affines))
    raise TypeError(f"unknown expression node {type(expr).__name__}")


# ----------------------------------------------------------------------
# Compiled statement / program
# ----------------------------------------------------------------------
@dataclass
class CompiledStatement:
    """Everything the engines need to run one statement fast."""

    name: str
    op: str
    iter_names: Tuple[str, ...]
    guards: Tuple[Affine, ...]
    write_ref: Ref
    read_refs: Tuple[Ref, ...]        # RHS reads in tree order (no lhs)
    vector_values: Optional[Callable]  # None => scalar path only
    vector_ok: bool
    pure_input: bool                  # RHS reads no array any stmt writes


@dataclass
class CompiledProgram:
    key: str
    statements: Tuple[CompiledStatement, ...]


def _compile_vector_values(stmt, body: Assignment) -> Optional[Callable]:
    """Generate the batched RHS evaluator, or None when unsupported."""
    read_slots: Dict[int, str] = {}
    for k, ref in enumerate(body.rhs.reads()):
        read_slots[id(ref)] = f"ridx[{k}]"
    affines: List[Affine] = []
    try:
        src = _vector_expr_src(body.rhs, read_slots, affines)
    except _VectorUnsupported:
        return None
    lines = ["def _values(storage, scalars, cols, params, ridx, _n):",
             f"    return _as_batch({src}, _n)"]
    namespace = {"np": np, "_col": affine_column, "_vdiv": _vdiv,
                 "_pow2": _pow2, "_as_batch": _as_batch,
                 "_AFF": tuple(affines)}
    exec("\n".join(lines), namespace)  # noqa: S102 - generated from the IR
    return namespace["_values"]


def _vectorizable(program: Program, stmt) -> bool:
    """Structural preconditions for the batched path on one statement."""
    ranks = {decl.name: decl.rank for decl in program.arrays}
    refs = [stmt.body.lhs] + list(stmt.body.rhs.reads())
    for ref in refs:
        rank = ranks.get(ref.array)
        if rank is None or rank != len(ref.indices) or rank == 0:
            return False
    return True


def compile_statement(program: Program, stmt) -> CompiledStatement:
    body = stmt.body
    vector_ok = _vectorizable(program, stmt)
    vector_values = _compile_vector_values(stmt, body) if vector_ok else None
    if vector_values is None:
        vector_ok = False
    written = {s.body.lhs.array for s in program.statements}
    pure_input = all(ref.array not in written for ref in body.rhs.reads())
    return CompiledStatement(
        name=stmt.name,
        op=body.op,
        iter_names=stmt.domain.iterator_names,
        guards=stmt.guards,
        write_ref=body.lhs,
        read_refs=tuple(body.rhs.reads()),
        vector_values=vector_values,
        vector_ok=vector_ok,
        pure_input=pure_input,
    )


@memoized(2048, key=lambda program: program.kernel_key())
def compile_program(program: Program) -> CompiledProgram:
    """Memoized lowering of a program (keyed by its kernel key)."""
    return CompiledProgram(
        key=program.kernel_key(),
        statements=tuple(compile_statement(program, stmt)
                         for stmt in program.statements))
