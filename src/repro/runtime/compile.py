"""Per-statement kernel compilation for the vectorized engine.

The reference interpreter re-walks each statement's guard, subscript and
RHS expression trees once per instance.  This module lowers every
statement to generated Python source, compiled once per program
:meth:`~repro.ir.program.Program.kernel_key` and cached:

* a **scalar step** — one function per statement that executes a single
  instance with exactly the reference semantics: same guard/coverage
  order, same bounds checks (via the shared ``_check_bounds``), same
  error classes and messages, same arithmetic tree shape (so results are
  bit-identical);
* a **vector kernel** — one function per statement that evaluates the RHS
  for a whole batch of instances as NumPy array expressions over
  pre-gathered read columns.

Vectorization is *refused* at compile time whenever NumPy cannot
reproduce the scalar semantics bit-for-bit or structurally: ``exp`` calls
(NumPy's SIMD ``exp`` differs from ``math.exp`` in the last ulp — the
scalar reference wins), references whose rank disagrees with the array
declaration (the reference's partial-indexing/IndexError behaviour is
easier to reproduce one instance at a time), and unknown arrays or
functions.  Such statements run on the scalar step instead; results stay
identical either way.

The kernel key covers the array declarations plus each statement's name,
domain, guards and body — exactly what :func:`compile_statement` reads.
It leaves out the schedule (a kernel runs one instance, or one batch of
instances, wherever the schedule puts it), the parallel/vector marks and
tags (they carry no semantics) and the program name (the kernels take it
as a run-time argument for their error messages).  So every
schedule-only or pragma-only candidate of a program runs on the kernels
compiled for the first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..ir.affine import Affine
from ..ir.expr import (Assignment, Bin, Call, Const, Expr, IterExpr, Neg,
                       Ref, Scalar, _FUNCS)
from ..ir.program import Program
from ..memo import LRUCache
from .instances import affine_column
from .interpreter import RuntimeExecutionError, _check_bounds

#: funcs whose NumPy lowering is bit-identical to the scalar ``_FUNCS``
#: (sqrt is correctly rounded on both sides; fabs/pow2 are exact) —
#: ``exp`` is deliberately absent
_VECTOR_FUNCS = {
    "sqrt": "np.sqrt(np.abs({0}))",
    "fabs": "np.abs({0})",
    "pow2": "_pow2({0})",
}


def _sdiv(a, b):
    """The interpreter's guarded scalar division."""
    return a / b if b != 0 else 0.0


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
def _affine_scalar_src(expr: Affine) -> str:
    """Affine expression as Python source over an ``env`` dict of ints."""
    parts = [str(expr.const)]
    for name, coeff in expr.terms:
        parts.append(f"{coeff}*env[{name!r}]")
    return "(" + " + ".join(parts) + ")"


class _VectorUnsupported(Exception):
    """RHS contains a construct the vector lowering must not touch."""


def _scalar_expr_src(expr: Expr, read_slots: Dict[int, str]) -> str:
    """RHS tree as scalar Python source (reads resolve to index locals)."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Scalar):
        return f"scalars[{expr.name!r}]"
    if isinstance(expr, IterExpr):
        return f"float({_affine_scalar_src(expr.expr)})"
    if isinstance(expr, Ref):
        slot = read_slots[id(expr)]
        return f"storage[{expr.array!r}][{slot}]"
    if isinstance(expr, Bin):
        lhs = _scalar_expr_src(expr.lhs, read_slots)
        rhs = _scalar_expr_src(expr.rhs, read_slots)
        if expr.op == "/":
            return f"_sdiv({lhs}, {rhs})"
        return f"({lhs} {expr.op} {rhs})"
    if isinstance(expr, Neg):
        return f"(-{_scalar_expr_src(expr.operand, read_slots)})"
    if isinstance(expr, Call):
        return (f"_FUNCS[{expr.func!r}]"
                f"({_scalar_expr_src(expr.arg, read_slots)})")
    raise TypeError(f"unknown expression node {type(expr).__name__}")


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
    scalar_step: Callable
    vector_values: Optional[Callable]  # None => scalar path only
    vector_ok: bool
    pure_input: bool                  # RHS reads no array any stmt writes


@dataclass
class CompiledProgram:
    key: str
    statements: Tuple[CompiledStatement, ...]


def _compile_scalar_step(stmt, body: Assignment) -> Callable:
    """Generate the per-instance step mirroring ``_run_items`` exactly."""
    lines: List[str] = ["def _step(env, storage, shapes, scalars, "
                        "coverage, _prog):"]

    def emit(text: str, indent: int = 1) -> None:
        lines.append("    " * indent + text)

    for gi, guard in enumerate(stmt.guards):
        emit(f"_taken = {_affine_scalar_src(guard)} >= 0")
        emit("if coverage is not None:")
        emit(f"    coverage.record({stmt.name!r}, {gi}, _taken)")
        emit("if not _taken:")
        emit("    return False")
    emit("if coverage is not None:")
    emit(f"    coverage.record({stmt.name!r}, -1, True)")

    lhs = body.lhs
    widx = ", ".join(_affine_scalar_src(ix) for ix in lhs.indices)
    emit(f"_w = ({widx}{',' if len(lhs.indices) == 1 else ''})")
    emit(f"_shape = shapes.get({lhs.array!r})")
    emit("if _shape is None:")
    emit(f"    raise RuntimeExecutionError(")
    emit(f"        f\"{{_prog}}/{stmt.name}: write to unknown array \"")
    emit(f"        f\"'{lhs.array}'\")")
    emit(f"_check_bounds(_prog, {stmt.name!r}, {lhs.array!r}, _w, _shape)")

    read_slots: Dict[int, str] = {}
    for k, ref in enumerate(body.rhs.reads()):
        slot = f"_r{k}"
        read_slots[id(ref)] = slot
        ridx = ", ".join(_affine_scalar_src(ix) for ix in ref.indices)
        emit(f"{slot} = ({ridx}{',' if len(ref.indices) == 1 else ''})")
        emit(f"_rshape = shapes.get({ref.array!r})")
        emit("if _rshape is None:")
        emit(f"    raise RuntimeExecutionError(")
        emit(f"        f\"{{_prog}}/{stmt.name}: read of unknown array \"")
        emit(f"        f\"'{ref.array}'\")")
        emit(f"_check_bounds(_prog, {stmt.name!r}, {ref.array!r}, "
             f"{slot}, _rshape)")

    emit("try:")
    emit(f"    _value = {_scalar_expr_src(body.rhs, read_slots)}")
    emit("except (KeyError, IndexError) as exc:")
    emit("    raise RuntimeExecutionError(")
    emit(f"        f\"{{_prog}}/{stmt.name}: {{exc}}\") from exc")
    emit(f"_arr = storage[{lhs.array!r}]")
    if body.op == "=":
        emit("_arr[_w] = _value")
    elif body.op in ("+=", "-=", "*="):
        emit(f"_arr[_w] {body.op} _value")
    else:  # "/="
        emit("_arr[_w] = _arr[_w] / _value if _value != 0 else 0.0")
    emit("return True")

    namespace = {"RuntimeExecutionError": RuntimeExecutionError,
                 "_check_bounds": _check_bounds, "_FUNCS": _FUNCS,
                 "_sdiv": _sdiv}
    exec("\n".join(lines), namespace)  # noqa: S102 - generated from the IR
    return namespace["_step"]


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
        scalar_step=_compile_scalar_step(stmt, body),
        vector_values=vector_values,
        vector_ok=vector_ok,
        pure_input=pure_input,
    )


_COMPILE_CACHE = LRUCache(2048)


def compile_program(program: Program) -> CompiledProgram:
    """Memoized lowering of a program (keyed by its kernel key)."""
    key = program.kernel_key()
    cached = _COMPILE_CACHE.get(key)
    if cached is None:
        cached = CompiledProgram(
            key=key,
            statements=tuple(compile_statement(program, stmt)
                             for stmt in program.statements))
        _COMPILE_CACHE.put(key, cached)
    return cached
