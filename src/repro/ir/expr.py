"""Computation expressions for statement bodies.

SCoP statement bodies are scalar expressions over array references with
affine subscripts, numeric constants and global scalar parameters (e.g.
``alpha``/``beta`` in PolyBench).  The interpreter evaluates these trees;
the cost model counts their operations; the printer renders them as C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Tuple, Union

from ..memo import memoized_str
from .affine import Affine

_FUNCS: dict = {
    "sqrt": lambda x: math.sqrt(abs(x)),
    "exp": lambda x: math.exp(min(x, 50.0)),
    "fabs": abs,
    "pow2": lambda x: x * x,
}


class Expr:
    """Base class for body expressions."""

    def reads(self) -> Iterator["Ref"]:
        """Yield every array reference in the expression."""
        return iter(())

    def op_count(self) -> int:
        """Number of arithmetic operations (for the cost model)."""
        return 0

    def evaluate(self, env: Mapping[str, int], scalars: Mapping[str, float],
                 storage: Mapping[str, "object"]) -> float:
        raise NotImplementedError

    def rename_iters(self, mapping: Mapping[str, str]) -> "Expr":
        raise NotImplementedError

    def rename_arrays(self, mapping: Mapping[str, str]) -> "Expr":
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    """Numeric literal."""

    value: float

    def evaluate(self, env, scalars, storage):
        return self.value

    def rename_iters(self, mapping):
        return self

    def rename_arrays(self, mapping):
        return self

    def __str__(self) -> str:
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Scalar(Expr):
    """Global scalar parameter such as ``alpha``."""

    name: str

    def evaluate(self, env, scalars, storage):
        return scalars[self.name]

    def rename_iters(self, mapping):
        return self

    def rename_arrays(self, mapping):
        return self

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IterExpr(Expr):
    """An affine expression of iterators/parameters used as a value."""

    expr: Affine

    def evaluate(self, env, scalars, storage):
        return float(self.expr.evaluate(env))

    def op_count(self) -> int:
        return max(0, len(self.expr.terms) - 1)

    def rename_iters(self, mapping):
        return IterExpr(self.expr.rename(dict(mapping)))

    def rename_arrays(self, mapping):
        return self

    def __str__(self) -> str:
        return str(self.expr)


@dataclass(frozen=True)
class Ref(Expr):
    """Array reference ``A[f1(i)][f2(i)]...`` with affine subscripts."""

    array: str
    indices: Tuple[Affine, ...]

    def reads(self):
        yield self

    def op_count(self) -> int:
        return 0

    def index_values(self, env: Mapping[str, int]) -> Tuple[int, ...]:
        return tuple(ix.evaluate(env) for ix in self.indices)

    def evaluate(self, env, scalars, storage):
        return storage[self.array][self.index_values(env)]

    def rename_iters(self, mapping):
        m = dict(mapping)
        return Ref(self.array, tuple(ix.rename(m) for ix in self.indices))

    def rename_arrays(self, mapping):
        return Ref(mapping.get(self.array, self.array), self.indices)

    def __str__(self) -> str:
        return self.array + "".join(f"[{ix}]" for ix in self.indices)


@dataclass(frozen=True)
class Bin(Expr):
    """Binary arithmetic operation."""

    op: str  # one of + - * /
    lhs: Expr
    rhs: Expr

    def reads(self):
        yield from self.lhs.reads()
        yield from self.rhs.reads()

    def op_count(self) -> int:
        return 1 + self.lhs.op_count() + self.rhs.op_count()

    def evaluate(self, env, scalars, storage):
        a = self.lhs.evaluate(env, scalars, storage)
        b = self.rhs.evaluate(env, scalars, storage)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b if b != 0 else 0.0
        raise ValueError(f"unknown operator {self.op!r}")

    def rename_iters(self, mapping):
        return Bin(self.op, self.lhs.rename_iters(mapping),
                   self.rhs.rename_iters(mapping))

    def rename_arrays(self, mapping):
        return Bin(self.op, self.lhs.rename_arrays(mapping),
                   self.rhs.rename_arrays(mapping))

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class Neg(Expr):
    """Unary negation."""

    operand: Expr

    def reads(self):
        yield from self.operand.reads()

    def op_count(self) -> int:
        return 1 + self.operand.op_count()

    def evaluate(self, env, scalars, storage):
        return -self.operand.evaluate(env, scalars, storage)

    def rename_iters(self, mapping):
        return Neg(self.operand.rename_iters(mapping))

    def rename_arrays(self, mapping):
        return Neg(self.operand.rename_arrays(mapping))

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class Call(Expr):
    """Pure math function call (sqrt/exp/fabs) — side-effect free per SCoP."""

    func: str
    arg: Expr

    def reads(self):
        yield from self.arg.reads()

    def op_count(self) -> int:
        return 4 + self.arg.op_count()  # transcendental ops cost a few flops

    def evaluate(self, env, scalars, storage):
        fn: Callable[[float], float] = _FUNCS[self.func]
        return fn(self.arg.evaluate(env, scalars, storage))

    def rename_iters(self, mapping):
        return Call(self.func, self.arg.rename_iters(mapping))

    def rename_arrays(self, mapping):
        return Call(self.func, self.arg.rename_arrays(mapping))

    def __str__(self) -> str:
        return f"{self.func}({self.arg})"


#: Assignment operators supported by statement bodies.
ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=")


@dataclass(frozen=True)
class Assignment:
    """``lhs op rhs`` where lhs is an array reference.

    Compound operators make the lhs an implicit read as well, which is how
    WAR/RAW dependences on the written array arise (the ``syrk`` example of
    the paper, §2.1).
    """

    lhs: Ref
    op: str
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in ASSIGN_OPS:
            raise ValueError(f"unsupported assignment operator {self.op!r}")

    def read_refs(self) -> Tuple[Ref, ...]:
        reads = tuple(self.rhs.reads())
        if self.op != "=":
            reads = (self.lhs,) + reads
        return reads

    def write_ref(self) -> Ref:
        return self.lhs

    def op_count(self) -> int:
        extra = 0 if self.op == "=" else 1
        return self.rhs.op_count() + extra

    def rename_iters(self, mapping: Mapping[str, str]) -> "Assignment":
        return Assignment(self.lhs.rename_iters(mapping), self.op,
                          self.rhs.rename_iters(mapping))

    def rename_arrays(self, mapping: Mapping[str, str]) -> "Assignment":
        return Assignment(self.lhs.rename_arrays(mapping), self.op,
                          self.rhs.rename_arrays(mapping))

    @memoized_str
    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs};"


def add(lhs: Expr, rhs: Expr) -> Bin:
    return Bin("+", lhs, rhs)


def sub(lhs: Expr, rhs: Expr) -> Bin:
    return Bin("-", lhs, rhs)


def mul(lhs: Expr, rhs: Expr) -> Bin:
    return Bin("*", lhs, rhs)


def div(lhs: Expr, rhs: Expr) -> Bin:
    return Bin("/", lhs, rhs)
