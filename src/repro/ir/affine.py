"""Affine expressions over iterators and global parameters.

An :class:`Affine` is an immutable integer-coefficient linear expression
``c0 + c1*x1 + ... + cn*xn`` where the ``xi`` are iterator or parameter
names.  Affine expressions are the currency of the whole IR: loop bounds,
array subscripts, schedule dimensions and guards are all affine, which is
exactly the SCoP restriction the paper works under (§2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple, Union

import numpy as np

Number = int
AffineLike = Union["Affine", int]


@dataclass(frozen=True)
class Affine:
    """Immutable affine expression: ``const + sum(coeff * var)``.

    ``terms`` is kept sorted by variable name so that structurally equal
    expressions compare and hash equal.
    """

    terms: Tuple[Tuple[str, int], ...] = ()
    const: int = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def const_expr(value: int) -> "Affine":
        """Return the constant affine expression ``value``."""
        return Affine((), int(value))

    @staticmethod
    def var(name: str, coeff: int = 1) -> "Affine":
        """Return ``coeff * name``."""
        if coeff == 0:
            return Affine()
        return Affine(((name, int(coeff)),), 0)

    @staticmethod
    def from_terms(terms: Mapping[str, int], const: int = 0) -> "Affine":
        """Build from a ``{var: coeff}`` mapping, dropping zero coefficients."""
        cleaned = tuple(sorted((v, int(c)) for v, c in terms.items() if c != 0))
        return Affine(cleaned, int(const))

    @staticmethod
    def coerce(value: AffineLike) -> "Affine":
        """Accept either an :class:`Affine` or a plain integer."""
        if isinstance(value, Affine):
            return value
        return Affine.const_expr(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def coeff(self, name: str) -> int:
        """Coefficient of ``name`` (0 when absent)."""
        for var, c in self.terms:
            if var == name:
                return c
        return 0

    def variables(self) -> Tuple[str, ...]:
        """Names with non-zero coefficient, sorted."""
        return tuple(v for v, _ in self.terms)

    @property
    def is_constant(self) -> bool:
        return not self.terms

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: AffineLike) -> "Affine":
        other = Affine.coerce(other)
        merged = dict(self.terms)
        for var, c in other.terms:
            merged[var] = merged.get(var, 0) + c
        return Affine.from_terms(merged, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine(tuple((v, -c) for v, c in self.terms), -self.const)

    def __sub__(self, other: AffineLike) -> "Affine":
        return self + (-Affine.coerce(other))

    def __rsub__(self, other: AffineLike) -> "Affine":
        return Affine.coerce(other) + (-self)

    def __mul__(self, scalar: int) -> "Affine":
        if not isinstance(scalar, int):
            raise TypeError("affine expressions only scale by integers")
        if scalar == 0:
            return Affine()
        return Affine(tuple((v, c * scalar) for v, c in self.terms),
                      self.const * scalar)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # Substitution / evaluation
    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[str, AffineLike]) -> "Affine":
        """Replace variables by affine expressions (non-mentioned kept)."""
        result = Affine.const_expr(self.const)
        for var, c in self.terms:
            if var in mapping:
                result = result + Affine.coerce(mapping[var]) * c
            else:
                result = result + Affine.var(var, c)
        return result

    def rename(self, mapping: Mapping[str, str]) -> "Affine":
        """Rename variables."""
        return Affine.from_terms(
            {mapping.get(v, v): c for v, c in self.terms}, self.const)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate with concrete variable bindings.

        Raises ``KeyError`` when a variable is unbound, which is the
        behaviour the validator relies on to flag malformed programs.
        """
        total = self.const
        for var, c in self.terms:
            total += c * env[var]
        return total

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return str(self.const)
        parts = []
        for var, c in self.terms:
            if c == 1:
                term = var
            elif c == -1:
                term = f"-{var}"
            else:
                term = f"{c}*{var}"
            if parts and not term.startswith("-"):
                parts.append(f"+{term}")
            else:
                parts.append(term)
        if self.const > 0:
            parts.append(f"+{self.const}")
        elif self.const < 0:
            parts.append(str(self.const))
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Affine({self})"


ZERO = Affine.const_expr(0)
ONE = Affine.const_expr(1)


def aff(value: AffineLike) -> Affine:
    """Shorthand used throughout the code base."""
    return Affine.coerce(value)


def var(name: str, coeff: int = 1) -> Affine:
    """Shorthand for :meth:`Affine.var`."""
    return Affine.var(name, coeff)


def affine_column(expr: Affine, columns: Mapping[str, "np.ndarray"],
                  params: Mapping[str, int], length: int) -> "np.ndarray":
    """Evaluate an affine expression over int64 column vectors.

    The batch counterpart of :meth:`Affine.evaluate`: names resolve
    through ``columns`` first (one value per row) and fall back to the
    scalar ``params`` binding; an unbound name raises the same
    ``KeyError`` the scalar evaluator does.  Shared by the batched
    instance enumeration (``runtime.instances``), the trace simulator
    and the vectorized dependence engine.
    """
    out = np.full(length, expr.const, dtype=np.int64)
    for name, coeff in expr.terms:
        col = columns.get(name)
        if col is None:
            out += coeff * int(params[name])
        else:
            out += coeff * col
    return out
