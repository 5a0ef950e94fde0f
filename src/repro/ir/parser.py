"""Parser for a C-like SCoP language (the Clan substitute).

Benchmark kernels and synthesized example codes are written in a small
C-like dialect and parsed into :class:`~repro.ir.program.Program`.  This
plays the role of Clan in the paper's implementation (§5): extracting
statements, domains, canonical 2d+1 schedules and array accesses from
source text.

Grammar (informal)::

    scop NAME '(' param (',' param)* ')' '{' decl* stmt* '}'
    decl  := 'scalars' (ID '=' NUM)+ ';'
           | 'array' ID ('[' affine ']')+ ('init' ID)? ('output')? ';'
    stmt  := for | if | assign
    for   := 'for' '(' ID '=' lo ';' ID ('<='|'<') hi ';' ID '++' ')' body
    if    := 'if' '(' cond ('&&' cond)* ')' body
    assign:= ref ('='|'+='|'-='|'*='|'/=') expr ';'
    lo    := affine | 'max' '(' affine ',' affine ')'
    hi    := affine | 'min' '(' affine ',' affine ')'

Bounds and subscripts must be affine in parameters and surrounding
iterators; anything else raises :class:`ScopSyntaxError` — the same class
of rejection Clan performs on non-SCoP inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .affine import Affine, aff
from .domain import Domain, IterSpec
from .expr import (Assignment, Bin, Call, Const, Expr, IterExpr, Neg, Ref,
                   Scalar)
from .program import ArrayDecl, Program, make_program
from .schedule import ConstDim, LoopDim, Schedule
from .statement import Statement


class ScopSyntaxError(ValueError):
    """Raised on malformed or non-SCoP input."""


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*|/\*.*?\*/)
  | (?P<num>\d+\.\d+|\d+)
  | (?P<id>[A-Za-z_]\w*)
  | (?P<op><=|>=|==|\+\+|\+=|-=|\*=|/=|&&|[-+*/%(){}\[\];,=<>])
""", re.VERBOSE | re.DOTALL)

_KEYWORDS = {"scop", "for", "if", "array", "scalars", "init", "output",
             "min", "max"}
_FUNCS = {"sqrt", "exp", "fabs", "pow2"}


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ScopSyntaxError(f"bad character {text[pos]!r} at {pos}")
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append(m.group())
    return tokens


class _Parser:
    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.params: Tuple[str, ...] = ()
        self.scalars: Dict[str, float] = {}
        self.arrays: List[ArrayDecl] = []
        self.outputs: List[str] = []
        self.statements: List[Statement] = []
        self._stmt_counter = 0

    # -- token plumbing -------------------------------------------------
    def peek(self) -> Optional[str]:
        return (self.tokens[self.pos] if self.pos < len(self.tokens)
                else None)

    def next(self) -> str:
        if self.pos >= len(self.tokens):
            raise ScopSyntaxError("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise ScopSyntaxError(f"expected {token!r}, got {got!r}")

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self.pos += 1
            return True
        return False

    # -- grammar ---------------------------------------------------------
    def parse(self) -> Program:
        self.expect("scop")
        name = self.next()
        self.expect("(")
        params: List[str] = []
        if not self.accept(")"):
            params.append(self.next())
            while self.accept(","):
                params.append(self.next())
            self.expect(")")
        self.params = tuple(params)
        self.expect("{")
        while self.peek() in ("array", "scalars"):
            self.parse_decl()
        body: List[Statement] = []
        position = [0]
        while self.peek() != "}":
            self.parse_stmt((), (), position)
        self.expect("}")
        if self.pos != len(self.tokens):
            raise ScopSyntaxError(f"trailing tokens after scop: "
                                  f"{self.tokens[self.pos:][:5]}")
        if not self.statements:
            raise ScopSyntaxError("scop contains no statements")
        # output markers on arrays this kernel never writes are inert for
        # differential testing; drop them so outputs == checked arrays
        written = {s.write().array for s in self.statements}
        outputs = [o for o in self.outputs if o in written] or None
        return make_program(name, self.params, self.arrays, self.statements,
                            scalars=self.scalars, outputs=outputs)

    def parse_decl(self) -> None:
        kw = self.next()
        if kw == "scalars":
            while self.peek() != ";":
                sname = self.next()
                self.expect("=")
                self.scalars[sname] = float(self._number())
            self.expect(";")
            return
        # array decl
        aname = self.next()
        dims: List[Affine] = []
        while self.accept("["):
            dims.append(self.parse_affine())
            self.expect("]")
        if not dims:
            raise ScopSyntaxError(f"array {aname} needs dimensions")
        init = "poly"
        if self.accept("init"):
            init = self.next()
        if self.accept("output"):
            self.outputs.append(aname)
        self.expect(";")
        self.arrays.append(ArrayDecl(aname, tuple(dims), init))

    def _number(self) -> str:
        tok = self.next()
        neg = False
        if tok == "-":
            neg = True
            tok = self.next()
        if not re.fullmatch(r"\d+(\.\d+)?", tok):
            raise ScopSyntaxError(f"expected number, got {tok!r}")
        return "-" + tok if neg else tok

    # -- statements -------------------------------------------------------
    def parse_stmt(self, iters: Tuple[IterSpec, ...],
                   guards: Tuple[Affine, ...],
                   position: List[int]) -> None:
        tok = self.peek()
        if tok == "for":
            self.parse_for(iters, guards, position)
        elif tok == "if":
            self.parse_if(iters, guards, position)
        elif tok == "{":
            self.next()
            while self.peek() != "}":
                self.parse_stmt(iters, guards, position)
            self.expect("}")
        else:
            self.parse_assign(iters, guards, position)

    def parse_for(self, iters: Tuple[IterSpec, ...],
                  guards: Tuple[Affine, ...],
                  position: List[int]) -> None:
        self.expect("for")
        self.expect("(")
        iname = self.next()
        if iname in {s.name for s in iters}:
            raise ScopSyntaxError(f"iterator {iname} shadows outer loop")
        self.expect("=")
        lowers = self.parse_bound("max")
        self.expect(";")
        cname = self.next()
        if cname != iname:
            raise ScopSyntaxError(
                f"loop condition on {cname!r}, expected {iname!r}")
        cmp_op = self.next()
        uppers = self.parse_bound("min")
        if cmp_op == "<":
            uppers = tuple(u - 1 for u in uppers)
        elif cmp_op != "<=":
            raise ScopSyntaxError(f"unsupported loop comparison {cmp_op!r}")
        self.expect(";")
        stepname = self.next()
        if stepname != iname:
            raise ScopSyntaxError("loop increment must update the iterator")
        self.expect("++")
        self.expect(")")
        spec = IterSpec(iname, lowers, uppers)
        inner_position = position + [0]
        if self.accept("{"):
            while self.peek() != "}":
                self.parse_stmt(iters + (spec,), guards, inner_position)
            self.expect("}")
        else:
            self.parse_stmt(iters + (spec,), guards, inner_position)
        position[-1] += 1

    def parse_bound(self, kind: str) -> Tuple[Affine, ...]:
        if self.peek() == kind:
            self.next()
            self.expect("(")
            exprs = [self.parse_affine()]
            while self.accept(","):
                exprs.append(self.parse_affine())
            self.expect(")")
            return tuple(exprs)
        return (self.parse_affine(),)

    def parse_if(self, iters: Tuple[IterSpec, ...],
                 guards: Tuple[Affine, ...],
                 position: List[int]) -> None:
        self.expect("if")
        self.expect("(")
        new_guards = list(guards)
        new_guards.extend(self.parse_cond())
        while self.accept("&&"):
            new_guards.extend(self.parse_cond())
        self.expect(")")
        if self.accept("{"):
            while self.peek() != "}":
                self.parse_stmt(iters, tuple(new_guards), position)
            self.expect("}")
        else:
            self.parse_stmt(iters, tuple(new_guards), position)

    def parse_cond(self) -> List[Affine]:
        """Parse ``a CMP b`` into guard expressions ``g >= 0``."""
        lhs = self.parse_affine()
        op = self.next()
        rhs = self.parse_affine()
        if op == "<=":
            return [rhs - lhs]
        if op == "<":
            return [rhs - lhs - 1]
        if op == ">=":
            return [lhs - rhs]
        if op == ">":
            return [lhs - rhs - 1]
        if op == "==":
            return [lhs - rhs, rhs - lhs]
        raise ScopSyntaxError(f"unsupported condition operator {op!r}")

    def parse_assign(self, iters: Tuple[IterSpec, ...],
                     guards: Tuple[Affine, ...],
                     position: List[int]) -> None:
        lhs = self.parse_ref()
        op = self.next()
        if op not in ("=", "+=", "-=", "*=", "/="):
            raise ScopSyntaxError(f"expected assignment, got {op!r}")
        rhs = self.parse_expr({s.name for s in iters})
        self.expect(";")
        self._stmt_counter += 1
        sname = f"S{self._stmt_counter}"
        domain = Domain(iters)
        schedule = Schedule.canonical(
            [s.name for s in iters], position)
        self.statements.append(Statement(
            name=sname, domain=domain, schedule=schedule,
            body=Assignment(lhs, op, rhs), guards=guards))
        position[-1] += 1

    # -- expressions ------------------------------------------------------
    def parse_ref(self) -> Ref:
        aname = self.next()
        indices: List[Affine] = []
        while self.accept("["):
            indices.append(self.parse_affine())
            self.expect("]")
        if not indices:
            raise ScopSyntaxError(f"scalar write to {aname!r} not allowed "
                                  "in a SCoP body (use an array)")
        return Ref(aname, tuple(indices))

    def parse_affine(self) -> Affine:
        """Parse an affine expression (used in bounds/subscripts/guards)."""
        expr = self._affine_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            term = self._affine_term()
            expr = expr + term if op == "+" else expr - term
        return expr

    def _affine_term(self) -> Affine:
        factor = 1
        tok = self.peek()
        if tok == "-":
            self.next()
            factor = -1
            tok = self.peek()
        if tok is None:
            raise ScopSyntaxError("unexpected end of affine expression")
        if re.fullmatch(r"\d+", tok):
            self.next()
            value = int(tok)
            if self.accept("*"):
                name = self.next()
                self._check_affine_var(name)
                return Affine.var(name, factor * value)
            return Affine.const_expr(factor * value)
        if re.fullmatch(r"[A-Za-z_]\w*", tok):
            self.next()
            self._check_affine_var(tok)
            if self.accept("*"):
                nxt = self.next()
                if not re.fullmatch(r"\d+", nxt):
                    raise ScopSyntaxError(
                        f"non-affine product {tok}*{nxt} in affine context")
                return Affine.var(tok, factor * int(nxt))
            return Affine.var(tok, factor)
        if tok == "(":
            self.next()
            inner = self.parse_affine()
            self.expect(")")
            return inner * factor
        raise ScopSyntaxError(f"bad token {tok!r} in affine expression")

    def _check_affine_var(self, name: str) -> None:
        if name in _KEYWORDS:
            raise ScopSyntaxError(f"keyword {name!r} used as variable")
        if name in self.scalars:
            raise ScopSyntaxError(
                f"scalar {name!r} is not affine (floats cannot index)")

    def parse_expr(self, iter_names: set) -> Expr:
        expr = self.parse_term(iter_names)
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.parse_term(iter_names)
            expr = Bin(op, expr, rhs)
        return expr

    def parse_term(self, iter_names: set) -> Expr:
        expr = self.parse_factor(iter_names)
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.parse_factor(iter_names)
            expr = Bin(op, expr, rhs)
        return expr

    def parse_factor(self, iter_names: set) -> Expr:
        tok = self.peek()
        if tok == "-":
            self.next()
            return Neg(self.parse_factor(iter_names))
        if tok == "(":
            self.next()
            inner = self.parse_expr(iter_names)
            self.expect(")")
            return inner
        if tok is None:
            raise ScopSyntaxError("unexpected end of expression")
        if re.fullmatch(r"\d+(\.\d+)?", tok):
            self.next()
            return Const(float(tok))
        if re.fullmatch(r"[A-Za-z_]\w*", tok):
            name = self.next()
            if name in _FUNCS:
                self.expect("(")
                arg = self.parse_expr(iter_names)
                self.expect(")")
                return Call(name, arg)
            if self.peek() == "[":
                indices: List[Affine] = []
                while self.accept("["):
                    indices.append(self.parse_affine())
                    self.expect("]")
                return Ref(name, tuple(indices))
            if name in self.scalars:
                return Scalar(name)
            if name in iter_names or name in self.params:
                return IterExpr(Affine.var(name))
            raise ScopSyntaxError(f"unknown identifier {name!r} in body")
        raise ScopSyntaxError(f"bad token {tok!r} in expression")


def parse_scop(text: str) -> Program:
    """Parse SCoP source text into a :class:`Program`."""
    return _Parser(_tokenize(text)).parse()
