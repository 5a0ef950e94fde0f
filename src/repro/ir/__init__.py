"""Polyhedral-lite IR for Static Control Parts (SCoPs).

The IR models everything §2.1 of the paper calls a loop property: loop
structure (domains + 2d+1 schedules), data dependence (derived by
``repro.analysis``) and array access (affine references).
"""

from .affine import Affine, aff, var
from .domain import Domain, IterSpec
from .expr import (Assignment, Bin, Call, Const, Expr, IterExpr, Neg, Ref,
                   Scalar, add, sub)
from .parser import ScopSyntaxError, parse_scop
from .program import ArrayDecl, Program, make_program
from .schedule import (ConstDim, LoopDim, Schedule, SchedDim, TileDim,
                       align_schedules)
from .statement import Statement
from .validate import CompileError, check_program, validate_program

__all__ = [
    "Affine", "aff", "var",
    "Domain", "IterSpec",
    "Assignment", "Bin", "Call", "Const", "Expr", "IterExpr", "Neg", "Ref",
    "Scalar", "add", "sub",
    "ScopSyntaxError", "parse_scop",
    "ArrayDecl", "Program", "make_program",
    "ConstDim", "LoopDim", "Schedule", "SchedDim", "TileDim",
    "align_schedules",
    "Statement",
    "CompileError", "check_program", "validate_program",
]
