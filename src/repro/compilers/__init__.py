"""Simulated compiler baselines (Table 1) and the PLuTo demo source."""

from typing import Dict, Type

from .base import (BASE_COMPILERS, CLANG, GCC, ICX, BaseCompiler, Optimizer,
                   OptimizerResult, vector_violations)
from .graphite import Graphite
from .icx import IcxOptimizer
from .perspective import Perspective
from .polly import Polly
from .pluto import Pluto

#: the optimizing-compiler baselines by name, in report order; each
#: class names its base compiler (``base_compiler``)
OPTIMIZERS: Dict[str, Type[Optimizer]] = {
    cls.name: cls
    for cls in (Pluto, Polly, Graphite, Perspective, IcxOptimizer)}

__all__ = [
    "BASE_COMPILERS", "CLANG", "GCC", "ICX", "BaseCompiler", "Optimizer",
    "OPTIMIZERS", "OptimizerResult", "vector_violations",
    "Graphite", "IcxOptimizer", "Perspective", "Polly", "Pluto",
]
