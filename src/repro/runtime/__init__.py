"""Execution substrate: deterministic inputs + schedule-ordered engines.

Two engines share one strict semantics (pick with ``REPRO_ENGINE``):
the vectorized block executor (default) and the reference tree-walking
interpreter, whose per-instance ``interpreter.step`` is also the
vectorized engine's only scalar path.  ``runtime.instances`` holds the
batched enumeration both build on; ``runtime.compile`` the
per-statement vector kernel cache.
"""

from .data import Storage, allocate, checksum, clone_storage, init_array
from .interpreter import (BudgetExceededError, RunResult,
                          RuntimeExecutionError, engine_name,
                          engine_override, execute, run)

__all__ = [
    "Storage", "allocate", "checksum", "clone_storage", "init_array",
    "BudgetExceededError", "RunResult", "RuntimeExecutionError",
    "engine_name", "engine_override", "execute", "run",
]
