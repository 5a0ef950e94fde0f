"""In-process memoization: one bounded memo type, one per-object memo.

Dependence lists, legality schedules (with the legality verdicts
answered on them), compiled kernels, equivalence checkers,
transform-step applications, cost estimates and witness-rotation slot
tables are all memoized in :class:`LRUCache` instances.  The evaluation
layer's thread pool (``evaluation.parallel``) and the serve daemon's
request threads share these caches, so every operation takes the lock;
at capacity the least recently used entry goes, instead of the whole
cache, so a long-lived process keeps its hot entries.  Each equivalence
checker (one per target and binding) keeps its verdicts and test runs
in plain dicts of its own, and each legality-schedule entry keeps the
verdicts on its schedules in one.

:func:`memo_on` keeps a fact derived from a frozen instance on that
instance.  :func:`memoized_str` uses it for the text of immutable IR
nodes, which the program keys (``Program.fingerprint``/
``analysis_key``/``kernel_key``) are built from: candidate programs
share most of their domain, schedule and body objects with their
source, so each is rendered once.  The program keys themselves,
``Program.aligned_schedules``, ``transforms.dynamic_columns``,
``transforms.pad_statements``'s padded twin, ``ir.check_program``'s
diagnostics and the simulated LLM's stride-pair candidates are
memoized on the program instance the same way.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Callable, TypeVar

T = TypeVar("T")


class LRUCache:
    """A small lock-guarded LRU map (``None`` values are not memoizable)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            got = self._data.get(key)
            if got is not None:
                self._data.move_to_end(key)
            return got

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)


def memo_on(obj: object, slot: str, compute: Callable[[], T]) -> T:
    """``compute()``, paid once per instance of a frozen dataclass.

    The value is stored in the instance ``__dict__`` under ``slot`` (not
    a field, so equality, hashing and ``dataclasses.replace`` ignore
    it); a frozen instance can never change, so the value never goes
    stale.  Callers share the stored value, so it must be immutable.
    Two threads racing on a miss both compute the same value.
    """
    try:
        return obj.__dict__[slot]
    except KeyError:
        value = compute()
        object.__setattr__(obj, slot, value)
        return value


def memoized_str(method: Callable[[object], str]) -> Callable[[object], str]:
    """Decorate ``__str__`` of a frozen dataclass to render it once
    (:func:`memo_on` under ``_str``)."""
    @functools.wraps(method)
    def __str__(self) -> str:
        return memo_on(self, "_str", lambda: method(self))
    return __str__
