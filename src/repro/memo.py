"""In-process memoization: one bounded memo type, one per-object memo.

Dependence lists, legality schedules, compiled kernels, equivalence
checkers, transform-step applications, cost estimates and
witness-rotation slot tables are all memoized in :class:`LRUCache`
instances.  The evaluation layer's thread pool
(``evaluation.parallel``) and the serve daemon's request threads share
these caches, so every operation takes the lock; at capacity the
least recently used entry goes, instead of the whole cache, so a
long-lived process keeps its hot entries.  Each equivalence checker
(one per target and binding) keeps its verdicts and test runs in plain
dicts of its own.

:func:`memoized_str` caches the text of immutable IR nodes, which the
program keys (``Program.fingerprint``/``analysis_key``/``kernel_key``)
are built from: candidate programs share most of their domain, schedule
and body objects with their source, so each is rendered once.  The
program keys themselves and ``transforms.pad_statements``'s padded twin
are memoized on the program instance the same way.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Callable


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


def memoized_str(method: Callable[[object], str]) -> Callable[[object], str]:
    """Decorate ``__str__`` of a frozen dataclass to render it once.

    The text is stored in the instance ``__dict__`` (not a field, so
    equality, hashing and ``dataclasses.replace`` ignore it); a frozen
    instance can never change, so the cached text never goes stale.
    """
    @functools.wraps(method)
    def __str__(self) -> str:
        text = self.__dict__.get("_str")
        if text is None:
            text = method(self)
            object.__setattr__(self, "_str", text)
        return text
    return __str__
