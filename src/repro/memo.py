"""In-process memoization: one bounded memo form, one per-object memo.

:func:`memoized` declares a function's key beside the function and
keeps its values in an :class:`LRUCache`; :data:`MEMOS` lists every such
memo.  The serve daemon's request threads share these caches, so every
operation takes the lock (batch workers are forked processes, each on
its own copy); at capacity the least recently used entry goes, so a
long-lived process keeps its hot entries.  Memos whose owner bounds
their lifetime (a checker's verdicts and test runs, a legality entry's
verdicts) live on that owner; the schedule keys evaluated over witness
blocks are kept for the one candidate being judged.

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
from typing import Callable, Hashable, List, TypeVar

T = TypeVar("T")

#: :func:`memoized`'s miss marker, so ``None`` is memoized like any value
_MISS = object()


class LRUCache:
    """A small lock-guarded LRU map."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return default
            return self._data[key]

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)


class Memo:
    """One module-level memo: its name, its key function and its cache.

    ``key`` takes the memoized function's arguments and returns
    everything the function reads of them.  ``cache`` is looked up on
    every call, so a test can replace it.
    """

    def __init__(self, name: str, capacity: int,
                 key: Callable[..., Hashable]) -> None:
        self.name = name
        self.key = key
        self.cache = LRUCache(capacity)
        MEMOS.append(self)


#: every module-level memo, in import order
MEMOS: List[Memo] = []


def memoized(capacity: int, key: Callable[..., Hashable]
             ) -> Callable[[Callable[..., T]], Callable[..., T]]:
    """Memoize a function under ``key(*args, **kwargs)``.

    The decorated function's :class:`Memo` is its ``memo`` attribute.
    Exceptions are not memoized.
    """
    def decorate(fn: Callable[..., T]) -> Callable[..., T]:
        memo = Memo(f"{fn.__module__}.{fn.__qualname__}", capacity, key)

        @functools.wraps(fn)
        def lookup(*args, **kwargs):
            memo_key = key(*args, **kwargs)
            value = memo.cache.get(memo_key, _MISS)
            if value is _MISS:
                value = fn(*args, **kwargs)
                memo.cache.put(memo_key, value)
            return value
        lookup.memo = memo
        return lookup
    return decorate


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
