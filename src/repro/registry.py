"""Lookup of named parts.

The service API (:mod:`repro.api`) assembles pipelines from *named*
parts — LLM backends, base compilers, optimizing compilers,
transforms — instead of hard-coding constructors.  Each family is a
plain ``dict`` that lives next to the code it names
(:data:`repro.llm.LLM_BACKENDS`, :data:`repro.compilers.BASE_COMPILERS`,
:data:`repro.compilers.OPTIMIZERS`,
:data:`repro.transforms.TRANSFORMS`); :func:`lookup` resolves a name
in one of them.

This module is dependency-free on purpose: low-level packages (e.g.
:mod:`repro.transforms`) resolve names without importing the
high-level API package.
"""

from __future__ import annotations

from typing import Mapping, Tuple, TypeVar

V = TypeVar("V")


class UnknownComponentError(ValueError):
    """Lookup of a name that was never registered.

    Always carries the full list of registered names in the message, so
    a typo in a backend/method name is immediately actionable.
    """

    def __init__(self, kind: str, name: str,
                 registered: Tuple[str, ...]) -> None:
        self.kind = kind
        self.name = name
        self.registered = registered
        options = ", ".join(registered) if registered else "<none>"
        super().__init__(
            f"unknown {kind} {name!r}; registered: {options}")


def lookup(table: Mapping[str, V], kind: str, name: str) -> V:
    """``table[name]``, or :class:`UnknownComponentError` naming every
    key of ``table`` in insertion order; ``kind`` is the family name
    used in the message ("LLM backend", "base compiler", ...)."""
    try:
        return table[name]
    except KeyError:
        raise UnknownComponentError(kind, name, tuple(table)) from None
