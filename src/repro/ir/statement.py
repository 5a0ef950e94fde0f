"""SCoP statements."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Tuple

from .affine import Affine
from .domain import Domain
from .expr import Assignment, Ref
from .schedule import Schedule


@dataclass(frozen=True)
class Statement:
    """One assignment statement with its domain and schedule.

    ``guards`` are extra affine conditions ``expr >= 0`` that must hold for
    an instance to execute.  Transformations such as loop shifting introduce
    them; both execution engines honour them.

    ``reg_accum`` marks an accumulation whose running value is held in a
    register across the innermost loop (the scalar-renaming auxiliary
    technique §6.3 credits LLMs with); it changes cost, not semantics.
    """

    name: str
    domain: Domain
    schedule: Schedule
    body: Assignment
    guards: Tuple[Affine, ...] = ()
    reg_accum: bool = False

    # ------------------------------------------------------------------
    def reads(self) -> Tuple[Ref, ...]:
        return self.body.read_refs()

    def write(self) -> Ref:
        return self.body.write_ref()

    def all_refs(self) -> Tuple[Tuple[Ref, bool], ...]:
        """Every access as ``(ref, is_write)`` — the write listed last."""
        pairs = tuple((r, False) for r in self.reads())
        return pairs + ((self.write(), True),)

    def guards_hold(self, env: Mapping[str, int]) -> bool:
        return all(g.evaluate(env) >= 0 for g in self.guards)

    # ------------------------------------------------------------------
    def with_schedule(self, schedule: Schedule) -> "Statement":
        return replace(self, schedule=schedule)

    def with_domain(self, domain: Domain) -> "Statement":
        return replace(self, domain=domain)

    def with_body(self, body: Assignment) -> "Statement":
        return replace(self, body=body)

    def with_guards(self, guards: Tuple[Affine, ...]) -> "Statement":
        return replace(self, guards=guards)

    def with_reg_accum(self, flag: bool) -> "Statement":
        return replace(self, reg_accum=flag)

    def rename_iters(self, mapping: Mapping[str, str]) -> "Statement":
        m = dict(mapping)
        return Statement(
            name=self.name,
            domain=self.domain.rename(m),
            schedule=self.schedule.rename(m),
            body=self.body.rename_iters(m),
            guards=tuple(g.rename(m) for g in self.guards),
            reg_accum=self.reg_accum,
        )

    def __str__(self) -> str:
        guard = ""
        if self.guards:
            guard = " if " + " and ".join(f"{g}>=0" for g in self.guards)
        return (f"{self.name}: {self.domain} sched={self.schedule}"
                f"{guard} :: {self.body}")
