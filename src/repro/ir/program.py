"""SCoP programs.

A :class:`Program` is the unit everything else operates on: the synthesizer
emits them, compilers transform them, the interpreter executes them, the
cost model prices them and the pipeline optimizes them.  It corresponds to
the region between ``#pragma scop`` / ``#pragma endscop`` in the paper plus
the PolyBench-style surroundings (array declarations, init spec, outputs).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import (Dict, FrozenSet, Mapping, Optional,
                    Sequence, Tuple)

from ..memo import memo_on
from .affine import Affine, AffineLike, aff
from .schedule import Schedule, align_schedules
from .statement import Statement

#: Built-in deterministic array initialisation patterns (runtime.data).
INIT_KINDS = ("poly", "zeros", "ones", "ramp", "alt", "identity")


@dataclass(frozen=True)
class ArrayDecl:
    """Array declaration: name, per-dimension sizes (affine in params)."""

    name: str
    dims: Tuple[Affine, ...]
    init: str = "poly"

    def __post_init__(self) -> None:
        if self.init not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.init!r}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    def shape(self, params: Mapping[str, int]) -> Tuple[int, ...]:
        return tuple(d.evaluate(params) for d in self.dims)

    def __str__(self) -> str:
        return self.name + "".join(f"[{d}]" for d in self.dims)


@dataclass(frozen=True)
class Program:
    """A complete SCoP program.

    ``parallel_dims`` / ``vector_dims`` are schedule dimension indices (on
    the aligned schedule width) marked ``#pragma omp parallel for`` and
    vectorized, respectively.  They carry no semantics — the interpreter
    ignores them — but the machine model prices them, and legality checking
    validates them the same way it validates schedule rewrites.
    """

    name: str
    params: Tuple[str, ...]
    arrays: Tuple[ArrayDecl, ...]
    statements: Tuple[Statement, ...]
    scalars: Tuple[Tuple[str, float], ...] = ()
    outputs: Tuple[str, ...] = ()
    parallel_dims: FrozenSet[int] = frozenset()
    vector_dims: FrozenSet[int] = frozenset()
    provenance: Tuple[str, ...] = ()
    #: free-form markers such as "dummy-call" (TSVC kernels call an opaque
    #: ``dummy()`` per outer iteration) or "pure-annotated" (the
    #: ``__attribute__((pure))`` fix of Appendix C); compilers key SCoP
    #: detection behaviour off these.
    tags: FrozenSet[str] = frozenset()

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(name)

    def array_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.arrays)

    def statement(self, name: str) -> Statement:
        for s in self.statements:
            if s.name == name:
                return s
        raise KeyError(name)

    def scalar_values(self) -> Dict[str, float]:
        return dict(self.scalars)

    @property
    def max_depth(self) -> int:
        return max((s.domain.depth for s in self.statements), default=0)

    def aligned_schedules(self) -> Tuple[Schedule, ...]:
        """Statement schedules padded to one width, memoized on the
        instance (a tuple: every caller shares it)."""
        return memo_on(self, "_aligned", lambda: tuple(
            align_schedules([s.schedule for s in self.statements])))

    @property
    def schedule_width(self) -> int:
        return max((len(s.schedule.dims) for s in self.statements), default=0)

    # ------------------------------------------------------------------
    # Rebuilding
    # ------------------------------------------------------------------
    def with_statements(self, statements: Sequence[Statement]) -> "Program":
        return replace(self, statements=tuple(statements))

    def with_statement(self, name: str, new: Statement) -> "Program":
        return self.with_statements(
            tuple(new if s.name == name else s for s in self.statements))

    def with_parallel(self, dims: FrozenSet[int]) -> "Program":
        return replace(self, parallel_dims=frozenset(dims))

    def with_vector(self, dims: FrozenSet[int]) -> "Program":
        return replace(self, vector_dims=frozenset(dims))

    def with_provenance(self, *notes: str) -> "Program":
        return replace(self, provenance=self.provenance + tuple(notes))

    def with_tags(self, *tags: str) -> "Program":
        return replace(self, tags=self.tags | frozenset(tags))

    def renamed(self, name: str) -> "Program":
        return replace(self, name=name)

    # ------------------------------------------------------------------
    # Identity: three keys, each covering exactly what its consumers
    # read, memoized on the instance (:func:`repro.memo.memo_on`; the
    # class is frozen, so the content can never change) so each hash is
    # paid once per program object.
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash over everything but name and provenance.

        The key for whatever reads the ``omp parallel``/``simd`` marks or
        the tags: equivalence verdicts and checkers (the race audit reads
        the marks), cost estimates and the simulated LLM's RNG seeds.  It
        is not a result key: kernels that differ only in name share it,
        so the result store keys on the echoed request, which carries the
        name as well.  Dependence
        analysis and kernel compilation read neither marks nor tags, so
        their memos key on :meth:`analysis_key` and :meth:`kernel_key`.
        """
        return memo_on(self, "_fingerprint", lambda: _digest("|".join([
            ",".join(self.params),
            ";".join(str(a) + ":" + a.init for a in self.arrays),
            ";".join(str(s) for s in self.statements),
            ",".join(f"{k}={v}" for k, v in self.scalars),
            ",".join(self.outputs),
            ",".join(map(str, sorted(self.parallel_dims))),
            ",".join(map(str, sorted(self.vector_dims))),
            ",".join(sorted(self.tags)),
        ])))

    def analysis_key(self) -> str:
        """Hash of what dependence analysis reads: ``params`` plus each
        statement's name, domain, aligned schedule, guards and body.

        ``compute_dependences``, the non-uniform profile, the legality
        schedules and the instance enumeration read nothing else (they
        see schedules only through :meth:`aligned_schedules`), so a
        candidate that differs from an analyzed program only in its
        parallel/vector marks, tags, name, provenance, scalars, outputs
        or schedule padding (``pad_statements``) reuses that program's
        dependences.
        """
        return memo_on(self, "_analysis_key", lambda: _digest(repr((
            self.params,
            tuple((s.name, str(s.domain), str(sched),
                   tuple(str(g) for g in s.guards), str(s.body))
                  for s, sched in zip(self.statements,
                                      self.aligned_schedules()))))))

    def kernel_key(self) -> str:
        """Hash of what kernel compilation reads: the array declarations
        plus each statement's name, domain, guards and body.

        No schedule: generated statement kernels execute one instance (or
        one batch) wherever the schedule puts it, so every schedule-only
        candidate of a program shares its compiled kernels.  No marks or
        tags, and no program name (the kernels take it at run time).
        """
        return memo_on(self, "_kernel_key", lambda: _digest(repr((
            tuple(str(a) for a in self.arrays),
            tuple((s.name, str(s.domain),
                   tuple(str(g) for g in s.guards), str(s.body))
                  for s in self.statements)))))

    def __str__(self) -> str:
        lines = [f"program {self.name}({', '.join(self.params)})"]
        for a in self.arrays:
            lines.append(f"  array {a}")
        for s in self.statements:
            lines.append(f"  {s}")
        return "\n".join(lines)


def _digest(text: str) -> str:
    """The 16-hex-digit content hash behind the program keys."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def make_program(name: str,
                 params: Sequence[str],
                 arrays: Sequence[ArrayDecl],
                 statements: Sequence[Statement],
                 scalars: Optional[Mapping[str, float]] = None,
                 outputs: Optional[Sequence[str]] = None) -> Program:
    """Construct a program, defaulting outputs to every written array."""
    if outputs is None:
        outputs = sorted({s.write().array for s in statements})
    return Program(
        name=name,
        params=tuple(params),
        arrays=tuple(arrays),
        statements=tuple(statements),
        scalars=tuple(sorted((scalars or {}).items())),
        outputs=tuple(outputs),
    )
