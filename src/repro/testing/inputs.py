"""Seed-input generation and mutation (§4.3).

The paper has GPT-4 read the ground-truth program and write initialisation
functions as seed inputs, then diversifies them with value-, operator- and
statement-based mutations.  Here the seed role is played by the
deterministic init variants of ``repro.runtime.data`` (each variant is
"one initialisation function"); the three mutation classes operate on
the materialised arrays exactly as described:

* value-based   — perturb individual elements,
* operator-based — apply a whole-array operator (scale / negate / shift),
* statement-based — overwrite a block region (as if an init statement
  changed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..ir.program import Program
from ..runtime.data import Storage, allocate

MUTATION_KINDS = ("value", "operator", "statement")


@dataclass(frozen=True)
class TestInput:
    """A reproducible input: seed variant + mutation descriptors."""

    variant: int
    mutations: Tuple[Tuple[str, int], ...] = ()

    def describe(self) -> str:
        if not self.mutations:
            return f"seed(variant={self.variant})"
        ops = ",".join(f"{k}#{s}" for k, s in self.mutations)
        return f"seed(variant={self.variant})+{ops}"


def materialize_input(program: Program, params: Mapping[str, int],
                      test_input: TestInput) -> Storage:
    """Build the concrete arrays for one test input."""
    storage = allocate(program, params, test_input.variant)
    for kind, seed in test_input.mutations:
        _apply_mutation(storage, kind, seed)
    return storage


def _apply_mutation(storage: Storage, kind: str, seed: int) -> None:
    rng = random.Random(seed)
    names = sorted(storage)
    name = names[rng.randrange(len(names))]
    arr = storage[name]
    if kind == "value":
        flat = arr.reshape(-1)
        for _ in range(min(4, flat.size)):
            flat[rng.randrange(flat.size)] += rng.uniform(-2.0, 2.0)
    elif kind == "operator":
        op = rng.choice(("scale", "negate", "shift"))
        if op == "scale":
            arr *= rng.uniform(0.25, 2.5)
        elif op == "negate":
            np.negative(arr, out=arr)
        else:
            arr += rng.uniform(-1.5, 1.5)
    elif kind == "statement":
        flat = arr.reshape(-1)
        lo = rng.randrange(max(1, flat.size // 2))
        hi = min(flat.size, lo + max(1, flat.size // 4))
        flat[lo:hi] = rng.uniform(-1.0, 1.0)
    else:  # pragma: no cover
        raise ValueError(f"unknown mutation kind {kind!r}")


def input_pool() -> List[TestInput]:
    """Four seed inputs, each followed by its eight mutants, in a fixed
    order.

    The equivalence checker takes the first three entries: seed variant 0,
    then its value- and operator-based mutants.  Statement-based mutants
    start at entry 4, so the checker never draws one.
    """
    rng = random.Random(0)
    pool: List[TestInput] = []
    for variant in range(4):
        pool.append(TestInput(variant=variant))
        for m in range(8):
            kind = MUTATION_KINDS[m % len(MUTATION_KINDS)]
            pool.append(TestInput(
                variant=variant,
                mutations=((kind, rng.randrange(1_000_000)),)))
    return pool
