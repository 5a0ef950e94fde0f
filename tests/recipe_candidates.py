"""Programs and random-recipe candidates shared by the property tests.

A target is a synthesized program or a sampled PolyBench kernel; its
candidates are what a search could hand the checker, the cost model and
the memos: random recipes applied unchecked, a semantic slip and twins
that differ from a candidate only in fields some memo keys leave out.
"""

import random
from dataclasses import replace

from repro.llm.adapt import Intent, materialize, semantic_slip
from repro.suites import SUITES
from repro.synthesis import ExampleSynthesizer
from repro.transforms import TransformError

_SYNTH = ExampleSynthesizer(base_seed=5)
#: PolyBench kernels with scalars (the synthesized programs have none),
#: and floyd-warshall, whose accumulation is the suite statement whose
#: modeled cost moves with ``reg_accum``
KERNELS = ("gemm", "gesummv", "syrk", "trmm", "floyd-warshall")
#: the operators ``reg_accum`` may flag
_ACCUMULATIONS = ("+=", "-=", "*=")


def target(source):
    """A synthesized program at ``N=9``, or a PolyBench kernel at its
    test binding."""
    if isinstance(source, int):
        return _SYNTH.synthesize(source), {"N": 9}
    bench = SUITES["polybench"]().get(source)
    return bench.program, bench.test


def candidates(program, recipes, seed):
    """The program, one candidate per random recipe (applied unchecked,
    so illegal orders are in), a semantic slip, renamed copies of the
    program and the slip, a scalar-only twin of each candidate with
    scalars, and a ``reg_accum``-only twin (every accumulation flagged,
    provenance kept) of each candidate with an unflagged
    accumulation."""
    rng = random.Random(seed)
    out = [program]
    for kinds in recipes:
        candidate = program
        for kind in kinds:
            intent = Intent(kind=kind, size=rng.choice((2, 3, 64)))
            step = materialize(intent, candidate, rng)
            if step is None:
                continue
            try:
                candidate = step.apply(candidate)
            except TransformError:
                continue
        out.append(candidate)
    out.append(semantic_slip(program, rng)[0])
    out += [p.renamed(p.name + "_copy") for p in (program, out[-1])]
    out += [replace(c, scalars=tuple((k, 2 * v + 1) for k, v in c.scalars))
            for c in out if c.scalars]
    out += [replace(c, statements=tuple(
        s.with_reg_accum(True) if s.body.op in _ACCUMULATIONS else s
        for s in c.statements))
        for c in out if any(s.body.op in _ACCUMULATIONS and not s.reg_accum
                            for s in c.statements)]
    return out
