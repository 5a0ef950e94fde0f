"""Equivalence checking in action (§4.3's testing machinery).

Builds the test battery for a guarded kernel, then shows the differential
tester separating a legal transformation from three broken candidates —
a wrong interchange, an off-by-one bound, and a data race.

Run with:  python examples/equivalence_testing_demo.py
"""

import warnings

warnings.filterwarnings("ignore")

from repro.ir import parse_scop
from repro.llm.adapt import semantic_slip
from repro.testing import EquivalenceChecker, input_pool
from repro.transforms import interchange, parallelize, tile

SOURCE = """
scop masked_scan(N) {
  array X[N] output;
  array W[N];
  for (i = 1; i < N; i++)
    if (i >= 3)
      X[i] = X[i-1] * 0.5 + W[i];
}
"""


def main() -> None:
    program = parse_scop(SOURCE)
    checker = EquivalenceChecker(program, {"N": 24})
    # the battery is the first entries of the mutation pool
    inputs = input_pool()[:checker.num_inputs]
    print("test inputs: " + ", ".join(t.describe() for t in inputs))

    # a legal transformation: tiling a sequential loop preserves order
    legal = tile(program, [1], 4)
    print(f"\ntiled by 4          -> {checker.check(legal).verdict}")

    # broken candidate 1: parallelizing the recurrence is a data race
    racy = parallelize(program, 1)
    report = checker.check(racy)
    print(f"parallel recurrence -> {report.verdict}  ({report.detail})")

    # broken candidate 2: an off-by-one bound (the IA class)
    import random
    corrupted, what = semantic_slip(program, random.Random(1))
    report = checker.check(corrupted)
    print(f"{what:19s} -> {report.verdict}  ({report.detail[:60]})")

    # broken candidate 3: a 2-deep kernel with an illegal interchange
    gemm_like = parse_scop("""
    scop rowdep(N) {
      array A[N][N] output;
      for (i = 1; i < N; i++)
        for (j = 0; j < N; j++)
          A[i][j] = A[i-1][j] + 1.0;
    }
    """)
    checker2 = EquivalenceChecker(gemm_like, {"N": 10})
    swapped = interchange(gemm_like, 1, 3)
    print(f"legal interchange   -> {checker2.check(swapped).verdict} "
          "(row dependence is preserved by column order)")


if __name__ == "__main__":
    main()
