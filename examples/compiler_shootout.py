"""Compiler shootout: every baseline system on two contrasting kernels.

Reproduces the Table 1 dynamics in miniature: the polyhedral compilers
shine on the dense matmul, everyone struggles differently on the stencil.

Run with:  python examples/compiler_shootout.py
"""

import warnings

warnings.filterwarnings("ignore")

from repro.compilers import BASE_COMPILERS, OPTIMIZERS
from repro.ir import parse_scop
from repro.machine import DEFAULT_MACHINE, estimate

KERNELS = {
    "gemm": ("""
scop gemm(NI, NJ, NK) {
  scalars alpha=1.5 beta=1.2;
  array C[NI][NJ] output;
  array A[NI][NK];
  array B[NK][NJ];
  for (i = 0; i < NI; i++) {
    for (j = 0; j < NJ; j++)
      C[i][j] *= beta;
    for (k = 0; k < NK; k++)
      for (j = 0; j < NJ; j++)
        C[i][j] += alpha * A[i][k] * B[k][j];
  }
}
""", {"NI": 1500, "NJ": 1500, "NK": 1500}),
    "jacobi-2d": ("""
scop jacobi_2d(T, N) {
  array A[N][N] output;
  array B[N][N] output;
  for (t = 0; t < T; t++) {
    for (i = 1; i < N - 1; i++)
      for (j = 1; j < N - 1; j++)
        B[i][j] = 0.2 * (A[i][j] + A[i][j-1] + A[i][1+j] + A[1+i][j] + A[i-1][j]);
    for (i = 1; i < N - 1; i++)
      for (j = 1; j < N - 1; j++)
        A[i][j] = 0.2 * (B[i][j] + B[i][j-1] + B[i][1+j] + B[1+i][j] + B[i-1][j]);
  }
}
""", {"T": 500, "N": 1500}),
}

def main() -> None:
    for name, (source, params) in KERNELS.items():
        program = parse_scop(source)
        print(f"\n=== {name} ===")
        for optimizer_cls in OPTIMIZERS.values():
            optimizer = optimizer_cls()
            base = BASE_COMPILERS[optimizer.base_compiler]
            baseline = estimate(base.finalize(program), params).seconds
            result = optimizer.optimize(program, params)
            if not result.ok:
                print(f"{optimizer.name:12s} FAILED: {result.failure}")
                continue
            machine = getattr(optimizer, "machine_override",
                              DEFAULT_MACHINE)
            seconds = estimate(base.finalize(result.program), params,
                               machine).seconds
            print(f"{optimizer.name:12s} {baseline / seconds:8.2f}x   "
                  f"recipe: {result.recipe.describe()[:80] or '<none>'}")


if __name__ == "__main__":
    main()
