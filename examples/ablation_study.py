"""Mini ablation: what each LOOPRAG module contributes on one kernel.

Runs `syrk` through (1) the bare LLM, (2) LOOPRAG with BM25-only
retrieval, (3) full loop-aware LOOPRAG, and (4) LOOPRAG without the
feedback rounds — the per-kernel view of Tables 6 and 7.

Run with:  python examples/ablation_study.py
"""

import os
import warnings

warnings.filterwarnings("ignore")

from repro.api import OptimizationRequest, OptimizerSession
from repro.compilers import GCC
from repro.ir import parse_scop
from repro.llm import GPT_4O, SimulatedLLM
from repro.pipeline import FeedbackPipeline
from repro.retrieval import Retriever
from repro.synthesis import cached_dataset

SOURCE = """
scop syrk(N, M) {
  scalars alpha=1.5 beta=1.2;
  array C[N][N] output;
  array A[N][M];
  for (i = 0; i < N; i++) {
    for (j = 0; j <= i; j++)
      C[i][j] *= beta;
    for (k = 0; k < M; k++)
      for (j = 0; j <= i; j++)
        C[i][j] += alpha * A[i][k] * A[j][k];
  }
}
"""

PERF = {"N": 1500, "M": 1200}
TEST = {"N": 8, "M": 6}

CORPUS_SIZE = int(os.environ.get("REPRO_EXAMPLE_SIZE", "300"))


def main() -> None:
    target = parse_scop(SOURCE)
    retriever = Retriever(cached_dataset(size=CORPUS_SIZE, seed=0))

    def optimize(session, system):
        request = OptimizationRequest.make(target, PERF, TEST,
                                           system=system, persona=GPT_4O)
        return session.optimize(request, use_store=False).pipeline_result

    rows = [("bare LLM (no demos, no feedback)",
             optimize(OptimizerSession(seed=3, use_store=False),
                      "basellm"))]
    for label, method in (("LOOPRAG, BM25 retrieval", "bm25"),
                          ("LOOPRAG, loop-aware retrieval", "loop-aware")):
        session = OptimizerSession(retriever=retriever,
                                   retrieval_method=method, seed=3)
        rows.append((label, optimize(session, "looprag")))

    no_feedback = FeedbackPipeline(
        retriever=retriever,
        llm_factory=lambda: SimulatedLLM(GPT_4O, 3),
        base_compiler=GCC, use_feedback=False, seed=3)
    rows.append(("LOOPRAG without feedback rounds",
                 no_feedback.run(target, PERF, TEST)))

    print(f"{'configuration':36s} {'pass':>5s} {'speedup':>9s}  recipe")
    for label, result in rows:
        recipe = (result.best.response.applied.describe()[:60]
                  if result.best else "<none>")
        print(f"{label:36s} {str(result.passed):>5s} "
              f"{result.speedup:8.2f}x  {recipe}")


if __name__ == "__main__":
    main()
