"""The demonstration retriever.

Indexes a synthesized :class:`Dataset` and ranks example SCoPs for a
target program under one of three methods (the Table 6 ablation):

* ``loop-aware`` — full LAScore (BM25 base + weighted loop features),
* ``bm25``       — text similarity only,
* ``weighted``   — loop features only (LAScore w/o BM25).

The pipeline takes the top-N (N = 10, §5) and samples three entries as
demonstrations.

Indexing reads only each entry's ``example_text`` (BM25) and
``features`` (LAScore), never its programs.  A corpus loaded from the
store carries both, so building a retriever over it parses no program;
a demonstration's programs are parsed only if something reads them
(``synthesis.store``).

Complexity: ``rank`` scores the whole corpus per query with NumPy,
over two indexes built once in ``__init__``, instead of one scalar
``lascore`` call per entry.  The BM25 base is one dense float64 vector
from ``BM25Index.scores``: each query term adds its postings (doc-id
and term-frequency arrays) in one array update.  SF and SM come from
``FeatureIndex.scores``: its postings per (statement position, feature
kind) map a feature to the doc ids and counts that have it, so each
target feature's matched counts are one exact integer update.  A query
costs O(query terms + target features + matching postings) array work
plus O(N) to combine and sort, and ``ScoreBreakdown`` objects are built
only for the top N returned.

Why the scores stay bit-identical: each document's element goes
through the same IEEE operations in the same order as the scalar code
— BM25 terms in sorted order, LAScore statement outer and kind inner —
and float64 array arithmetic rounds exactly as Python floats do.  A
term the scalar loop skips is added as exactly +0.0, which changes no
sum (see ``FeatureIndex.scores``).  The scalar ``lascore()`` and
``BM25Index.score`` are the executable specification the batched ranks
are tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..codegen import scop_body_to_c
from ..ir.program import Program
from ..synthesis.dataset import Dataset, DatasetEntry
from .bm25 import BM25Index
from .features import program_features
from .lascore import FeatureIndex, ScoreBreakdown

METHODS = ("loop-aware", "bm25", "weighted")

DEFAULT_TOP_N = 10
DEFAULT_DEMOS = 3


@dataclass(frozen=True)
class RetrievedDemo:
    """One ranked demonstration."""

    entry: DatasetEntry
    score: float
    breakdown: Optional[ScoreBreakdown]


class Retriever:
    """Dataset index + ranking."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self.index = BM25Index()
        for entry in dataset:
            self.index.add(entry.example_text)
        self.feature_index = FeatureIndex(
            [entry.features for entry in dataset])
        names = [entry.name for entry in dataset]
        # each entry's place in name order breaks score ties
        self._name_rank = np.empty(len(names), dtype=np.intp)
        self._name_rank[sorted(range(len(names)),
                               key=names.__getitem__)] = np.arange(len(names))

    def rank(self, target: Program, method: str = "loop-aware",
             top_n: int = DEFAULT_TOP_N) -> List[RetrievedDemo]:
        """Rank dataset entries for the target program."""
        if method not in METHODS:
            raise ValueError(f"unknown retrieval method {method!r}; "
                             f"expected one of {METHODS}")
        if method == "bm25":
            return [RetrievedDemo(entry=self.dataset[doc.doc_id],
                                  score=doc.score, breakdown=None)
                    for doc in self.index.search(scop_body_to_c(target),
                                                 top_n)]
        target_features = program_features(target)
        sf, sm = self.feature_index.scores(target_features)
        base = (self.index.scores(scop_body_to_c(target))
                if method == "loop-aware" else np.zeros(len(self.dataset)))
        n_target = len(target_features)
        # ScoreBreakdown.total, for every entry at once
        total = base + (sf - sm) / max(1, n_target)
        ranked: List[RetrievedDemo] = []
        for doc_id in np.lexsort((self._name_rank, -total))[:top_n]:
            breakdown = ScoreBreakdown(
                base=float(base[doc_id]), feature_score=float(sf[doc_id]),
                mismatch=float(sm[doc_id]), n_target_statements=n_target)
            ranked.append(RetrievedDemo(entry=self.dataset[int(doc_id)],
                                        score=breakdown.total,
                                        breakdown=breakdown))
        return ranked

    def demonstrations(self, target: Program, rng: random.Random,
                       method: str = "loop-aware") -> List[RetrievedDemo]:
        """Top-N then a random sample (§5: N=10, three demos)."""
        ranked = self.rank(target, method, DEFAULT_TOP_N)
        if len(ranked) <= DEFAULT_DEMOS:
            return ranked
        return rng.sample(ranked, DEFAULT_DEMOS)
