"""LAScore — the loop-aware retrieval score (Eqs 1–5, §4.2).

``LAScore = SB + (SF − SM) / NS_T`` where

* ``SB`` is the BM25 base score (syntactic robustness),
* ``SM`` (Eq 1) penalises a statement-count mismatch,
* ``SF`` (Eq 4) sums per-statement, per-feature reward ``R`` (Eq 2,
  matched features) minus penalty ``P`` (Eq 3, *extra* features in the
  example — demonstrations of transformations the target cannot use),
  normalised by the target's feature count.

Sign convention: Eq 3 writes ``P = (Count(F_T∩F_E) − NF_E) × WP``, which
is ≤ 0; combined with Eq 4's ``R − P`` the net effect the text describes
("penalty applied when the example SCoP has more features") corresponds to
subtracting ``max(0, NF_E − Count∩) × WP``, which is what we compute.

The scalar :func:`lascore` is the executable specification.
:class:`FeatureIndex` computes SF and SM for a whole corpus at once and
must agree with it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .features import (FEATURE_KINDS, StatementFeatures, intersection_count)

#: reward weight per feature kind (W_R in Eq 2)
DEFAULT_REWARD_WEIGHTS: Mapping[str, float] = {
    "schedule": 2.0, "write_index": 3.0, "read_index": 2.0}
#: penalty weight per feature kind (W_P in Eqs 1 and 3)
DEFAULT_PENALTY_WEIGHTS: Mapping[str, float] = {
    "schedule": 1.0, "write_index": 1.5, "read_index": 1.0}


@dataclass(frozen=True)
class ScoreBreakdown:
    """LAScore with its components, for inspection and tests."""

    base: float          # SB
    feature_score: float  # SF
    mismatch: float       # SM
    n_target_statements: int

    @property
    def weighted(self) -> float:
        return (self.feature_score - self.mismatch) / max(
            1, self.n_target_statements)

    @property
    def total(self) -> float:
        return self.base + self.weighted


def statement_mismatch(target: Sequence[StatementFeatures],
                       example: Sequence[StatementFeatures],
                       penalty_weights: Mapping[str, float]
                       ) -> float:
    """Eq 1: SM = |NS_T − NS_E| × Σ_j WP_j."""
    total_wp = sum(penalty_weights.get(kind, 1.0)
                   for kind in FEATURE_KINDS)
    return abs(len(target) - len(example)) * total_wp


def feature_score(target: Sequence[StatementFeatures],
                  example: Sequence[StatementFeatures],
                  reward_weights: Mapping[str, float],
                  penalty_weights: Mapping[str, float]) -> float:
    """Eqs 2–4: Σ_{i,j} (R_ij − P_ij) / NF_T_ij."""
    total = 0.0
    for t_feat, e_feat in zip(target, example):
        for kind in FEATURE_KINDS:
            t_counter = t_feat.counter(kind)
            e_counter = e_feat.counter(kind)
            nft = sum(t_counter.values())
            nfe = sum(e_counter.values())
            if nft == 0 and nfe == 0:
                continue
            matched = intersection_count(t_counter, e_counter)
            reward = matched * reward_weights.get(kind, 1.0)
            penalty = max(0, nfe - matched) * penalty_weights.get(kind, 1.0)
            total += (reward - penalty) / max(1, nft)
    return total


def lascore(target: Sequence[StatementFeatures],
            example: Sequence[StatementFeatures],
            base_score: float) -> ScoreBreakdown:
    """Eq 5: LAScore = SB + (SF − SM) / NS_T."""
    sm = statement_mismatch(target, example, DEFAULT_PENALTY_WEIGHTS)
    sf = feature_score(target, example, DEFAULT_REWARD_WEIGHTS,
                       DEFAULT_PENALTY_WEIGHTS)
    return ScoreBreakdown(base=base_score, feature_score=sf, mismatch=sm,
                          n_target_statements=len(target))


class FeatureIndex:
    """Corpus-side LAScore index under the default weights: SF and SM of
    every document per query.

    For each (statement position i, feature kind j) it keeps a postings
    map from feature to the (doc ids, counts) of the documents whose
    i-th statement has it, each document's feature total NF_E, and each
    document's statement count NS_E.  A query then costs one array pass
    per target feature, not one :func:`feature_score` call per document.
    """

    _reward = [DEFAULT_REWARD_WEIGHTS[kind] for kind in FEATURE_KINDS]
    _penalty = [DEFAULT_PENALTY_WEIGHTS[kind] for kind in FEATURE_KINDS]
    # summed in FEATURE_KINDS order, as statement_mismatch sums it
    _total_wp = sum(_penalty)

    def __init__(self, corpus: Sequence[Sequence[StatementFeatures]]
                 ) -> None:
        n_docs = len(corpus)
        self.n_statements = np.array([len(doc) for doc in corpus],
                                     dtype=np.int64)
        depth = int(self.n_statements.max(initial=0))
        # NF_E by (statement position, kind, doc)
        self._totals = np.zeros((depth, len(FEATURE_KINDS), n_docs),
                                dtype=np.int64)
        postings: Dict[tuple, Tuple[List[int], List[int]]] = {}
        for doc, statements in enumerate(corpus):
            for i, stmt in enumerate(statements):
                for j, kind in enumerate(FEATURE_KINDS):
                    counter = stmt.counter(kind)
                    self._totals[i, j, doc] = sum(counter.values())
                    for feature, count in counter.items():
                        ids, counts = postings.setdefault(
                            (i, j, feature), ([], []))
                        ids.append(doc)
                        counts.append(count)
        self._postings = {key: (np.array(ids, dtype=np.intp),
                                np.array(counts, dtype=np.int64))
                          for key, (ids, counts) in postings.items()}

    def scores(self, target: Sequence[StatementFeatures]
               ) -> Tuple[np.ndarray, np.ndarray]:
        """SF (Eqs 2–4) and SM (Eq 1) of every document, as float64
        vectors indexed by doc id.

        Each element goes through the IEEE operations of
        :func:`feature_score` and :func:`statement_mismatch` in their
        order — statement outer, kind inner — so it equals the scalar
        result bit for bit.  Matched counts are exact integer sums of
        ``min(count_T, count_E)`` over the target's features.

        The scalar loop skips a (statement, kind) with NF_T = NF_E = 0
        and stops at the shorter program; here such a term is added as
        ``(0·WR − 0·WP) / 1 = +0.0``.  Feature counts are positive (as
        :func:`~.features.statement_features` builds them) and so are
        the weights, so no term and no partial sum is ever −0.0, and
        adding +0.0 changes nothing.
        """
        n_docs = len(self.n_statements)
        sf = np.zeros(n_docs)
        # statements past the longest document match nothing
        for i, t_feat in enumerate(target[:len(self._totals)]):
            for j, kind in enumerate(FEATURE_KINDS):
                t_counter = t_feat.counter(kind)
                nft = sum(t_counter.values())
                matched = np.zeros(n_docs, dtype=np.int64)
                for feature, count in t_counter.items():
                    hit = self._postings.get((i, j, feature))
                    if hit is not None:
                        ids, counts = hit
                        matched[ids] += np.minimum(counts, count)
                reward = matched * self._reward[j]
                penalty = (np.maximum(0, self._totals[i, j] - matched)
                           * self._penalty[j])
                sf += (reward - penalty) / max(1, nft)
        sm = np.abs(len(target) - self.n_statements) * self._total_wp
        return sf, sm
