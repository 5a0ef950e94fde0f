"""Demonstration retrieval: BM25, loop features and LAScore."""

from .bm25 import BM25Index, ScoredDoc
from .features import (FEATURE_KINDS, StatementFeatures,
                       intersection_count, program_features,
                       statement_features)
from .lascore import (DEFAULT_PENALTY_WEIGHTS, DEFAULT_REWARD_WEIGHTS,
                      FeatureIndex, ScoreBreakdown, feature_score, lascore,
                      statement_mismatch)
from .retriever import (DEFAULT_DEMOS, DEFAULT_TOP_N, METHODS,
                        RetrievedDemo, Retriever)
from .tokenize import tokenize

__all__ = [
    "BM25Index", "ScoredDoc",
    "FEATURE_KINDS", "StatementFeatures", "intersection_count",
    "program_features", "statement_features",
    "DEFAULT_PENALTY_WEIGHTS", "DEFAULT_REWARD_WEIGHTS", "FeatureIndex",
    "ScoreBreakdown",
    "feature_score", "lascore", "statement_mismatch",
    "DEFAULT_DEMOS", "DEFAULT_TOP_N", "METHODS", "RetrievedDemo",
    "Retriever",
    "tokenize",
]
