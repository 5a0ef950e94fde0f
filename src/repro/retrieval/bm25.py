"""Okapi BM25 over an in-memory inverted index.

Replaces the Elasticsearch 7.13.2 deployment of §5 — BM25 is a pure
function of the corpus (k1 = 1.2, b = 0.75, Lucene-style idf), so an
in-process index is behaviourally identical for our corpus sizes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .tokenize import tokenize

#: term -> (doc ids, term frequencies), as arrays
_ArrayPostings = Dict[str, Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: int
    score: float


class BM25Index:
    """Inverted index with Okapi BM25 scoring."""

    def __init__(self, k1: float = 1.2, b: float = 0.75) -> None:
        self.k1 = k1
        self.b = b
        self._docs: List[Counter] = []
        self._lengths: List[int] = []
        self._postings: Dict[str, List[Tuple[int, int]]] = {}
        self._total_len = 0
        self._avg_len = 0.0
        # (length norm per doc, array postings), rebuilt after an add
        self._arrays: Optional[Tuple[np.ndarray, _ArrayPostings]] = None

    def __len__(self) -> int:
        return len(self._docs)

    def add(self, text: str) -> int:
        """Index a document; returns its id."""
        tokens = tokenize(text)
        counts = Counter(tokens)
        doc_id = len(self._docs)
        self._docs.append(counts)
        self._lengths.append(len(tokens))
        for term, tf in counts.items():
            self._postings.setdefault(term, []).append((doc_id, tf))
        self._total_len += len(tokens)
        self._avg_len = self._total_len / len(self._lengths)
        self._arrays = None
        return doc_id

    def idf(self, term: str) -> float:
        n = len(self._postings.get(term, ()))
        if n == 0:
            return 0.0
        N = len(self._docs)
        return math.log(1.0 + (N - n + 0.5) / (n + 0.5))

    def score(self, query_text: str, doc_id: int) -> float:
        """BM25 score of one document for a query.

        Re-tokenizes the query on every call; when scoring many
        documents for one query use :meth:`scores` instead.
        """
        counts = self._docs[doc_id]
        length = self._lengths[doc_id]
        score = 0.0
        for term in sorted(set(tokenize(query_text))):
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            idf = self.idf(term)
            denom = tf + self.k1 * (1 - self.b
                                    + self.b * length / self._avg_len)
            score += idf * tf * (self.k1 + 1) / denom
        return score

    def _frozen(self) -> Tuple[np.ndarray, _ArrayPostings]:
        """Each document's length norm ``k1·(1 − b + b·length/avg_len)``
        and the postings as arrays."""
        if self._arrays is None:
            lengths = np.array(self._lengths, dtype=np.int64)
            # avg_len is 0 only when no document has a token; then no
            # posting ever reads the norm
            norm = self.k1 * (1 - self.b + self.b * lengths
                              / (self._avg_len or 1.0))
            postings = {}
            for term, hits in self._postings.items():
                ids, tfs = zip(*hits)
                postings[term] = (np.array(ids, dtype=np.intp),
                                  np.array(tfs, dtype=np.int64))
            self._arrays = (norm, postings)
        return self._arrays

    def scores(self, query_text: str) -> np.ndarray:
        """BM25 scores of every document for one query, as a float64
        vector indexed by doc id (0.0 where no query term occurs).

        Tokenizes the query once and adds each query term's postings
        into the vector with one array operation, O(|query terms| +
        matching postings).  Terms are visited in sorted order and each
        element goes through the same IEEE operations in the same order
        as :meth:`score`, so every entry equals :meth:`score` for that
        document bit for bit, independent of hash seeding.
        """
        norm, postings = self._frozen()
        acc = np.zeros(len(self._docs))
        for term in sorted(set(tokenize(query_text))):
            hit = postings.get(term)
            if hit is None:
                continue
            ids, tfs = hit
            acc[ids] += self.idf(term) * tfs * (self.k1 + 1) / (
                tfs + norm[ids])
        return acc

    def search(self, query_text: str, top_n: int = 10) -> List[ScoredDoc]:
        """Rank all documents containing at least one query term."""
        acc = self.scores(query_text)
        hits = np.flatnonzero(acc)  # a matching term always adds > 0
        order = np.lexsort((hits, -acc[hits]))[:top_n]
        return [ScoredDoc(int(hits[k]), float(acc[hits[k]]))
                for k in order]
