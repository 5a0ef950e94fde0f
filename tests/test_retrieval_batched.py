"""Batched retrieval against the scalar specification.

``Retriever.rank`` scores the whole corpus with array operations
(``BM25Index.scores`` and ``FeatureIndex.scores``).  Its ranks must
equal a ranking built from scalar ``lascore()`` and per-document
``BM25Index.score``: the same entries in the same order, every score
equal under ``==`` and every ``ScoreBreakdown`` field equal.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import scop_body_to_c
from repro.retrieval import (METHODS, BM25Index, FeatureIndex, Retriever,
                             feature_score, lascore, program_features,
                             statement_mismatch)
from repro.retrieval.features import FEATURE_KINDS, StatementFeatures
from repro.retrieval.lascore import (DEFAULT_PENALTY_WEIGHTS,
                                     DEFAULT_REWARD_WEIGHTS)
from repro.suites import SUITES
from repro.synthesis import build_dataset
from repro.synthesis.dataset import Dataset


@pytest.fixture(scope="module")
def corpus():
    return build_dataset(size=60, seed=13)


@pytest.fixture(scope="module")
def retriever(corpus):
    return Retriever(corpus)


@pytest.fixture(scope="module")
def kernels():
    return [bench for make in SUITES.values() for bench in make()]


def _dataset(entries, like):
    return Dataset(entries=tuple(entries), generator=like.generator,
                   seed=like.seed)


def batched_rank(retriever, target, method):
    return [(d.entry.name, d.score, d.breakdown)
            for d in retriever.rank(target, method,
                                    top_n=len(retriever.dataset))]


def reference_rank(retriever, target, method):
    """The ranking as scalar lascore() and BM25Index.score define it."""
    query = scop_body_to_c(target)
    index = retriever.index
    entries = list(retriever.dataset)
    if method == "bm25":
        hits = [(index.score(query, k), k) for k in range(len(entries))]
        hits = sorted((hit for hit in hits if hit[0] > 0),
                      key=lambda hit: (-hit[0], hit[1]))
        return [(entries[k].name, score, None) for score, k in hits]
    target_features = program_features(target)
    ranked = []
    for k, entry in enumerate(entries):
        base = index.score(query, k) if method == "loop-aware" else 0.0
        breakdown = lascore(target_features,
                            program_features(entry.example), base)
        ranked.append((entry.name, breakdown.total, breakdown))
    ranked.sort(key=lambda r: (-r[1], r[0]))
    return ranked


class TestRankParity:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_kernel_matches_reference(self, retriever, kernels,
                                            method):
        for bench in kernels:
            assert batched_rank(retriever, bench.program, method) == \
                reference_rank(retriever, bench.program, method), bench.name

    def test_top_n_is_prefix_of_full_rank(self, retriever, corpus, kernels):
        target = kernels[0].program
        full = retriever.rank(target, top_n=len(corpus))
        assert retriever.rank(target, top_n=10) == full[:10]


class TestRetrieverEdgeCases:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_sub_corpus_matches_reference(self, corpus, kernels, data):
        """Random sub-corpora, repeated entries (score ties) under random
        distinct names, every method."""
        picks = data.draw(st.lists(st.integers(0, len(corpus) - 1),
                                   max_size=8))
        names = data.draw(st.lists(st.text("abc", min_size=1, max_size=3),
                                   min_size=len(picks),
                                   max_size=len(picks), unique=True))
        target = data.draw(st.sampled_from(kernels)).program
        method = data.draw(st.sampled_from(METHODS))
        sub = _dataset((dataclasses.replace(corpus[p], name=name)
                        for p, name in zip(picks, names)), corpus)
        retriever = Retriever(sub)
        assert batched_rank(retriever, target, method) == \
            reference_rank(retriever, target, method)

    def test_score_ties_broken_by_name(self, corpus, gemm):
        entry = corpus[0]
        sub = _dataset([dataclasses.replace(entry, name=name)
                        for name in ("c", "a", "b")], corpus)
        for method in ("loop-aware", "weighted"):
            ranked = Retriever(sub).rank(gemm, method)
            assert [d.entry.name for d in ranked] == ["a", "b", "c"]
            assert len({d.score for d in ranked}) == 1

    def test_target_longer_than_every_entry(self, corpus, gemm):
        single = [e for e in corpus if len(e.example.statements) == 1]
        assert single and len(gemm.statements) > 1
        retriever = Retriever(_dataset(single, corpus))
        for method in METHODS:
            assert batched_rank(retriever, gemm, method) == \
                reference_rank(retriever, gemm, method)

    def test_query_sharing_no_bm25_term(self, corpus, gemm):
        sub = _dataset([dataclasses.replace(corpus[k],
                                            example_text="qqq zzz")
                        for k in range(5)], corpus)
        retriever = Retriever(sub)
        assert retriever.rank(gemm, "bm25") == []
        ranked = retriever.rank(gemm, "loop-aware", top_n=5)
        assert [d.breakdown.base for d in ranked] == [0.0] * 5
        assert batched_rank(retriever, gemm, "loop-aware") == \
            reference_rank(retriever, gemm, "loop-aware")

    def test_one_entry_corpus(self, corpus, gemm):
        retriever = Retriever(_dataset(corpus[:1], corpus))
        for method in METHODS:
            assert batched_rank(retriever, gemm, method) == \
                reference_rank(retriever, gemm, method)

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_corpus_ranks_nothing(self, corpus, gemm, method):
        assert Retriever(_dataset((), corpus)).rank(gemm, method) == []


def _statement(schedule, write_index, read_index) -> StatementFeatures:
    items = {"schedule": schedule, "write_index": write_index,
             "read_index": read_index}
    return StatementFeatures(statement="S", features=tuple(
        (kind, tuple(sorted(items[kind].items()))) for kind in FEATURE_KINDS))


feature_items = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]), st.integers(1, 3), max_size=3)
statements = st.builds(_statement, feature_items, feature_items,
                       feature_items)


def _assert_matches_scalar(corpus, target):
    sf, sm = FeatureIndex(corpus).scores(target)
    assert list(sf) == [feature_score(target, doc, DEFAULT_REWARD_WEIGHTS,
                                      DEFAULT_PENALTY_WEIGHTS)
                        for doc in corpus]
    assert list(sm) == [statement_mismatch(target, doc,
                                           DEFAULT_PENALTY_WEIGHTS)
                        for doc in corpus]


class TestFeatureIndex:
    @given(st.lists(st.lists(statements, max_size=4), max_size=6),
           st.lists(statements, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar(self, corpus, target):
        _assert_matches_scalar(corpus, target)

    @given(st.lists(st.lists(statements, max_size=2), min_size=1,
                    max_size=6),
           st.lists(statements, min_size=3, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_target_longer_than_every_document(self, corpus, target):
        _assert_matches_scalar(corpus, target)

    def test_empty_kind_on_both_sides_is_skipped(self):
        """NF_T = NF_E = 0 adds nothing; NF_T = 0 < NF_E is penalised."""
        target = [_statement({}, {"a": 1}, {})]
        bare = [_statement({}, {"a": 1}, {})]
        scheduled = [_statement({"b": 2}, {"a": 1}, {})]
        _assert_matches_scalar([bare, scheduled], target)
        sf, _ = FeatureIndex([bare, scheduled]).scores(target)
        assert sf[0] == DEFAULT_REWARD_WEIGHTS["write_index"]
        assert sf[1] < sf[0]

    def test_empty_corpus(self):
        sf, sm = FeatureIndex([]).scores([_statement({"a": 1}, {}, {})])
        assert sf.shape == sm.shape == (0,)


documents = st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=4),
                     min_size=1, max_size=12).map(" ".join)
queries = st.lists(st.text(alphabet="abcqrs", min_size=1, max_size=4),
                   max_size=8).map(" ".join)


class TestBM25Batched:
    @given(st.lists(documents, max_size=8), queries)
    @settings(max_examples=60, deadline=None)
    def test_scores_equal_per_document_score(self, docs, query):
        index = BM25Index()
        for doc in docs:
            index.add(doc)
        assert list(index.scores(query)) == \
            [index.score(query, k) for k in range(len(docs))]

    @given(st.lists(documents, min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_disjoint_query_scores_zero(self, docs):
        index = BM25Index()
        for doc in docs:
            index.add(doc)
        assert not index.scores("qqq www").any()
        assert index.search("qqq www") == []

    def test_add_after_scoring_rebuilds_postings(self):
        index = BM25Index()
        index.add("a b")
        index.scores("b c")  # builds the array postings
        index.add("c c d")
        assert list(index.scores("b c")) == \
            [index.score("b c", k) for k in range(2)]
