"""Property-based equivalence: the local store vs the in-memory spec.

Hypothesis drives arbitrary interleavings of put/get/delete/compact/
reopen/list over the same keyspace through a :class:`LocalShardedStore`
and the :class:`InMemoryStore` executable specification and requires
observationally identical answers — including the waste counters
(superseded / tombstones), which both stores must account the same
way for ``repro store stats`` to mean anything.  ``reopen`` swaps in a
fresh instance over the same root, so index rebuilds from shard files
are exercised mid-sequence, not just at the end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import InMemoryStore, LocalShardedStore


def _local(root):
    return LocalShardedStore(root / "local", shards=4)


def _memory(root):
    return InMemoryStore(str(root / "memory"))


FACTORIES = {"local": _local, "memory": _memory}

KEYS = ("alpha", "beta", "gamma", "delta", "")
STREAMS = ("s1", "s2")

payloads = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=8),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.sampled_from(("a", "b")),
                    st.integers(0, 99), max_size=2),
    st.none() | st.booleans(),
)

ops = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(STREAMS),
              st.sampled_from(KEYS), payloads),
    st.tuples(st.just("get"), st.sampled_from(STREAMS),
              st.sampled_from(KEYS)),
    st.tuples(st.just("delete"), st.sampled_from(STREAMS),
              st.sampled_from(KEYS)),
    st.tuples(st.just("list"), st.sampled_from(STREAMS)),
    st.tuples(st.just("stats"), st.sampled_from(STREAMS)),
    st.tuples(st.just("compact"), st.sampled_from(STREAMS)),
    st.tuples(st.just("reopen")),
)


def apply(store, op):
    """One observation per op; the two backends must produce equal ones."""
    kind = op[0]
    if kind == "put":
        _, stream, key, payload = op
        store.append(stream, key, payload)
        return ("put-ok", store.contains(stream, key))
    if kind == "get":
        _, stream, key = op
        return ("got", store.read(stream, key))
    if kind == "delete":
        _, stream, key = op
        return ("deleted", store.delete(stream, key))
    if kind == "list":
        _, stream = op
        return ("keys", store.list(stream))
    if kind == "stats":
        _, stream = op
        stats = store.stream_stats(stream)
        return ("stats", stats.entries, stats.superseded,
                stats.tombstones, stats.corrupt)
    if kind == "compact":
        _, stream = op
        report = store.compact(stream)
        return ("compacted", report.kept, report.dropped_superseded,
                report.dropped_tombstones, report.dropped_corrupt)
    assert kind == "reopen"
    return ("reopened",)


@pytest.mark.parametrize("backend", sorted(FACTORIES))
@settings(max_examples=60, deadline=None)
@given(script=st.lists(ops, max_size=40))
def test_sharded_store_matches_in_memory_spec(tmp_path_factory, backend,
                                              script):
    root = tmp_path_factory.mktemp("prop")
    factory = FACTORIES[backend]
    store = factory(root)
    spec = InMemoryStore(str(root / "spec"))
    for step, op in enumerate(script):
        if op[0] == "reopen":
            store = factory(root)
            spec = InMemoryStore(str(root / "spec"))
            continue
        observed = apply(store, op)
        expected = apply(spec, op)
        assert observed == expected, (
            f"step {step}: {op!r} -> {backend} {observed!r} "
            f"!= spec {expected!r}")
    # final state agrees stream by stream, key by key
    for stream in STREAMS:
        assert store.list(stream) == spec.list(stream)
        for key in spec.list(stream):
            assert store.read(stream, key) == spec.read(stream, key)


@pytest.mark.parametrize("backend", sorted(FACTORIES))
@settings(max_examples=20, deadline=None)
@given(puts=st.lists(st.tuples(st.sampled_from(KEYS), payloads),
                     max_size=30))
def test_compaction_is_observation_preserving(tmp_path_factory, backend,
                                              puts):
    """compact() never changes what readers see, only file shape."""
    root = tmp_path_factory.mktemp("prop-compact")
    factory = FACTORIES[backend]
    store = factory(root)
    for key, payload in puts:
        store.append("s", key, payload)
    before = {key: store.read("s", key) for key in store.list("s")}
    store.compact("s")
    assert {k: store.read("s", k) for k in store.list("s")} == before
    fresh = factory(root)
    assert {k: fresh.read("s", k) for k in fresh.list("s")} == before
    stats = fresh.stream_stats("s")
    assert stats.superseded == 0 and stats.corrupt == 0


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
