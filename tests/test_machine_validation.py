"""Cross-validation: analytical model vs trace-driven cache simulator.

The analytical model must agree with ground-truth LRU simulation on the
direction (and rough magnitude) of every locality effect the evaluation
relies on.
"""

import pytest

from repro.ir import parse_scop
from repro.machine import MachineModel, estimate, simulate_trace
from repro.transforms import fuse, interchange, tile

SMALL = {"NI": 24, "NJ": 24, "NK": 24}
TINY_CACHE = 1024  # bytes — forces capacity misses at small sizes


def trace_misses(p, params, cache=TINY_CACHE):
    return simulate_trace(p, params, capacity_bytes=cache).misses


def model_misses(p, params, cache=TINY_CACHE):
    machine = MachineModel(cache_bytes=cache, l1_bytes=cache // 2)
    return estimate(p, params, machine).total_misses


class TestDirectionalAgreement:
    def test_tiling_reduces_misses_in_both(self, gemm):
        t = tile(gemm, [1, 3, 5], 4, stmts=["S2"])
        assert trace_misses(t, SMALL) < trace_misses(gemm, SMALL)
        assert model_misses(t, SMALL) < model_misses(gemm, SMALL)

    def test_bad_interchange_hurts_in_both(self, gemm):
        bad = interchange(gemm, 3, 5)  # k innermost
        assert trace_misses(bad, SMALL) > 1.5 * trace_misses(gemm, SMALL)
        assert model_misses(bad, SMALL) > 1.5 * model_misses(gemm, SMALL)

    def test_streaming_miss_rate(self, stream):
        params = {"LEN": 4096}
        res = simulate_trace(stream, params, capacity_bytes=TINY_CACHE)
        # 3 arrays, unit stride, 8B elements, 64B lines -> 1/8 per access
        assert res.miss_rate == pytest.approx(1 / 8, rel=0.05)
        model = model_misses(stream, params)
        assert model == pytest.approx(res.misses, rel=0.25)

    def test_temporal_reuse_detected_in_model(self):
        p = parse_scop("""
        scop dot(N) {
          array S[N] output;
          array X[N];
          for (i = 0; i < N; i++)
            for (j = 0; j < N; j++)
              S[i] += X[j] * 2.0;
        }
        """)
        params = {"N": 64}
        res = simulate_trace(p, params, capacity_bytes=8192)
        # X fits in cache: one cold sweep, then hits
        assert res.misses < 0.02 * res.accesses
        model = model_misses(p, params, cache=8192)
        assert model < 0.02 * (64 * 64 * 2)


class TestMagnitudeAgreement:
    @pytest.mark.parametrize("transform", ["none", "tile", "interchange"])
    def test_within_factor_four(self, gemm, transform):
        p = gemm
        if transform == "tile":
            p = tile(gemm, [1, 3, 5], 8, stmts=["S2"])
        elif transform == "interchange":
            p = interchange(gemm, 3, 5)
        t = trace_misses(p, SMALL)
        m = model_misses(p, SMALL)
        assert m / t < 4.0 and t / m < 4.0


class TestLRUCacheUnit:
    def test_hit_after_touch(self):
        from repro.machine import LineCache
        c = LineCache(1024, 64)
        assert not c.touch(0)
        assert c.touch(8)  # same line

    def test_eviction_order(self):
        from repro.machine import LineCache
        c = LineCache(128, 64)  # 2 lines
        c.touch(0)
        c.touch(64)
        c.touch(0)      # refresh line 0
        c.touch(128)    # evicts line 1
        assert c.touch(0)
        assert not c.touch(64)

    def test_too_small_rejected(self):
        from repro.machine import LineCache
        with pytest.raises(ValueError):
            LineCache(32, 64)
