"""Daemon metrics: counters, gauges, and a latency reservoir.

Everything the ``/metrics`` endpoint serves lives here, behind one
lock.  Latencies are kept in a bounded ring (most recent ~1024
requests) — enough for honest p50/p95 without unbounded memory on a
long-lived daemon.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict


def _percentile(sorted_values, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[index]


class Metrics:
    """Thread-safe counters + gauges + latency percentiles."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Callable[[], Any]] = {}
        self._latencies: Deque[float] = deque(maxlen=1024)

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str, read: Callable[[], Any]) -> None:
        """Register a live gauge, sampled at snapshot time."""
        with self._lock:
            self._gauges[name] = read

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies.append(seconds)

    def latency_p50(self) -> float:
        """Median request latency in seconds (0.0 until data exists)."""
        with self._lock:
            latencies = sorted(self._latencies)
        return _percentile(latencies, 0.50)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            latencies = sorted(self._latencies)
        doc: Dict[str, Any] = {"counters": counters}
        doc["gauges"] = {}
        for name, read in gauges.items():
            try:
                doc["gauges"][name] = read()
            except Exception:  # a gauge must never break /metrics
                doc["gauges"][name] = None
        doc["latency"] = {
            "count": len(latencies),
            "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
            "p95_ms": round(_percentile(latencies, 0.95) * 1000, 3),
            "max_ms": round(latencies[-1] * 1000, 3) if latencies
            else 0.0,
        }
        return doc
