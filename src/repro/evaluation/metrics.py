"""Evaluation metrics (§6.1).

* ``pass@k`` — fraction of benchmarks where at least one of the top-K
  candidates passes all correctness tests;
* average speedup — arithmetic mean of per-benchmark speedups, failures
  counted as 0, outliers above 600× excluded (the paper's rule to bound
  standard-deviation error);
* percentage of faster codes — fraction of benchmarks where system A's
  speedup strictly exceeds system B's (the robustness companion to the
  unstable mean).
"""

from __future__ import annotations

from typing import Mapping, Sequence

OUTLIER_CAP = 600.0


def pass_at_k(passed: Sequence[bool]) -> float:
    """Percentage of benchmarks with at least one passing candidate."""
    if not passed:
        return 0.0
    return 100.0 * sum(bool(p) for p in passed) / len(passed)


def average_speedup(speedups: Sequence[float]) -> float:
    """Mean speedup with failures as 0 and >OUTLIER_CAP outliers
    excluded."""
    kept = [s for s in speedups if s <= OUTLIER_CAP]
    if not kept:
        return 0.0
    return sum(kept) / len(kept)


def percent_faster(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """% of common benchmarks where A is strictly faster than B."""
    common = sorted(set(a) & set(b))
    if not common:
        return 0.0
    wins = sum(1 for name in common if a[name] > b[name])
    return 100.0 * wins / len(common)


def speedup_ratio(a: float, b: float) -> float:
    """Ratio of average speedups (how Table 1's prose computes
    "average speedups of X over Y")."""
    if b <= 0:
        return float("inf") if a > 0 else 0.0
    return a / b
