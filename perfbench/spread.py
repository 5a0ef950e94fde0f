"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload W [--seeds 10] [--seconds S]

Runs ``run.py`` once per seed (seeds 1..N) and prints, per metric, the
median and the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``), next to
the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in range(1, args.seeds + 1):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, check=True, capture_output=True,
            text=True).stdout.splitlines()[-1]
        result = json.loads(out)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        print(f"{metric['name']:18s} median {mid:12.6g}  spread "
              f"{spread:6.3f}  bound {metric['bound']:.3f}"
              f"{'  WIDE' if spread > metric['bound'] / 3 else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
