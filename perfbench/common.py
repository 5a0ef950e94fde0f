"""Shared pieces of the request benchmark: paths, workloads, digests.

Importing this module imports nothing from ``repro``; only
:func:`kernel_table` does, to read the suites' kernel tables.  Every
measured program run happens in a fresh child process (``worker.py``,
or a ``repro serve`` daemon).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: everything the benchmark writes lives here (git-ignored)
WORK = ROOT / ".bench_build" / "perfbench"
EXPECTED = BENCH_DIR / "expected.json"
WORKLOADS_FILE = BENCH_DIR / "workloads.json"

WORKLOADS = ("polybench-looprag", "tsvc-looprag", "serve-mixed")
SESSION_SUITES = {"polybench-looprag": "polybench",
                  "tsvc-looprag": "tsvc"}

#: the default corpus every workload retrieves from
DATASET_SIZE = 400
DATASET_SEED = 0

#: kernels whose ``Program.fingerprint()`` equals that of an earlier
#: kernel in the TSVC table (second member -> first member).  The
#: result store keys on the fingerprint, so the second member is
#: answered with the first member's stored document; ``serve-mixed``
#: leaves them out and ``selftest.py`` demonstrates the stale result.
ALIASES = {"s131": "s121", "vdotr": "s313", "vsumr": "s311"}

#: the request every fresh daemon answers first (its latency is part of
#: set-up): a kernel in none of the suites, so it shares no journal or
#: store entry with the workload
WARMUP_NAME = "warmup"
WARMUP_SOURCE = """
scop warmup(N) {
  array a[N+2] output;
  array b[N+2];
  for (i = 1; i < N; i++) a[i] = a[i-1] + b[i];
}
"""
WARMUP_PARAMS = ({"N": 4000}, {"N": 12})

#: setup samples per run; the median is reported
SETUP_SAMPLES = 5


def digest(doc) -> str:
    """sha256 of a result document in canonical JSON form."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def repro_env(cache_dir: Path, **extra: str) -> Dict[str, str]:
    """A child environment with default engines and its own cache dir.

    Every ``REPRO_*`` knob of the caller is dropped so that the program
    runs with its defaults (vectorized engines, local store backend, no
    injected faults).
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.update(extra)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def copy_corpus(corpus_cache: Path, target: Path) -> Path:
    """A fresh cache dir holding only the prebuilt corpus stream."""
    fresh_dir(target)
    shutil.copytree(corpus_cache / "store" / "datasets",
                    target / "store" / "datasets")
    return target


def kernel_table() -> Dict[str, tuple]:
    """name -> (source, perf, test) from the TSVC and LORE kernel tables."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # the package re-exports functions named like the submodules
    tables = [importlib.import_module(f"repro.suites.{suite}")._K
              for suite in ("tsvc", "lore")]
    return {name: (source, perf, test)
            for name, source, perf, test in tables[0] + tables[1]}


def serve_bodies() -> List[Tuple[str, Dict]]:
    """(name, POST body) for every TSVC and LORE kernel but aliases."""
    return [(name, {"request": request_entry(*entry)})
            for name, entry in kernel_table().items() if name not in ALIASES]


def serve_items(seed: str) -> List[Tuple[str, Dict]]:
    """Every serve kernel once, every other one twice, in seeded order.

    A third of the requests are duplicates.  With half of them
    duplicates the median falls exactly between the journal hits and
    the computed requests and flips between the two from run to run.
    """
    bodies = serve_bodies()
    return seeded_order(bodies + bodies[::2], seed)


def request_entry(source: str, perf, test) -> Dict:
    return {"source": source, "system": "looprag", "persona": "deepseek",
            "perf": dict(perf), "test": dict(test)}


def seeded_order(items: Sequence, seed: str) -> List:
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, min(99, math.floor(100.0 - 1000.0 / n))) if n else 0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def load_expected() -> Dict:
    with open(EXPECTED) as handle:
        return json.load(handle)


def load_workloads() -> Dict:
    with open(WORKLOADS_FILE) as handle:
        return json.load(handle)
