"""HTTP side of ``serve-mixed``: boot a daemon, drive it, stop it.

Imports nothing from ``repro``: the untraced daemon is a separate
``python -m repro serve`` process, and the traced run (``worker.py
serve-traced``) reuses :func:`drive` against an in-process daemon.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (ROOT, WARMUP_NAME, WARMUP_PARAMS, WARMUP_SOURCE,
                    copy_corpus, digest, repro_env, request_entry)

#: closed-loop clients (one keep-alive connection each)
CLIENTS = 2
SERVE_ARGS = ("--port", "0", "--workers", "0", "--max-inflight", "2")
_LISTEN = re.compile(r"http://([0-9.]+):(\d+)")


def warm(port: int) -> Dict:
    """Send the warm-up request; its record (latency left at 0)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        status, body = post(conn, {"request": request_entry(
            WARMUP_SOURCE, *WARMUP_PARAMS)})
    finally:
        conn.close()
    return record(WARMUP_NAME, status, body, 0.0)


def post(conn: http.client.HTTPConnection, body: Dict
         ) -> Tuple[Optional[int], bytes]:
    """(status, raw body); status None when the connection failed."""
    try:
        conn.request("POST", "/v1/optimize", json.dumps(body),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        return None, b""


def get_json(port: int, path: str) -> Dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def record(name: str, status: Optional[int], raw: bytes,
           latency: float) -> Dict:
    """One request's outcome; documents are reduced to their digest."""
    rec = {"name": name, "status": status, "latency_s": latency,
           "digest": None, "passed": None, "speedup": None}
    if status == 200:
        doc = json.loads(raw)
        rec.update(digest=digest(doc), passed=doc["result"]["passed"],
                   speedup=doc["result"]["speedup"])
    return rec


def drive(port: int, items: Sequence[Tuple[str, Dict]],
          clients: int = CLIENTS) -> Tuple[List[Dict], float]:
    """Send ``items`` closed-loop over ``clients`` connections.

    Each client takes the next item only after its previous reply, so
    at most ``clients`` requests are outstanding.  Returns the records
    in item order and the wall time from first send to last reply.
    """
    lock = threading.Lock()
    cursor = iter(range(len(items)))
    raw: List[Optional[Tuple]] = [None] * len(items)

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    idx = next(cursor, None)
                if idx is None:
                    return
                started = time.perf_counter()
                status, body = post(conn, items[idx][1])
                raw[idx] = (status, body, time.perf_counter() - started)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    records = [record(items[i][0], *raw[i]) for i in range(len(items))]
    return records, wall


class Daemon:
    """One ``repro serve`` process over a fresh cache dir."""

    def __init__(self, corpus: Path, workdir: Path) -> None:
        cache = copy_corpus(corpus, workdir / "cache")
        self._log = open(workdir / "daemon.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *SERVE_ARGS],
            cwd=ROOT, env=repro_env(cache), stdout=subprocess.PIPE,
            stderr=self._log)
        try:
            line = self.proc.stdout.readline().decode()
            match = _LISTEN.search(line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.port = int(match.group(2))
            self.warmup = warm(self.port)
            #: boot to first warm response
            self.setup_s = time.perf_counter() - self.started
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
