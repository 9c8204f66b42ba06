"""The ``serve-mix`` workload: a closed-loop request mix against ``repro serve``.

The daemon runs in its own process (started through ``daemon.py``).
One generator process opens ``CONNECTIONS`` client connections; each
sends its next request only after the previous answer arrived.  Each
connection draws its own request stream from the benchmark seed:

* ``REORDER_SHARE`` of requests are heuristic ``reorder`` queries over
  the five patterns and four named layouts.  ``COLD_SHARE`` of those use
  a seed this stream has not used before, so the daemon computes a new
  mapping and writes it to its cache; the rest repeat one of the
  stream's ``WARM_RECENT`` most recent keys and are cache reads.
* The remaining requests ``price`` a pattern's algorithm on a named
  layout over the Fig. 3 sizes: cold on first contact, answered from
  the pricing LRU after that.

Connections use disjoint mapping seeds, so which requests are cold does
not depend on how the two interleave.  Every distinct served mapping and
price is audited afterwards against a solo recompute on a fresh cluster.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

PATTERNS = ("binomial-bcast", "binomial-gather", "bruck", "recursive-doubling", "ring")
LAYOUTS = ("block-bunch", "block-scatter", "cyclic-bunch", "cyclic-scatter")
SIZES = [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144]
CONNECTIONS = 2
REORDER_SHARE = 0.6
COLD_SHARE = 0.25
WARM_RECENT = 64
#: Requests per connection a timed window runs at least, so that the
#: p99 latency has at least ten samples beyond it.
MIN_REQUESTS = 500
#: Distance between two streams' mapping-seed ranges.
SEED_STRIDE = 1_000_000
DAEMON_START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0

Request = Tuple[str, str, str, int]  # (op, pattern, layout, mapping seed or -1)


def request_stream(seed: int, conn: int) -> Iterator[Request]:
    """Endless, deterministic request stream of one connection."""
    rng = np.random.default_rng([seed, conn])
    recent: deque = deque(maxlen=WARM_RECENT)
    next_seed = seed * SEED_STRIDE * CONNECTIONS + conn * SEED_STRIDE
    while True:
        pattern = PATTERNS[int(rng.integers(len(PATTERNS)))]
        layout = LAYOUTS[int(rng.integers(len(LAYOUTS)))]
        if rng.random() >= REORDER_SHARE:
            yield ("price", pattern, layout, -1)
        elif not recent or rng.random() < COLD_SHARE:
            recent.append((pattern, layout, next_seed))
            next_seed += 1
            yield ("reorder", pattern, layout, next_seed - 1)
        else:
            pattern, layout, key_seed = recent[int(rng.integers(len(recent)))]
            yield ("reorder", pattern, layout, key_seed)


def mapping_digest(mapping) -> bytes:
    return hashlib.sha1(np.asarray(mapping, dtype=np.int64).tobytes()).digest()


@dataclass
class MixResult:
    """What the generator observed in one measured window."""

    wall_s: float = 0.0
    window: Tuple[float, float] = (0.0, 0.0)
    latencies: List[float] = field(default_factory=list)
    counts: List[int] = field(default_factory=list)
    failed: int = 0
    price_points: int = 0
    #: digest of every reorder answer, per (pattern, layout, seed)
    digests: Dict[Tuple[str, str, int], List[bytes]] = field(default_factory=dict)
    #: every price answer's total_seconds, per (pattern, layout)
    prices: Dict[Tuple[str, str], List[List[float]]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


# ----------------------------------------------------------------------
# the daemon process
# ----------------------------------------------------------------------
class Daemon:
    """``repro serve`` in its own process, on a unix socket in ``workdir``."""

    def __init__(self, bench_dir: str, workdir: str, env: dict, tag: str,
                 trace_path: Optional[str] = None) -> None:
        self.socket_path = os.path.join(workdir, f"{tag}.sock")
        self.report_path = os.path.join(workdir, f"{tag}.report.json")
        cmd = [sys.executable, os.path.join(bench_dir, "daemon.py"),
               "--report", self.report_path]
        if trace_path:
            cmd += ["--trace", trace_path]
        cmd += ["--", "--socket", self.socket_path]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
        self._await_ready()

    def _await_ready(self) -> None:
        deadline = time.monotonic() + DAEMON_START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if b"listening on" in line:
                    return
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("repro serve did not start")

    def stop(self) -> dict:
        """Graceful SIGTERM drain; returns the launcher's report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        try:
            with open(self.report_path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {}


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
def drive(socket_path: str, fingerprint: str, seed: int,
          seconds: Optional[float] = None, counts: Optional[List[int]] = None) -> MixResult:
    """Run every connection's stream for ``seconds`` (and ``MIN_REQUESTS``
    at least), or for exactly ``counts[c]`` requests on connection ``c``."""
    from repro.serve.client import ServeClient, ServeError

    out = MixResult(counts=[0] * CONNECTIONS)
    lock = threading.Lock()
    clients = [ServeClient(socket_path=socket_path, timeout=REQUEST_TIMEOUT)
               for _ in range(CONNECTIONS)]
    start = threading.Barrier(CONNECTIONS + 1, timeout=REQUEST_TIMEOUT)
    deadline = [0.0]
    crashed: List[Exception] = []

    def run(conn: int) -> None:
        try:
            loop(conn)
        except Exception as exc:  # re-raised by the main thread below
            crashed.append(exc)

    def loop(conn: int) -> None:
        client = clients[conn]
        stream = request_stream(seed, conn)
        lat: List[float] = []
        failed = points = 0
        start.wait()
        while (counts[conn] > len(lat)) if counts is not None else (
            time.perf_counter() < deadline[0] or len(lat) < MIN_REQUESTS
        ):
            op, pattern, layout, key_seed = next(stream)
            t0 = time.perf_counter()
            try:
                if op == "reorder":
                    res = client.reorder(fingerprint, pattern, layout, seed=key_seed)
                else:
                    res = client.price(fingerprint, pattern, SIZES, layout=layout)
            except (ServeError, OSError, ValueError):
                lat.append(time.perf_counter() - t0)
                failed += 1
                continue
            lat.append(time.perf_counter() - t0)
            if op == "reorder":
                digest = mapping_digest(res["mapping"])
                with lock:
                    out.digests.setdefault((pattern, layout, key_seed), []).append(digest)
            else:
                points += len(res["total_seconds"])
                with lock:
                    out.prices.setdefault((pattern, layout), []).append(res["total_seconds"])
        with lock:
            out.latencies.extend(lat)
            out.counts[conn] = len(lat)
            out.failed += failed
            out.price_points += points

    threads = [threading.Thread(target=run, args=(c,)) for c in range(CONNECTIONS)]
    try:
        for t in threads:
            t.start()
        t_start = time.perf_counter()
        deadline[0] = t_start + (seconds or 0.0)
        start.wait()
        for t in threads:
            t.join()
        t_end = time.perf_counter()
    finally:
        for c in clients:
            c.close()
    if crashed:
        raise crashed[0]
    out.window = (t_start, t_end)
    out.wall_s = t_end - t_start
    return out


# ----------------------------------------------------------------------
# the audit
# ----------------------------------------------------------------------
def audit(mix: MixResult, n_nodes: int) -> int:
    """Served answers that differ from a solo recompute on a fresh cluster.

    Each reorder answer counts once per response that disagrees with
    the solo mapping; each price answer likewise.
    """
    from repro.collectives.registry import make_algorithm
    from repro.mapping.initial import make_layout
    from repro.mapping.reorder import reorder_ranks
    from repro.simmpi.engine import TimingEngine
    from repro.topology.gpc import gpc_cluster

    cluster = gpc_cluster(n_nodes)
    distances = cluster.implicit_distances()
    engine = TimingEngine(cluster)
    p = cluster.n_cores
    layouts = {name: make_layout(name, cluster, p) for name in LAYOUTS}
    bad = 0
    for (pattern, layout, key_seed), digests in mix.digests.items():
        solo = reorder_ranks(
            pattern, layouts[layout], distances, kind="heuristic", rng=key_seed, cache="off"
        )
        want = mapping_digest(solo.mapping)
        bad += sum(d != want for d in digests)
    for (pattern, layout), answers in mix.prices.items():
        schedule = make_algorithm(pattern).schedule(p)
        want = [float(t) for t in engine.evaluate_sizes(schedule, layouts[layout], SIZES).total_seconds]
        bad += sum(a != want for a in answers)
    return bad
