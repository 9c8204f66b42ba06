"""Paper-scale benchmark: the Fig. 3/4 sweeps and a serve mix at p=4096.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig3-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Workloads (all on ``gpc_cluster(512)``, p=4096):

* ``fig3-cold``: the Fig. 3 grid (160 points), each sweep in a fresh
  process with no mapping-cache disk tier;
* ``fig3-warm``: the same grid, mappings loaded from a disk tier that
  one sweep of the code under test primed at the start of the run;
* ``fig4-hier``: the Fig. 4 hierarchical grid (160 points);
* ``serve-mix``: a closed-loop reorder/price mix against ``repro
  serve`` (see ``serve_mix.py``).

The sweep inputs are the paper's fixed grid, because each sweep's
``format_series_csv`` output is checked byte for byte against
``results/``; the seed only shapes the ``serve-mix`` request stream.

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
runs the same work once untraced and once with layer shims installed,
and prints the per-layer breakdown and the tracing overhead.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 1 when any output was wrong, 2 when the
checkout lacks the program or its reference results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(CHECKOUT, "src")
OUT_DIR = os.path.join(CHECKOUT, ".perfbench_out")
TMP_ROOT = os.path.join(CHECKOUT, ".perfbench_tmp")

WORKLOADS = ("fig3-cold", "fig3-warm", "fig4-hier", "serve-mix")
REFERENCE_CSV = {"3": "fig3_nonhierarchical.csv", "4": "fig4_hierarchical.csv"}
#: Sweeps per untraced run, at least, whatever ``--seconds`` says.
MIN_SWEEPS = 4
#: Set-up samples per run (sweep workers plus set-up-only workers).
SETUP_SAMPLES = 7
#: Daemon starts per serve-mix run (the last one is measured).
SERVE_SETUPS = 5
WORKER_TIMEOUT = 170.0
#: Environment variables that change what the code under test does.
SCRUBBED_ENV = ("REPRO_MAPPING_CACHE", "REPRO_VERIFY", "REPRO_NO_NUMBA")

sys.path.insert(0, BENCH_DIR)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (program or references missing)."""


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
def child_env(cache_dir: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    if cache_dir is not None:
        env["REPRO_MAPPING_CACHE"] = cache_dir
    return env


def run_worker(figure: str, nodes: int, env: Dict[str, str], trace: Optional[str] = None,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "sweep_worker.py"),
           "--figure", figure, "--nodes", str(nodes)]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def csv_failures(got: str, want: str) -> int:
    """Rows of ``got`` that differ from ``want`` (header excluded).

    A byte difference that no row comparison shows (line endings, a
    missing final newline) counts as one failure.
    """
    g, w = got.splitlines()[1:], want.splitlines()[1:]
    bad = sum(a != b for a, b in zip(g, w)) + abs(len(g) - len(w))
    if bad == 0 and got != want:
        bad = 1
    return bad


def percentile_ms(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values) * 1e3, q))


def hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The span-derived per-layer metrics (counters are added by callers)."""
    return {
        "mapping.scotch.calls": summary["mapping.scotch"]["calls"],
        "mapping.scotch.self_s": summary["mapping.scotch"]["self_s"],
        "mapping.heuristic.calls": summary["mapping.heuristic"]["calls"],
        "mapping.heuristic.self_s": summary["mapping.heuristic"]["self_s"],
        "mapping.cache.load_s": summary["mapping.cache"]["self_s"],
        "topology.routes.calls": summary["topology.routes"]["calls"],
        "topology.routes.self_s": summary["topology.routes"]["self_s"],
        "topology.distance_rows": summary["topology.distances"]["calls"],
        "topology.distances.self_s": summary["topology.distances"]["self_s"],
        "collectives.schedule.calls": summary["collectives.schedule"]["calls"],
        "collectives.schedule.self_s": summary["collectives.schedule"]["self_s"],
        "simmpi.pricing.calls": summary["simmpi.pricing"]["calls"],
        "simmpi.pricing.self_s": summary["simmpi.pricing"]["self_s"],
        "evaluation.self_s": summary["evaluation"]["self_s"],
        "serve.service_s": summary["serve.service"]["self_s"],
    }


def load_spans(path: str):
    import spans

    with open(path) as fh:
        return spans.spans_from_chrome(json.load(fh))


# ----------------------------------------------------------------------
# sweep workloads
# ----------------------------------------------------------------------
def run_sweeps(name: str, args, tmp: str) -> dict:
    figure = "3" if name.startswith("fig3") else "4"
    with open(os.path.join(args.results, REFERENCE_CSV[figure])) as fh:
        reference = fh.read()
    env = child_env()
    attempted = failed = 0
    if name == "fig3-warm":
        # Prime the disk tier once, with the code under test; not timed.
        env = child_env(tempfile.mkdtemp(prefix="mapcache-", dir=tmp))
        prime = run_worker(figure, args.nodes, env)
        attempted += prime["points"]
        failed += csv_failures(prime["csv"], reference)

    def sweep(trace: Optional[str] = None) -> dict:
        nonlocal attempted, failed
        res = run_worker(figure, args.nodes, env, trace=trace)
        attempted += res["points"]
        failed += csv_failures(res["csv"], reference)
        return res

    if args.trace:
        import spans

        plain = sweep()
        trace_path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}.trace.json")
        traced = sweep(trace=trace_path)
        summary = spans.summarize(load_spans(trace_path), window=traced["window"])
        metrics = layer_metrics(summary)
        metrics.update({
            "mapping.cache.hits": traced["cache_hits"],
            "mapping.cache.misses": traced["cache_misses"],
            "mapping.cache.hit_ratio": hit_ratio(traced["cache_hits"], traced["cache_misses"]),
            "simmpi.pricing_cache.hit_ratio": hit_ratio(
                traced["pricing_hits"], traced["pricing_misses"]),
            "serve.wait_s": 0.0,
            "serve.coalesced": 0,
            "serve.batched": 0,
            "serve.warm_inline": 0,
            "unattributed_s": traced["sweep_s"] - sum(r["self_s"] for r in summary.values()),
            "tracing.wall_s": traced["sweep_s"],
            "tracing.overhead_s": traced["sweep_s"] - plain["sweep_s"],
        })
        meta = {"points_per_sweep": traced["points"], "untraced_wall_s": plain["sweep_s"],
                "trace_file": os.path.relpath(trace_path)}
    else:
        runs: List[dict] = []
        t_start = time.perf_counter()
        while len(runs) < MIN_SWEEPS or time.perf_counter() - t_start < args.seconds:
            runs.append(sweep())
        setups = [r["setup_s"] for r in runs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(figure, args.nodes, env, setup_only=True)["setup_s"])
        # A sweep workload's request is one whole sweep: the figure a user
        # asks for.  Its grid cells are too unlike each other (a Scotch
        # map versus a cached lookup) for their percentiles to be steady.
        sweep_s = [r["sweep_s"] for r in runs]
        metrics = {
            "setup_s": statistics.median(setups),
            "points_per_s": statistics.median(r["points"] / r["sweep_s"] for r in runs),
            "req_per_s": 1.0 / statistics.median(sweep_s),
            "latency_p50_ms": percentile_ms(sweep_s, 50),
            "latency_p99_ms": percentile_ms(sweep_s, 99),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        }
        meta = {"points_per_sweep": runs[0]["points"], "sweep_s": sweep_s,
                "latency_samples": len(sweep_s), "setup_samples": len(setups),
                "request": "one whole sweep"}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "meta": meta}


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
def run_serve(args, tmp: str) -> dict:
    import serve_mix
    from repro.serve.client import ServeClient

    env = child_env()
    spec = {"kind": "gpc", "n_nodes": args.nodes}
    workdir = os.path.relpath(tmp, CHECKOUT)
    n_daemons = [0]

    def start(trace_path: Optional[str] = None):
        """Daemon start plus topology registration: the set-up being timed."""
        n_daemons[0] += 1
        t0 = time.perf_counter()
        daemon = serve_mix.Daemon(BENCH_DIR, workdir, env, f"d{n_daemons[0]}", trace_path)
        try:
            with ServeClient(socket_path=daemon.socket_path) as client:
                fingerprint = client.register_topology(spec)["fingerprint"]
        except BaseException:
            daemon.stop()
            raise
        return daemon, fingerprint, time.perf_counter() - t0

    def stats(daemon) -> dict:
        with ServeClient(socket_path=daemon.socket_path) as client:
            return client.stats()

    def measured(trace_path=None, counts=None):
        daemon, fingerprint, setup_s = start(trace_path)
        try:
            before = stats(daemon)
            mix = serve_mix.drive(daemon.socket_path, fingerprint, args.seed,
                                  seconds=args.seconds, counts=counts)
            after = stats(daemon)
        finally:
            report = daemon.stop()
        return mix, before, after, report, setup_s

    setups = []
    for _ in range(SERVE_SETUPS - 1):
        daemon, _, setup_s = start()
        daemon.stop()
        setups.append(setup_s)
    mix, _, _, report, setup_s = measured()
    setups.append(setup_s)
    attempted, failed = mix.attempted, mix.failed + serve_mix.audit(mix, args.nodes)
    meta = {"connections": serve_mix.CONNECTIONS, "loop": "closed",
            "latency_samples": mix.attempted, "requests_per_connection": mix.counts,
            "distinct_mappings": len(mix.digests), "setup_samples": len(setups)}

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "points_per_s": mix.price_points / mix.wall_s,
            "req_per_s": mix.attempted / mix.wall_s,
            "latency_p50_ms": percentile_ms(mix.latencies, 50),
            "latency_p99_ms": percentile_ms(mix.latencies, 99),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed, "meta": meta}

    import spans

    trace_path = os.path.join(OUT_DIR, f"serve-mix-seed{args.seed}.trace.json")
    traced, t_before, t_after, _, _ = measured(trace_path, counts=mix.counts)
    attempted += traced.attempted
    failed += traced.failed + serve_mix.audit(traced, args.nodes)
    summary = spans.summarize(load_spans(trace_path), window=traced.window)
    metrics = layer_metrics(summary)
    wait_s = sum(traced.latencies) - summary["serve.service"]["total_s"]
    cache0, cache1 = t_before["mapping_cache"], t_after["mapping_cache"]
    price0 = t_before["registry"]["topologies"][0]["pricing"]
    price1 = t_after["registry"]["topologies"][0]["pricing"]
    hits, misses = cache1["hits"] - cache0["hits"], cache1["misses"] - cache0["misses"]
    connection_s = serve_mix.CONNECTIONS * traced.wall_s
    metrics.update({
        "mapping.cache.hits": hits,
        "mapping.cache.misses": misses,
        "mapping.cache.hit_ratio": hit_ratio(hits, misses),
        "simmpi.pricing_cache.hit_ratio": hit_ratio(
            price1["hits"] - price0["hits"], price1["misses"] - price0["misses"]),
        "serve.wait_s": wait_s,
        "serve.coalesced": t_after["coalesced"] - t_before["coalesced"],
        "serve.batched": t_after["batched"] - t_before["batched"],
        "serve.warm_inline": t_after["warm_inline"] - t_before["warm_inline"],
        "unattributed_s": connection_s - wait_s - sum(r["self_s"] for r in summary.values()),
        "tracing.wall_s": traced.wall_s,
        "tracing.overhead_s": traced.wall_s - mix.wall_s,
    })
    meta.update(untraced_wall_s=mix.wall_s, traced_connection_s=connection_s,
                trace_file=os.path.relpath(trace_path))
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "meta": meta}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
UNITS = {
    "setup_s": "s", "points_per_s": "1/s", "req_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "peak_rss_mb": "MB",
}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("hit_ratio"):
        return "ratio"
    return "count"


def run_metadata(args, name: str, meta: dict) -> dict:
    import numpy
    from repro.util.jit import HAS_NUMBA

    cores = len(os.sched_getaffinity(0))
    connections = meta.get("connections", 0)
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nodes": args.nodes,
        "p": args.nodes * 8,
        "cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": "numba" if HAS_NUMBA else "vectorized-fallback",
        "connections_exceed_cores": connections > cores,
        "inputs": "fixed paper grid" if name != "serve-mix" else f"stream from seed {args.seed}",
        **meta,
    }


def run_workload(name: str, args) -> dict:
    os.makedirs(TMP_ROOT, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_ROOT)
    try:
        if name == "serve-mix":
            res = run_serve(args, tmp)
        else:
            res = run_sweeps(name, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    res["meta"] = run_metadata(args, name, res["meta"])
    res["meta"]["error_rate"] = res["failed"] / max(res["attempted"], 1)
    record = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{int(bool(args.trace))}.json")
    with open(record, "w") as fh:
        json.dump(res, fh, indent=1)
    return res


def preflight(args) -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no repro package under {SRC}")
    for name in REFERENCE_CSV.values():
        if not os.path.isfile(os.path.join(args.results, name)):
            raise SetupError(f"reference {name} missing from {args.results}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SetupError(f"repro resolves to {repro.__file__}, not to {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--nodes", type=int, default=512,
                    help="GPC nodes (8 cores each); the references in results/ need 512")
    ap.add_argument("--results", default=os.path.join(CHECKOUT, "results"),
                    help="directory holding the reference sweep CSVs")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so running workers are killed,
    # daemons drained and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Removed for this process and every child, so the audit, the
    # workers and the daemon all run the same configuration.
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    os.chdir(CHECKOUT)
    try:
        preflight(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for name in names:
        res = run_workload(name, args)
        attempted += res["attempted"]
        failed += res["failed"]
        print(json.dumps({"meta": res["meta"]}, sort_keys=True))
        for metric, value in res["metrics"].items():
            unit = unit_of(metric)
            print(f"{name:10s} {metric:32s} {value:14.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        print(f"{name:10s} {'error_rate':32s} {res['meta']['error_rate']:14.6g} ratio "
              f"({res['failed']} of {res['attempted']} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
