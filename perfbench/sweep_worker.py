"""One paper sweep in a fresh process: the unit the sweep workloads repeat.

Run by ``run.py``, never imported by it::

    python3 perfbench/sweep_worker.py --figure 3 --nodes 512 [--trace FILE]

Prints one JSON line: set-up time (imports, topology build, evaluator
start), sweep wall clock, the sweep's CSV as ``format_series_csv``
renders it, peak RSS and the mapping/pricing cache counters of the run.  With ``--trace`` the layer shims are installed
during set-up and the spans are written to FILE as a Chrome trace.
``--setup-only`` stops after set-up.  A fresh process per sweep keeps
"cold" cold: the evaluator's reorder cache, the cluster's route cache and
the process-global mapping cache all start empty; whether a disk tier is
used is decided by the caller through ``REPRO_MAPPING_CACHE``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: Message sizes at the tick labels of the paper's Fig. 3/4 x-axis.
SIZES = [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144]
FIG3_LAYOUTS = ("block-bunch", "block-scatter", "cyclic-bunch", "cyclic-scatter")
FIG4_LAYOUTS = ("block-bunch", "block-scatter")
FIG4_INTRA = ("binomial", "linear")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--figure", choices=("3", "4"), required=True)
    ap.add_argument("--nodes", type=int, default=512)
    ap.add_argument("--trace", default=None, help="write spans here (Chrome trace JSON)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        spans.install_shims(recorder)
    from repro.bench.microbench import sweep_hierarchical, sweep_nonhierarchical
    from repro.bench.report import format_series_csv
    from repro.evaluation.evaluator import AllgatherEvaluator
    from repro.mapping.cache import global_mapping_cache
    from repro.topology.gpc import gpc_cluster

    cluster = gpc_cluster(n_nodes=args.nodes)
    evaluator = AllgatherEvaluator(cluster, rng=0)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    p = cluster.n_cores
    cache0 = global_mapping_cache().stats()
    t0 = time.perf_counter()
    if args.figure == "3":
        points = sweep_nonhierarchical(evaluator, p, layouts=FIG3_LAYOUTS, sizes=SIZES)
    else:
        points = []
        for intra in FIG4_INTRA:
            points += sweep_hierarchical(
                evaluator, p, layouts=FIG4_LAYOUTS, sizes=SIZES, intra=intra
            )
    t1 = time.perf_counter()
    cache1 = global_mapping_cache().stats()
    pricing = evaluator.engine.pricing_cache_stats()
    out.update(
        sweep_s=t1 - t0,
        window=[t0, t1],
        points=len(points),
        csv=format_series_csv(points) + "\n",
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cache_hits=cache1["hits"] - cache0["hits"],
        cache_misses=cache1["misses"] - cache0["misses"],
        pricing_hits=pricing["hits"],
        pricing_misses=pricing["misses"],
    )
    if recorder is not None:
        spans.write_chrome_trace(recorder.spans, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
