"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

    python3 -m pytest perfbench -q

Covers the self-time arithmetic on synthetic spans, the output checks
(a corrupted sweep row and a tampered served mapping must count as
failures), and a shrunk-scale smoke run of every workload on an
8-node GPC.
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(CHECKOUT, "src"))

import run  # noqa: E402
import serve_mix  # noqa: E402
import spans  # noqa: E402

SMOKE_NODES = 8


def _span(name, start, end, parent=None, thread=0):
    sp = spans.Span(name, start, parent, thread)
    sp.end = end
    return sp


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    root = _span("evaluation", 0.0, 10.0)
    a = _span("mapping.scotch", 1.0, 3.0, root)
    b = _span("simmpi.pricing", 2.0, 5.0, root)  # overlaps a: union is [1, 5]
    c = _span("topology.routes", 8.0, 12.0, root)  # clipped to the parent's end
    grandchild = _span("topology.distances", 1.5, 2.5, a)
    own = spans.self_times([root, a, b, c, grandchild])
    assert own[id(root)] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[id(a)] == pytest.approx(2.0 - 1.0)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(grandchild)] == pytest.approx(1.0)


def test_summarize_counts_layer_entries_and_sums_self_time():
    root = _span("evaluation:reordered_latencies", 0.0, 10.0)
    outer = _span("mapping.heuristic:reorder_all", 1.0, 5.0, root)
    inner = _span("mapping.heuristic:RDMH.map", 2.0, 4.0, outer)
    rows = _span("topology.distances:row", 2.5, 3.0, inner)
    late = _span("mapping.heuristic:reorder_all", 20.0, 21.0)
    summary = spans.summarize([root, outer, inner, rows, late], window=(0.0, 10.0))
    heur = summary["mapping.heuristic"]
    assert heur["calls"] == 1  # reorder_all -> map is one entry; `late` is outside
    assert heur["self_s"] == pytest.approx(4.0 - 0.5)
    assert heur["total_s"] == pytest.approx(4.0)
    assert summary["evaluation"]["self_s"] == pytest.approx(6.0)
    assert summary["topology.distances"]["calls"] == 1
    total_self = sum(r["self_s"] for r in summary.values())
    assert total_self == pytest.approx(10.0)  # nested spans attribute every second once


def test_recorder_nests_per_thread_and_round_trips_chrome_trace(tmp_path):
    rec = spans.SpanRecorder()
    inner = rec.wrap(lambda: None, "simmpi.pricing:inner")
    outer = rec.wrap(lambda: inner(), "evaluation:outer")
    outer()
    t = threading.Thread(target=inner)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    by_name = {}
    for sp in rec.spans:
        by_name.setdefault(sp.name, []).append(sp)
    nested, lone = sorted(by_name["simmpi.pricing:inner"], key=lambda s: s.parent is None)
    assert nested.parent is by_name["evaluation:outer"][0]
    assert lone.parent is None  # the other thread had no open span

    path = tmp_path / "trace.json"
    spans.write_chrome_trace(rec.spans, path)
    trace = json.loads(path.read_text())
    assert {ev["ph"] for ev in trace["traceEvents"]} == {"X"}
    back = spans.spans_from_chrome(trace)
    assert [sp.name for sp in back] == [sp.name for sp in rec.spans]
    assert [sp.parent is None for sp in back] == [sp.parent is None for sp in rec.spans]


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def test_corrupted_sweep_row_counts_as_failure():
    with open(os.path.join(CHECKOUT, "results", "fig3_nonhierarchical.csv")) as fh:
        want = fh.read()
    assert run.csv_failures(want, want) == 0
    lines = want.splitlines(keepends=True)
    assert run.csv_failures("".join(lines[:-2]), want) == 2
    lines[7] = lines[7].replace(",", ";", 1)
    assert run.csv_failures("".join(lines), want) == 1
    assert run.csv_failures(want.rstrip("\n"), want) == 1


def test_tampered_served_mapping_counts_as_failure():
    from repro.mapping.initial import make_layout
    from repro.mapping.reorder import reorder_ranks
    from repro.topology.gpc import gpc_cluster

    cluster = gpc_cluster(SMOKE_NODES)
    layout = make_layout("cyclic-bunch", cluster, cluster.n_cores)
    good = reorder_ranks("ring", layout, cluster.implicit_distances(), rng=7, cache="off").mapping
    tampered = good.copy()
    tampered[[1, 2]] = tampered[[2, 1]]
    mix = serve_mix.MixResult()
    mix.digests[("ring", "cyclic-bunch", 7)] = [
        serve_mix.mapping_digest(good),
        serve_mix.mapping_digest(tampered),
        serve_mix.mapping_digest(good),
    ]
    assert serve_mix.audit(mix, SMOKE_NODES) == 1


def test_request_stream_is_deterministic_and_mixed():
    def take(seed, conn, n=2000):
        stream = serve_mix.request_stream(seed, conn)
        return [next(stream) for _ in range(n)]

    a = take(3, 0)
    assert a == take(3, 0)
    assert a != take(4, 0)
    reorders = [r for r in a if r[0] == "reorder"]
    assert 0.55 < len(reorders) / len(a) < 0.65
    seen, cold = set(), 0
    for r in reorders:
        cold += r[3] not in seen
        seen.add(r[3])
    assert 0.2 < cold / len(reorders) < 0.32
    other = {r[3] for r in take(3, 1) if r[0] == "reorder"}
    assert not other & seen  # connections never share a mapping seed


# ----------------------------------------------------------------------
# smoke: every workload, shrunk
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_results(tmp_path_factory):
    """Reference CSVs for the 8-node grid, from the sweep functions directly."""
    from repro.bench.microbench import sweep_hierarchical, sweep_nonhierarchical
    from repro.bench.report import format_series_csv
    from repro.evaluation.evaluator import AllgatherEvaluator
    from repro.mapping.cache import global_mapping_cache
    from repro.topology.gpc import gpc_cluster

    import sweep_worker

    global_mapping_cache().clear()
    cluster = gpc_cluster(SMOKE_NODES)
    p = cluster.n_cores
    ev = AllgatherEvaluator(cluster, rng=0)
    fig3 = sweep_nonhierarchical(ev, p, layouts=sweep_worker.FIG3_LAYOUTS, sizes=sweep_worker.SIZES)
    ev = AllgatherEvaluator(cluster, rng=0)
    fig4 = []
    for intra in sweep_worker.FIG4_INTRA:
        fig4 += sweep_hierarchical(
            ev, p, layouts=sweep_worker.FIG4_LAYOUTS, sizes=sweep_worker.SIZES, intra=intra
        )
    out = tmp_path_factory.mktemp("results")
    (out / run.REFERENCE_CSV["3"]).write_text(format_series_csv(fig3) + "\n")
    (out / run.REFERENCE_CSV["4"]).write_text(format_series_csv(fig4) + "\n")
    return out


def _bench(*argv, cwd=CHECKOUT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_workload(workload, trace, small_results):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                  "--trace", trace, "--nodes", str(SMOKE_NODES), "--results", str(small_results))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want = bench["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0


def test_wrong_reference_fails_the_run(small_results, tmp_path):
    bad = tmp_path / "results"
    shutil.copytree(small_results, bad)
    csv = bad / run.REFERENCE_CSV["4"]
    lines = csv.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace("Hrstc", "Hrstx")
    csv.write_text("".join(lines))
    proc = _bench("--workload", "fig4-hier", "--seconds", "0.1",
                  "--nodes", str(SMOKE_NODES), "--results", str(bad))
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == run.MIN_SWEEPS


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "fig3-cold", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout
