"""Self-timing harness: batched sweep pipeline vs. the naive per-point loop.

Every paper figure is a sweep over message sizes × layouts × mappers ×
restoration strategies, and for a fixed (schedule, mapping) the routes,
alpha-sums and per-link *unit* loads are size-independent — the batched
pipeline (``TimingEngine.evaluate_sizes`` + the evaluator's
``*_latencies`` methods) computes them once per algorithm partition
instead of once per point.  :func:`naive_sweep` is that pipeline's
oracle: it prices every point alone through ``TimingEngine.evaluate``
and applies the restoration rules itself.  This harness times both on
the same Fig. 3 sweep shape, cross-checks that they produce identical
latencies, and persists the measurement to ``BENCH_sweep.json`` so the
repo carries a perf trajectory across PRs.  ``python -m repro perf``
wraps it.

Both pipelines are timed with the one-time rank reorderings precomputed
(the paper's setting: "the whole rank reordering process happens only
once at run-time"), so the ratio isolates the pricing pipeline itself.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.bench.microbench import OSU_SIZES, SweepPoint, _sweep
from repro.collectives.correctness import (
    OrderStrategy,
    RankReordering,
    end_shuffle_seconds,
    init_comm_stage,
)
from repro.collectives.registry import pattern_of, select_allgather
from repro.collectives.schedule import Schedule
from repro.evaluation.evaluator import AllgatherEvaluator
from repro.mapping.initial import make_layout
from repro.mapping.reorder import HEURISTICS
from repro.topology.gpc import gpc_cluster
from repro.util.atomicio import atomic_write_text

__all__ = [
    "PerfReport",
    "naive_sweep",
    "run_perf",
    "DEFAULT_BENCH_PATH",
    "MAX_REL_DIFF",
    "MappingPerfCase",
    "MappingPerfReport",
    "run_mapping_perf",
    "DEFAULT_MAPPING_BENCH_PATH",
    "DEFAULT_NAIVE_MAX_P",
    "MAPPING_P_VALUES",
]

#: Where ``run_perf`` persists its measurement by default.
DEFAULT_BENCH_PATH = "BENCH_sweep.json"

#: Largest relative batched-vs-oracle latency difference ``repro perf``
#: accepts (floating-point reassociation only; both paths price the same
#: messages).
MAX_REL_DIFF = 1e-9

#: Where ``run_mapping_perf`` persists its measurement by default.
DEFAULT_MAPPING_BENCH_PATH = "BENCH_mappings.json"

#: Communicator sizes for the mapping-construction benchmark.  GPC is
#: 4096 cores; the 8192/16384 rows stress the vectorised driver past
#: the paper's machine size.
MAPPING_P_VALUES = (256, 1024, 4096, 8192, 16384)

#: Above this communicator size the per-query CorePool oracle (and its
#: dense O(n_cores^2) distance matrix) is skipped: naive at p=16384
#: would take minutes and allocate a multi-GiB matrix.  Rows above the
#: cutoff record ``naive_seconds``, ``speedup`` and ``mismatches`` as
#: null.
DEFAULT_NAIVE_MAX_P = 4096

#: Reduced grid for the CI smoke mode (still crosses the rd/ring
#: algorithm-selection threshold at 2 KiB).
QUICK_SIZES = [1, 16, 256, 1024, 4096, 65536, 262144]
QUICK_LAYOUTS = ["block-bunch", "cyclic-scatter"]

FULL_LAYOUTS = ["block-bunch", "block-scatter", "cyclic-bunch", "cyclic-scatter"]


@dataclass
class PerfReport:
    """Outcome of one batched-vs-naive sweep timing."""

    p: int
    n_nodes: int
    n_points: int
    naive_seconds: float
    batched_seconds: float
    speedup: float
    points_per_sec_naive: float
    points_per_sec_batched: float
    max_rel_diff: float          # batched vs naive point latencies
    sizes: List[int] = field(default_factory=list)
    layouts: List[str] = field(default_factory=list)
    mappers: List[str] = field(default_factory=list)
    strategies: List[str] = field(default_factory=list)
    quick: bool = False
    repeats: int = 1
    timestamp: float = 0.0
    python: str = ""
    #: Top cumulative-time hotspots of one batched sweep (``--profile``):
    #: ``{"ncalls", "tottime", "cumtime", "function"}`` per entry.
    profile_top: Optional[List[dict]] = None

    def summary(self) -> str:
        """Human-readable multi-line report (what ``repro perf`` prints)."""
        out = (
            f"perf: p={self.p}, {self.n_points} sweep points\n"
            f"  naive per-size loop : {self.naive_seconds:8.3f} s "
            f"({self.points_per_sec_naive:8.1f} points/s)\n"
            f"  batched pipeline    : {self.batched_seconds:8.3f} s "
            f"({self.points_per_sec_batched:8.1f} points/s)\n"
            f"  speedup             : {self.speedup:8.2f}x"
            f"\n  max rel. difference : {self.max_rel_diff:.3e}"
        )
        if self.profile_top:
            out += "\n\nbatched-pipeline hotspots (cumulative):"
            out += f"\n  {'ncalls':>10} {'tottime':>9} {'cumtime':>9}  function"
            for h in self.profile_top:
                out += (
                    f"\n  {h['ncalls']:>10} {h['tottime']:>9.4f} "
                    f"{h['cumtime']:>9.4f}  {h['function']}"
                )
        return out

    def write(self, path: Union[str, Path]) -> Path:
        """Persist the report as indented JSON; returns the path written.

        The write is atomic (tmp file + rename), so a perf run killed
        mid-write never leaves a torn ``BENCH_sweep.json`` behind.
        """
        path = Path(path)
        atomic_write_text(path, json.dumps(asdict(self), indent=2) + "\n")
        return path


def _restore_seconds(
    evaluator: AllgatherEvaluator,
    algorithm,
    reordering: RankReordering,
    strategy: str,
    block_bytes: float,
) -> float:
    """Per-call order-restoration cost of one point (paper §V-B).

    No reordering, or the ring's inline placement, costs nothing;
    initComm is one extra message stage priced on its own; endShfl is
    the local copy cost.
    """
    if reordering.is_identity() or getattr(algorithm, "supports_inline_placement", False):
        return 0.0
    strat = OrderStrategy.parse(strategy)
    if strat is OrderStrategy.INIT_COMM:
        stage = init_comm_stage(reordering)
        if stage is None:
            return 0.0
        pre = Schedule(p=reordering.p, stages=[stage], name="initcomm")
        return evaluator.engine.evaluate(pre, reordering.mapping, block_bytes).total_seconds
    if strat is OrderStrategy.END_SHUFFLE:
        return end_shuffle_seconds(reordering, block_bytes, evaluator.cost)
    raise ValueError(f"strategy {strat} not usable for {algorithm.name}")


def naive_sweep(
    evaluator: AllgatherEvaluator,
    p: int,
    layouts: Sequence[str],
    sizes: Sequence[int],
    mappers: Sequence[str],
    strategies: Sequence[str],
) -> List[SweepPoint]:
    """The reference pipeline: size loop outermost, every point priced alone.

    Each point re-selects the algorithm, rebuilds its schedule and
    re-prices it from scratch through :meth:`TimingEngine.evaluate`,
    then adds the restoration cost by the rules of
    :func:`_restore_seconds`.  Only the one-time reorderings
    (:meth:`AllgatherEvaluator.flat_reordering`) are shared with the
    batched pipeline; no evaluator latency method runs here, so this is
    the oracle the batched pipeline is checked and timed against.
    """
    engine = evaluator.engine
    points: List[SweepPoint] = []
    for lname in layouts:
        L = make_layout(lname, evaluator.cluster, p)
        for bb in sizes:
            alg = select_allgather(p, bb, evaluator.rd_threshold)
            base = engine.evaluate(alg.schedule(p), L, bb).total_seconds
            for mapper in mappers:
                res = evaluator.flat_reordering(L, pattern_of(alg), mapper)
                for strategy in strategies:
                    coll = engine.evaluate(alg.schedule(p), res.mapping, bb).total_seconds
                    restore = _restore_seconds(evaluator, alg, res.reordering, strategy, bb)
                    points.append(
                        SweepPoint(
                            layout=lname,
                            block_bytes=int(bb),
                            mapper=mapper,
                            strategy=strategy,
                            hierarchical=False,
                            intra="binomial",
                            algorithm=alg.name,
                            base_us=base * 1e6,
                            tuned_us=(coll + restore) * 1e6,
                        )
                    )
    return points


def _fresh_evaluator(
    n_nodes: int, reorder_cache=None, cache_routes: bool = True
) -> AllgatherEvaluator:
    """Evaluator on its own cluster (cold route/pricing caches).

    ``cache_routes=False`` turns the cluster-level route memoization off:
    the naive reference is timed that way because the pre-batching
    pipeline rebuilt every route table from scratch at every point.
    """
    ev = AllgatherEvaluator(gpc_cluster(n_nodes=n_nodes), rng=0)
    ev.cluster.cache_routes = cache_routes
    if reorder_cache is not None:
        ev._reorder_cache = dict(reorder_cache)
    return ev


def _profile_batched(
    n_nodes: int,
    reorder_cache,
    p: int,
    layouts: Sequence[str],
    sizes: Sequence[int],
    mappers: Sequence[str],
    strategies: Sequence[str],
    top: int = 20,
) -> List[dict]:
    """cProfile one batched sweep; return the top-N cumulative hotspots.

    Runs in-process on a fresh evaluator, so the numbers describe
    exactly the pipeline the ``batched_seconds`` timing measured.
    """
    import cProfile
    import pstats

    ev = _fresh_evaluator(n_nodes, reorder_cache)
    prof = cProfile.Profile()
    prof.enable()
    _sweep(ev, p, layouts, sizes, mappers, strategies, False, "binomial")
    prof.disable()
    stats = pstats.Stats(prof)
    stats.sort_stats("cumulative")
    hotspots: List[dict] = []
    for func in stats.fcn_list[:top]:  # (file, line, name), sorted by cumtime
        cc, nc, tt, ct, _ = stats.stats[func]
        fname, line, name = func
        where = name if fname == "~" else f"{Path(fname).name}:{line}({name})"
        hotspots.append(
            {
                "ncalls": f"{nc}/{cc}" if nc != cc else str(nc),
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
                "function": where,
            }
        )
    return hotspots


def _max_rel_diff(a: List[SweepPoint], b: List[SweepPoint]) -> float:
    worst = 0.0
    for pa, pb in zip(a, b):
        for va, vb in ((pa.base_us, pb.base_us), (pa.tuned_us, pb.tuned_us)):
            denom = max(abs(va), abs(vb), 1e-30)
            worst = max(worst, abs(va - vb) / denom)
    return worst


@dataclass
class MappingPerfCase:
    """Placement-executor comparison at one communicator size.

    ``naive_seconds`` / ``vectorized_seconds`` time the *whole*
    construction path a runtime would pay at startup: distance
    preparation (dense matrix vs. implicit backend) plus one mapping per
    registered heuristic.  ``*_map_seconds`` isolate the per-heuristic
    mapping time against a warm distance backend.  All numbers are
    minima over the run's repeats (the machines this runs on are noisy).

    Above the naive cutoff (:data:`DEFAULT_NAIVE_MAX_P`) the
    :class:`~repro.mapping.base.CorePool` oracle is skipped, so nothing
    is compared: ``naive_seconds``, ``naive_map_seconds``, ``speedup``
    and ``mismatches`` are all ``None``.
    """

    p: int
    n_nodes: int
    naive_seconds: Optional[float]
    vectorized_seconds: float
    speedup: Optional[float]         # naive_seconds / vectorized_seconds
    naive_map_seconds: Optional[dict]
    vectorized_map_seconds: dict
    mismatches: Optional[int]


@dataclass
class MappingPerfReport:
    """Outcome of one placement-executor benchmark run."""

    cases: List[MappingPerfCase]
    layout: str
    heuristics: List[str]
    repeats: int
    naive_max_p: int = DEFAULT_NAIVE_MAX_P
    quick: bool = False
    timestamp: float = 0.0
    python: str = ""

    def summary(self) -> str:
        """Human-readable table (what ``repro perf --mappings`` prints)."""
        lines = [
            f"mapping construction, layout={self.layout!r}, "
            f"{len(self.heuristics)} heuristics, best of {self.repeats}, "
            f"naive cutoff p<={self.naive_max_p}:",
            f"  {'p':>6} {'naive':>10} {'vectorized':>11} {'speedup':>8}  mismatches",
        ]
        for c in self.cases:
            if c.naive_seconds is None:
                naive, speedup, mismatches = f"{'-':>10}", f"{'-':>8}", "-"
            else:
                naive = f"{c.naive_seconds * 1e3:>8.1f}ms"
                speedup = f"{c.speedup:>7.2f}x"
                mismatches = str(c.mismatches)
            lines.append(
                f"  {c.p:>6} {naive} {c.vectorized_seconds * 1e3:>9.1f}ms "
                f"{speedup}  {mismatches}"
            )
        return "\n".join(lines)

    def write(self, path: Union[str, Path]) -> Path:
        """Persist as indented JSON (atomic write); returns the path."""
        path = Path(path)
        atomic_write_text(path, json.dumps(asdict(self), indent=2) + "\n")
        return path


def _mapping_case(
    p: int,
    patterns: Sequence[str],
    layout: str,
    repeats: int,
    naive_max_p: int = DEFAULT_NAIVE_MAX_P,
) -> MappingPerfCase:
    """Benchmark one communicator size through both placement executors."""
    n_nodes = max(1, -(-p // 8))  # gpc: 8 cores per node
    cluster = gpc_cluster(n_nodes=n_nodes)
    L = make_layout(layout, cluster, p)
    with_naive = p <= naive_max_p
    # The backend picks the executor: the dense matrix runs the CorePool
    # oracle, the implicit backend the vectorised HierarchicalFreePool.
    mappers = {name: HEURISTICS[name]() for name in patterns}

    # Placement identity first: the two executors must agree bit-for-bit.
    # Above the cutoff the dense matrix is unaffordable and nothing is
    # compared.
    impl = cluster.implicit_distances()
    D = cluster.distance_matrix() if with_naive else None
    mismatches: Optional[int] = 0 if with_naive else None
    if with_naive:
        for i, m in enumerate(mappers.values()):
            seed = 1000 + i
            oracle = m.map(L, D, rng=seed)
            mismatches += int(np.count_nonzero(oracle != m.map(L, impl, rng=seed)))

    # Construction timings include distance preparation on a *fresh*
    # cluster: the dense matrix is the oracle's startup cost, the
    # implicit backend's coordinate tables the vectorised driver's.
    naive_total: Optional[float] = float("inf") if with_naive else None
    vect_total = float("inf")
    for r in range(repeats):
        if with_naive:
            fresh = gpc_cluster(n_nodes=n_nodes)
            t0 = time.perf_counter()
            Dr = fresh.distance_matrix()
            for i, m in enumerate(mappers.values()):
                m.map(L, Dr, rng=r * 10 + i)
            naive_total = min(naive_total, time.perf_counter() - t0)

        fresh = gpc_cluster(n_nodes=n_nodes)
        t0 = time.perf_counter()
        ir = fresh.implicit_distances()
        for i, m in enumerate(mappers.values()):
            m.map(L, ir, rng=r * 10 + i)
        vect_total = min(vect_total, time.perf_counter() - t0)

    # Per-heuristic mapping time against warm backends.
    naive_map: Optional[dict] = {n: float("inf") for n in mappers} if with_naive else None
    vect_map = {name: float("inf") for name in mappers}
    for r in range(repeats):
        for i, (name, m) in enumerate(mappers.items()):
            seed = r * 10 + i
            if with_naive:
                t0 = time.perf_counter()
                m.map(L, D, rng=seed)
                naive_map[name] = min(naive_map[name], time.perf_counter() - t0)
            t0 = time.perf_counter()
            m.map(L, impl, rng=seed)
            vect_map[name] = min(vect_map[name], time.perf_counter() - t0)

    speedup: Optional[float] = None
    if with_naive:
        speedup = naive_total / vect_total if vect_total > 0 else float("inf")
    return MappingPerfCase(
        p=p,
        n_nodes=n_nodes,
        naive_seconds=naive_total,
        vectorized_seconds=vect_total,
        speedup=speedup,
        naive_map_seconds=naive_map,
        vectorized_map_seconds=vect_map,
        mismatches=mismatches,
    )


def run_mapping_perf(
    p_values: Optional[Sequence[int]] = MAPPING_P_VALUES,
    repeats: int = 5,
    layout: str = "block-bunch",
    patterns: Optional[Sequence[str]] = None,
    quick: bool = False,
    naive_max_p: int = DEFAULT_NAIVE_MAX_P,
    out_path: Optional[Union[str, Path]] = DEFAULT_MAPPING_BENCH_PATH,
) -> MappingPerfReport:
    """Time the placement executors against each other and persist the result.

    For each ``p`` the same five heuristics run on both distance
    backends, and so through both executors — the dense matrix through
    the per-query :class:`~repro.mapping.base.CorePool` oracle, the
    implicit backend through :meth:`HierarchicalFreePool.execute_program
    <repro.mapping.base.HierarchicalFreePool.execute_program>`.  The
    construction timing includes distance preparation, since avoiding
    the dense :math:`O(n_{cores}^2)` matrix is the implicit backend's
    point.  Placements must be bit-identical (``mismatches`` is asserted
    zero by the tier-1 tests); the oracle only runs for
    ``p <= naive_max_p``; ``quick=True`` shrinks to p=256 for CI.
    """
    if quick:
        p_values = [256]
        repeats = min(repeats, 2)
    p_values = [int(p) for p in (p_values if p_values is not None else MAPPING_P_VALUES)]
    if not p_values:
        raise ValueError("p_values must be non-empty")
    repeats = max(1, int(repeats))
    naive_max_p = int(naive_max_p)
    patterns = list(patterns) if patterns is not None else sorted(HEURISTICS)
    unknown = [pat for pat in patterns if pat not in HEURISTICS]
    if unknown:
        raise KeyError(f"unknown heuristic pattern(s) {unknown}")

    report = MappingPerfReport(
        cases=[
            _mapping_case(p, patterns, layout, repeats, naive_max_p) for p in p_values
        ],
        layout=layout,
        heuristics=patterns,
        repeats=repeats,
        naive_max_p=naive_max_p,
        quick=quick,
        timestamp=time.time(),
        python=platform.python_version(),
    )
    if out_path is not None:
        report.write(out_path)
    return report


def run_perf(
    n_nodes: int = 32,
    sizes: Optional[Sequence[int]] = None,
    layouts: Optional[Sequence[str]] = None,
    mappers: Sequence[str] = ("heuristic", "scotch"),
    strategies: Sequence[str] = ("initcomm", "endshfl"),
    quick: bool = False,
    repeats: int = 1,
    profile: bool = False,
    out_path: Optional[Union[str, Path]] = DEFAULT_BENCH_PATH,
) -> PerfReport:
    """Time the Fig. 3 sweep through both pipelines and persist the result.

    The default shape is the paper's Fig. 3 sweep (19 OSU sizes × 4
    layouts × {heuristic, scotch} × {initComm, endShfl}) at
    ``p = 8 * n_nodes``; ``quick=True`` shrinks the grid for CI smoke
    runs.  Rank reorderings are computed once up front and shared by both
    timed pipelines, mirroring the paper's one-time reordering cost.
    ``profile=True`` additionally cProfiles one (untimed) batched sweep
    and records the top-20 cumulative hotspots in ``profile_top``.
    """
    if quick:
        sizes = list(sizes if sizes is not None else QUICK_SIZES)
        layouts = list(layouts if layouts is not None else QUICK_LAYOUTS)
        mappers = list(mappers if mappers != ("heuristic", "scotch") else ["heuristic"])
        strategies = list(
            strategies if strategies != ("initcomm", "endshfl") else ["initcomm"]
        )
    else:
        sizes = list(sizes if sizes is not None else OSU_SIZES)
        layouts = list(layouts if layouts is not None else FULL_LAYOUTS)
        mappers = list(mappers)
        strategies = list(strategies)
    repeats = max(1, int(repeats))

    # One-time reordering warm-up (excluded from both timings).
    warm = _fresh_evaluator(n_nodes)
    p = warm.cluster.n_cores
    for lname in layouts:
        L = make_layout(lname, warm.cluster, p)
        for mapper in mappers:
            warm.reordered_latencies(L, sizes, mapper, strategies[0])

    naive_best = float("inf")
    batched_best = float("inf")
    naive_points: List[SweepPoint] = []
    batched_points: List[SweepPoint] = []
    for _ in range(repeats):
        ev_naive = _fresh_evaluator(n_nodes, warm._reorder_cache, cache_routes=False)
        t0 = time.perf_counter()
        naive_points = naive_sweep(ev_naive, p, layouts, sizes, mappers, strategies)
        naive_best = min(naive_best, time.perf_counter() - t0)

        ev_batched = _fresh_evaluator(n_nodes, warm._reorder_cache)
        t0 = time.perf_counter()
        batched_points = _sweep(
            ev_batched, p, layouts, sizes, mappers, strategies, False, "binomial"
        )
        batched_best = min(batched_best, time.perf_counter() - t0)

    hotspots: Optional[List[dict]] = None
    if profile:
        hotspots = _profile_batched(
            n_nodes, warm._reorder_cache, p, layouts, sizes, mappers, strategies
        )

    n_points = len(batched_points)
    report = PerfReport(
        p=p,
        n_nodes=n_nodes,
        n_points=n_points,
        naive_seconds=naive_best,
        batched_seconds=batched_best,
        speedup=naive_best / batched_best if batched_best > 0 else float("inf"),
        points_per_sec_naive=n_points / naive_best if naive_best > 0 else float("inf"),
        points_per_sec_batched=(
            n_points / batched_best if batched_best > 0 else float("inf")
        ),
        max_rel_diff=_max_rel_diff(naive_points, batched_points),
        sizes=[int(s) for s in sizes],
        layouts=list(layouts),
        mappers=list(mappers),
        strategies=list(strategies),
        quick=quick,
        repeats=repeats,
        timestamp=time.time(),
        python=platform.python_version(),
        profile_top=hotspots,
    )
    if out_path is not None:
        report.write(out_path)
    return report
