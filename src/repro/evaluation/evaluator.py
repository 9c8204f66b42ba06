"""The paper's measurement pipeline (§VI) as a reusable object.

For a given cluster, initial layout and per-rank message size the
evaluator:

1. selects the allgather algorithm the way MVAPICH would (recursive
   doubling / Bruck below the size threshold, ring above; hierarchical
   variants with RD/ring leader exchanges);
2. computes a rank reordering with the requested mapper (the paper's
   fine-tuned heuristics, the Scotch-like baseline, or the greedy
   baseline) — cached per (pattern, layout, mapper), since "the whole
   rank reordering process happens only once at run-time";
3. prices the collective under the reordered mapping, plus the
   order-restoration mechanism (initComm priced as one extra message
   stage, endShfl as local copies, the ring's inline fix as free);
4. reports latency and percentage improvement over the default mapping.

For hierarchical allgather, reordering is applied "to node-leaders and
local processes separately" (paper §VI-A2): the intra-node permutation
comes from BGMH over each node's cores (the gather phase dominates the
intra-node gains, Fig. 4(b) commentary) and the leader permutation from
RDMH/RMH over the leader cores; with linear intra-node phases there is no
intra-node pattern to optimise and only leaders are reordered.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collectives.correctness import (
    OrderStrategy,
    RankReordering,
    end_shuffle_seconds,
    init_comm_stage,
)
from repro.collectives.hierarchical import HierarchicalAllgather
from repro.collectives.registry import (
    DEFAULT_RD_THRESHOLD_BYTES,
    pattern_of,
    select_allgather,
    select_hierarchical_allgather,
)
from repro.collectives.schedule import Schedule
from repro.mapping.base import Mapper
from repro.mapping.bgmh import BGMH
from repro.mapping.greedy import GreedyGraphMapper
from repro.mapping.patterns import build_pattern
from repro.mapping.reorder import ReorderResult, reorder_all, reorder_ranks
from repro.mapping.scotch import ScotchLikeMapper
from repro.simmpi.costmodel import CostModel
from repro.simmpi.engine import TimingEngine
from repro.topology.cluster import ClusterTopology
from repro.util.bits import is_power_of_two
from repro.util.rng import RngLike, make_rng

__all__ = ["AllgatherEvaluator", "LatencyReport"]


@dataclass
class LatencyReport:
    """Latency of one allgather configuration.

    ``seconds`` is what a micro-benchmark loop would time: collective plus
    per-call order restoration.  ``reorder_seconds`` is the one-time
    mapping overhead, reported separately (as in the paper's Fig. 7) so
    micro-benchmarks exclude it while application runs amortise it.
    """

    seconds: float
    algorithm: str
    strategy: str
    collective_seconds: float
    restore_seconds: float = 0.0
    reorder_seconds: float = 0.0
    mapper: str = "none"

    def __str__(self) -> str:
        return (
            f"{self.algorithm} [{self.mapper}/{self.strategy}] "
            f"{self.seconds * 1e6:.1f} us"
        )


def _layout_key(layout: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(layout).tobytes()).hexdigest()


def _seed_for(*parts) -> int:
    """Deterministic, order-independent seed from the cache key.

    Tie-breaking stays "random" in the paper's sense but no longer
    depends on how many reorderings were computed before this one, so
    results are stable under any evaluation order.
    """
    blob = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha1(blob).digest()[:4], "big")


class AllgatherEvaluator:
    """Prices MPI_Allgather on a simulated cluster under rank reordering."""

    def __init__(
        self,
        cluster: ClusterTopology,
        cost_model: Optional[CostModel] = None,
        rd_threshold: float = DEFAULT_RD_THRESHOLD_BYTES,
        intra_heuristic: str = "bgmh",
        rng: RngLike = 0,
    ) -> None:
        if intra_heuristic not in ("bgmh", "bbmh"):
            raise ValueError(
                f"intra_heuristic must be 'bgmh' or 'bbmh', got {intra_heuristic!r}"
            )
        self.cluster = cluster
        self.cost = cost_model if cost_model is not None else CostModel()
        self.engine = TimingEngine(cluster, self.cost)
        self.rd_threshold = rd_threshold
        self.intra_heuristic = intra_heuristic
        self.rng = make_rng(rng)
        # Mapping-facing distances: the implicit backend computes rows on
        # demand (no dense n_cores x n_cores materialisation) and carries
        # the topology fingerprint that keys the mapping cache.
        self.distances = cluster.implicit_distances()
        self._D: Optional[np.ndarray] = None
        self._reorder_cache: Dict[Tuple, object] = {}
        self._schedule_cache: Dict[Tuple, Schedule] = {}

    @property
    def D(self) -> np.ndarray:
        """Dense distance matrix (materialised lazily, for legacy callers)."""
        if self._D is None:
            self._D = self.cluster.distance_matrix()
        return self._D

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def groups_from_layout(self, layout: Sequence[int]) -> List[List[int]]:
        """Node communicators: ranks grouped by hosting node, rank order.

        Mirrors what an MPI library's shared-memory communicator split
        produces (lowest world rank on each node becomes the leader).
        """
        L = np.asarray(layout, dtype=np.int64)
        nodes = self.cluster.node_of(L)
        groups: Dict[int, List[int]] = {}
        for rank in range(L.size):
            groups.setdefault(int(nodes[rank]), []).append(rank)
        return [groups[n] for n in sorted(groups)]

    def _restore_sizes(
        self,
        strat: OrderStrategy,
        algorithm,
        reordering: RankReordering,
        sizes: Sequence[float],
    ) -> Tuple[str, np.ndarray]:
        """Effective restoration strategy and its per-call cost at each size.

        Identity and the ring's inline fix cost nothing; initComm is
        priced as one extra message stage, endShfl as local copies.
        """
        zeros = np.zeros(len(sizes), dtype=np.float64)
        if reordering.is_identity():
            return OrderStrategy.NONE.value, zeros
        if getattr(algorithm, "supports_inline_placement", False):
            return OrderStrategy.INLINE.value, zeros
        if strat is OrderStrategy.INIT_COMM:
            stage = init_comm_stage(reordering)
            if stage is None:
                return OrderStrategy.NONE.value, zeros
            pre = Schedule(p=reordering.p, stages=[stage], name="initcomm")
            batch = self.engine.evaluate_sizes(pre, reordering.mapping, sizes)
            return strat.value, batch.total_seconds
        if strat is OrderStrategy.END_SHUFFLE:
            costs = np.array(
                [end_shuffle_seconds(reordering, bb, self.cost) for bb in sizes]
            )
            return strat.value, costs
        raise ValueError(f"strategy {strat} not usable for {algorithm.name}")

    # ------------------------------------------------------------------
    # batched (multi-size) pipeline
    # ------------------------------------------------------------------
    def _schedule_for(self, algorithm, p: int, extra_key: Tuple = ()) -> Schedule:
        """Build-once cache of compiled schedules.

        Flat algorithms are fully determined by (name, p); hierarchical
        ones also depend on their group structure, which callers encode in
        ``extra_key``.
        """
        key = (algorithm.name, p) + tuple(extra_key)
        sched = self._schedule_cache.get(key)
        if sched is None:
            sched = algorithm.schedule(p)
            self._schedule_cache[key] = sched
        return sched

    @staticmethod
    def _group_sizes(keys: Sequence) -> List[Tuple[object, List[int]]]:
        """Group size indices by selection key, preserving first-seen order."""
        groups: Dict[object, List[int]] = {}
        order: List[object] = []
        for i, k in enumerate(keys):
            if k not in groups:
                groups[k] = []
                order.append(k)
            groups[k].append(i)
        return [(k, groups[k]) for k in order]

    def default_latencies(
        self,
        layout: Sequence[int],
        sizes: Sequence[float],
        hierarchical: bool = False,
        intra: str = "binomial",
    ) -> List[LatencyReport]:
        """Latency of the MVAPICH-style default under the raw layout.

        One report per entry of ``sizes``.  Sizes are partitioned by the
        algorithm MVAPICH-style selection picks for them; each partition
        is priced with a single :meth:`TimingEngine.evaluate_sizes` call
        over a build-once schedule, so routes and unit loads are computed
        once per algorithm instead of once per size.
        """
        L = np.asarray(layout, dtype=np.int64)
        p = L.size
        sizes = list(sizes)
        out: List[Optional[LatencyReport]] = [None] * len(sizes)
        if hierarchical:
            groups = self.groups_from_layout(L)
            algs = [
                select_hierarchical_allgather(groups, bb, intra, self.rd_threshold)
                for bb in sizes
            ]
            extra_key = (_layout_key(L), "default")
        else:
            algs = [select_allgather(p, bb, self.rd_threshold) for bb in sizes]
            extra_key = ()
        for name, idxs in self._group_sizes([a.name for a in algs]):
            alg = algs[idxs[0]]
            sched = self._schedule_for(alg, p, extra_key)
            batch = self.engine.evaluate_sizes(sched, L, [sizes[i] for i in idxs])
            for j, i in enumerate(idxs):
                coll = float(batch.total_seconds[j])
                out[i] = LatencyReport(
                    seconds=coll,
                    algorithm=name,
                    strategy=OrderStrategy.NONE.value,
                    collective_seconds=coll,
                )
        return out  # type: ignore[return-value]

    def reordered_latencies(
        self,
        layout: Sequence[int],
        sizes: Sequence[float],
        kind: str = "heuristic",
        strategy: str = "initcomm",
        hierarchical: bool = False,
        intra: str = "binomial",
    ) -> List[LatencyReport]:
        """Latency under topology-aware rank reordering, per size.

        Reorderings are computed once per (pattern, layout, mapper) with
        a seed derived from that key, and cached; schedules and
        route/unit-load pricing tables are built once per algorithm
        partition rather than once per size.
        """
        L = np.asarray(layout, dtype=np.int64)
        strat = OrderStrategy.parse(strategy)
        sizes = list(sizes)
        if hierarchical:
            rng = _seed_for("reorder", _layout_key(L), kind, hierarchical, intra)
            return self._hierarchical_reordered_batch(L, sizes, kind, strat, intra, rng)
        return self._flat_reordered_batch(L, sizes, kind, strat, intra)

    def default_latency(
        self,
        layout: Sequence[int],
        block_bytes: float,
        hierarchical: bool = False,
        intra: str = "binomial",
    ) -> LatencyReport:
        """:meth:`default_latencies` at one size."""
        return self.default_latencies(layout, [block_bytes], hierarchical, intra)[0]

    def reordered_latency(
        self,
        layout: Sequence[int],
        block_bytes: float,
        kind: str = "heuristic",
        strategy: str = "initcomm",
        hierarchical: bool = False,
        intra: str = "binomial",
    ) -> LatencyReport:
        """:meth:`reordered_latencies` at one size."""
        return self.reordered_latencies(
            layout, [block_bytes], kind, strategy, hierarchical, intra
        )[0]

    def flat_reordering(
        self,
        layout: Sequence[int],
        pattern: str,
        kind: str = "heuristic",
        intra: str = "binomial",
    ) -> ReorderResult:
        """The one-time reordering of ``layout`` for a flat ``pattern``.

        Computed on first use with a seed derived from (layout, kind,
        intra) and cached per (pattern, layout, mapper), since "the whole
        rank reordering process happens only once at run-time".
        """
        L = np.asarray(layout, dtype=np.int64)
        lk = _layout_key(L)
        key = ("flat", pattern, lk, kind)
        res: ReorderResult = self._reorder_cache.get(key)  # type: ignore[assignment]
        if res is None:
            rng = _seed_for("reorder", lk, kind, False, intra)
            res = reorder_ranks(pattern, L, self.distances, kind=kind, rng=rng)
            self._reorder_cache[key] = res
        return res

    def _flat_reordered_batch(
        self,
        L: np.ndarray,
        sizes: List[float],
        kind: str,
        strat: OrderStrategy,
        intra: str,
    ) -> List[LatencyReport]:
        p = L.size
        out: List[Optional[LatencyReport]] = [None] * len(sizes)
        algs = [select_allgather(p, bb, self.rd_threshold) for bb in sizes]
        lk = _layout_key(L)
        groups = list(self._group_sizes([a.name for a in algs]))
        if kind == "heuristic":
            # All heuristic reorderings this size vector needs, computed
            # in one batched pass (shared fingerprinting, cache keys and
            # pool structure) instead of one reorder_ranks call each.
            needed = []
            for name, idxs in groups:
                pattern = pattern_of(algs[idxs[0]])
                if (
                    ("flat", pattern, lk, kind) not in self._reorder_cache
                    and pattern not in needed
                ):
                    needed.append(pattern)
            if needed:
                rng = _seed_for("reorder", lk, kind, False, intra)
                for pt, res in reorder_all(
                    L, self.distances, patterns=needed, rng=rng
                ).items():
                    self._reorder_cache[("flat", pt, lk, kind)] = res
        for name, idxs in groups:
            alg = algs[idxs[0]]
            res = self.flat_reordering(L, pattern_of(alg), kind, intra)
            sub = [sizes[i] for i in idxs]
            sched = self._schedule_for(alg, p)
            batch = self.engine.evaluate_sizes(sched, res.mapping, sub)
            strategy_name, restores = self._restore_sizes(
                strat, alg, res.reordering, sub
            )
            for j, i in enumerate(idxs):
                coll = float(batch.total_seconds[j])
                out[i] = LatencyReport(
                    seconds=coll + float(restores[j]),
                    algorithm=name,
                    strategy=strategy_name,
                    collective_seconds=coll,
                    restore_seconds=float(restores[j]),
                    reorder_seconds=res.total_seconds,
                    mapper=res.mapper_name,
                )
        return out  # type: ignore[return-value]

    def _hierarchical_reordered_batch(
        self,
        L: np.ndarray,
        sizes: List[float],
        kind: str,
        strat: OrderStrategy,
        intra: str,
        rng: RngLike,
    ) -> List[LatencyReport]:
        G = len(self.groups_from_layout(L))
        out: List[Optional[LatencyReport]] = [None] * len(sizes)
        leader_algs = [
            "rd" if bb < self.rd_threshold and is_power_of_two(G) else "ring"
            for bb in sizes
        ]
        for leader_alg, idxs in self._group_sizes(leader_algs):
            leader_pattern = (
                "recursive-doubling" if leader_alg == "rd" else "ring"
            )
            key = ("hier", leader_pattern, intra, self.intra_heuristic, _layout_key(L), kind)
            cached = self._reorder_cache.get(key)
            if cached is None:
                cached = self._hierarchical_reordering(L, kind, intra, leader_pattern, rng)
                self._reorder_cache[key] = cached
            reordering, groups_new, overhead = cached  # type: ignore[misc]

            alg = HierarchicalAllgather(groups_new, leader_alg=leader_alg, intra=intra)
            sub = [sizes[i] for i in idxs]
            sched = self._schedule_for(
                alg, L.size, (_layout_key(L), kind, self.intra_heuristic)
            )
            batch = self.engine.evaluate_sizes(sched, reordering.mapping, sub)
            strategy_name, restores = self._restore_sizes(strat, alg, reordering, sub)
            for j, i in enumerate(idxs):
                coll = float(batch.total_seconds[j])
                out[i] = LatencyReport(
                    seconds=coll + float(restores[j]),
                    algorithm=alg.name,
                    strategy=strategy_name,
                    collective_seconds=coll,
                    restore_seconds=float(restores[j]),
                    reorder_seconds=overhead,
                    mapper=kind,
                )
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # fault recovery (batched)
    # ------------------------------------------------------------------
    def recovery_latencies(
        self,
        layout: Sequence[int],
        sizes: Sequence[float],
        failed_nodes: Sequence[int],
        kind: str = "heuristic",
        policy: str = "shrink-remap",
    ) -> List[LatencyReport]:
        """Batched allgather latency after node failures, per policy.

        ``policy`` is one of ``repro.faults.recover.RECOVERY_POLICIES``:
        ``"fail-stop"`` reports the abort (infinite latency),
        ``"shrink-keep"`` prices the survivors under their old binding
        with the holes closed up, and ``"shrink-remap"`` re-runs the
        ``kind`` mapper on the surviving core pool and adopts the remap
        wherever it prices no slower than keeping the old mapping.
        Sizes are partitioned by algorithm and priced through the same
        batched pipeline as :meth:`reordered_latencies`.
        """
        from repro.faults.shrink import shrink_layout

        if policy not in ("fail-stop", "shrink-keep", "shrink-remap"):
            raise ValueError(f"unknown recovery policy {policy!r}")
        sizes = list(sizes)
        if policy == "fail-stop":
            return [
                LatencyReport(
                    seconds=float("inf"),
                    algorithm="aborted",
                    strategy="fail-stop",
                    collective_seconds=float("inf"),
                )
                for _ in sizes
            ]
        survivors = shrink_layout(self.cluster, layout, failed_nodes)
        p = survivors.size
        out: List[Optional[LatencyReport]] = [None] * len(sizes)
        algs = [select_allgather(p, bb, self.rd_threshold) for bb in sizes]
        for name, idxs in self._group_sizes([a.name for a in algs]):
            alg = algs[idxs[0]]
            sub = [sizes[i] for i in idxs]
            sched = self._schedule_for(alg, p)
            keep = self.engine.evaluate_sizes(sched, survivors, sub).total_seconds
            mapper = "keep"
            seconds = keep
            if policy == "shrink-remap":
                pattern = pattern_of(alg)
                key = ("recover", pattern, _layout_key(survivors), kind)
                res: ReorderResult = self._reorder_cache.get(key)  # type: ignore[assignment]
                if res is None:
                    res = reorder_ranks(
                        pattern,
                        survivors,
                        self.distances,
                        kind=kind,
                        rng=_seed_for("recover", _layout_key(survivors), kind),
                    )
                    self._reorder_cache[key] = res
                fresh = self.engine.evaluate_sizes(sched, res.mapping, sub).total_seconds
                # hedged adoption: never worse than keeping the old binding
                seconds = np.minimum(fresh, keep)
                mapper = res.mapper_name
            for j, i in enumerate(idxs):
                coll = float(seconds[j])
                out[i] = LatencyReport(
                    seconds=coll,
                    algorithm=name,
                    strategy=policy,
                    collective_seconds=coll,
                    mapper=mapper,
                )
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # hierarchical
    # ------------------------------------------------------------------
    def _intra_mapper(self, kind: str, m: int) -> Optional[Mapper]:
        """Mapper for one node's binomial gather/bcast pattern.

        One intra-node permutation serves both tree phases (they share
        the binomial tree, only the traversal priorities differ); BGMH is
        the default because the paper attributes the intra-node gains to
        the gather phase (Fig. 4(b)), and BBMH is offered for the
        ablation.
        """
        if kind == "heuristic":
            from repro.mapping.bbmh import BBMH

            return BGMH() if self.intra_heuristic == "bgmh" else BBMH()
        graph = build_pattern("binomial-gather", m)
        return ScotchLikeMapper(graph) if kind == "scotch" else GreedyGraphMapper(graph)

    def _hierarchical_reordering(
        self, L: np.ndarray, kind: str, intra: str, leader_pattern: str, rng: RngLike
    ) -> Tuple[RankReordering, List[List[int]], float]:
        """Compose intra-node + leader reorderings into one world mapping.

        Returns the world reordering, the *new-rank* groups the schedule
        is built over, and the total mapping overhead in seconds.
        """
        groups_old = self.groups_from_layout(L)
        G = len(groups_old)
        rng = make_rng(rng)
        overhead = 0.0

        # Intra-node reordering (binomial phases only; a linear phase has
        # no pattern to optimise, paper Fig. 4(c,d) commentary).
        import time as _time

        per_group_cores: List[np.ndarray] = []
        for g in groups_old:
            cores_g = L[np.asarray(g, dtype=np.int64)]
            if intra == "binomial" and len(g) > 1:
                mapper = self._intra_mapper(kind, len(g))
                t0 = _time.perf_counter()
                M_g = mapper.map(cores_g, self.distances, rng=rng)
                overhead += _time.perf_counter() - t0
            else:
                M_g = cores_g.copy()
            per_group_cores.append(np.asarray(M_g, dtype=np.int64))

        # Leader-level reordering over the (possibly new) leader cores.
        leader_cores = np.array([mg[0] for mg in per_group_cores], dtype=np.int64)
        if G > 1:
            res = reorder_ranks(leader_pattern, leader_cores, self.distances, kind=kind, rng=rng)
            overhead += res.total_seconds
            # node_perm[j] = which original group acts as leader-rank j
            pos = {int(c): g for g, c in enumerate(leader_cores)}
            node_perm = [pos[int(c)] for c in res.mapping]
        else:
            node_perm = [0]

        # Stitch the world mapping: new ranks enumerate permuted groups.
        sizes = [per_group_cores[g].size for g in node_perm]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        M_world = np.empty(L.size, dtype=np.int64)
        groups_new: List[List[int]] = []
        for j, g in enumerate(node_perm):
            s = int(starts[j])
            m = per_group_cores[g].size
            M_world[s : s + m] = per_group_cores[g]
            groups_new.append(list(range(s, s + m)))
        return RankReordering(layout=L, mapping=M_world), groups_new, overhead

    # ------------------------------------------------------------------
    def improvement_pct(
        self,
        layout: Sequence[int],
        block_bytes: float,
        kind: str = "heuristic",
        strategy: str = "initcomm",
        hierarchical: bool = False,
        intra: str = "binomial",
    ) -> float:
        """Percent latency improvement over the default mapping (>0 = faster)."""
        base = self.default_latency(layout, block_bytes, hierarchical, intra)
        tuned = self.reordered_latency(
            layout, block_bytes, kind, strategy, hierarchical, intra
        )
        if base.seconds == 0.0:
            return 0.0
        return 100.0 * (base.seconds - tuned.seconds) / base.seconds
