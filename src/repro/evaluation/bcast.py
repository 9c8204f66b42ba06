"""Broadcast evaluation pipeline (the §V claim, made measurable).

"Two of the proposed heuristics can also be used for MPI_Bcast and
MPI_Gather operations."  This evaluator gives MPI_Bcast the same
treatment :class:`~repro.evaluation.evaluator.AllgatherEvaluator` gives
MPI_Allgather:

* MVAPICH-style algorithm selection — binomial tree for small messages,
  scatter-allgather for large ones (Thakur et al. [17], paper §V-A3);
* rank reordering with the matching heuristic — BBMH for the binomial
  tree; for scatter-allgather the allgather phase dominates, so its
  pattern's heuristic (RDMH/RMH by size) is used, exactly as the paper
  argues when explaining why no dedicated scatter-allgather heuristic is
  needed;
* no order-restoration cost: a broadcast has no output vector to keep
  ordered (§V-B) — but the *root* must stay the root, which rank 0
  pinning guarantees.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.collectives.bcast_binomial import BinomialBroadcast
from repro.collectives.registry import DEFAULT_RD_THRESHOLD_BYTES
from repro.collectives.scatter_allgather import ScatterAllgatherBroadcast
from repro.collectives.schedule import CollectiveAlgorithm
from repro.mapping.reorder import reorder_ranks
from repro.simmpi.costmodel import CostModel
from repro.simmpi.engine import TimingEngine
from repro.topology.cluster import ClusterTopology
from repro.util.bits import is_power_of_two
from repro.util.rng import RngLike, make_rng

__all__ = ["BcastEvaluator", "BcastReport", "select_bcast"]

#: Full-message size (bytes) below which the binomial tree is used.
DEFAULT_BCAST_TREE_THRESHOLD = 8192


def select_bcast(
    p: int,
    message_bytes: float,
    tree_threshold: float = DEFAULT_BCAST_TREE_THRESHOLD,
    rd_threshold: float = DEFAULT_RD_THRESHOLD_BYTES,
) -> CollectiveAlgorithm:
    """MVAPICH-style MPI_Bcast selection.

    Binomial tree below ``tree_threshold``; above it, scatter +
    allgather, whose allgather phase follows the usual per-slice rule
    (recursive doubling for medium slices on power-of-two communicators,
    ring for large ones — Thakur et al. [17]).
    """
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if message_bytes < tree_threshold:
        return BinomialBroadcast()
    slice_bytes = message_bytes / p
    if slice_bytes < rd_threshold and is_power_of_two(p):
        return ScatterAllgatherBroadcast("rd")
    return ScatterAllgatherBroadcast("ring")


@dataclass
class BcastReport:
    """Latency of one broadcast configuration."""

    seconds: float
    algorithm: str
    reorder_seconds: float = 0.0
    mapper: str = "none"


class BcastEvaluator:
    """Prices MPI_Bcast on the simulated cluster under rank reordering."""

    def __init__(
        self,
        cluster: ClusterTopology,
        cost_model: Optional[CostModel] = None,
        tree_threshold: float = DEFAULT_BCAST_TREE_THRESHOLD,
        rd_threshold: float = DEFAULT_RD_THRESHOLD_BYTES,
        rng: RngLike = 0,
    ) -> None:
        self.cluster = cluster
        self.cost = cost_model if cost_model is not None else CostModel()
        self.engine = TimingEngine(cluster, self.cost)
        self.tree_threshold = tree_threshold
        self.rd_threshold = rd_threshold
        self.rng = make_rng(rng)
        # Implicit distances: per-row on demand + cache-keying fingerprint.
        self.distances = cluster.implicit_distances()
        self._D = None
        self._cache = {}

    @property
    def D(self):
        """Dense distance matrix (materialised lazily, for legacy callers)."""
        if self._D is None:
            self._D = self.cluster.distance_matrix()
        return self._D

    # ------------------------------------------------------------------
    def _pattern_for(self, alg: CollectiveAlgorithm) -> str:
        if isinstance(alg, BinomialBroadcast):
            return "binomial-bcast"
        # scatter-allgather: the allgather phase dominates (paper §V-A3),
        # so the heuristic follows its algorithm
        return "recursive-doubling" if alg.allgather_kind == "rd" else "ring"

    def _evaluate(self, alg: CollectiveAlgorithm, mapping, p: int, message_bytes: float) -> float:
        # schedule units are in "payload blocks": the binomial tree's unit
        # is the whole message; scatter-allgather's unit is one of p slices
        unit_bytes = (
            message_bytes if isinstance(alg, BinomialBroadcast) else message_bytes / p
        )
        return self.engine.evaluate(alg.schedule(p), mapping, unit_bytes).total_seconds

    # ------------------------------------------------------------------
    def default_latency(self, layout: Sequence[int], message_bytes: float) -> BcastReport:
        """Broadcast latency under the raw layout."""
        L = np.asarray(layout, dtype=np.int64)
        alg = select_bcast(L.size, message_bytes, self.tree_threshold, self.rd_threshold)
        return BcastReport(
            seconds=self._evaluate(alg, L, L.size, message_bytes),
            algorithm=alg.name,
        )

    def reordered_latency(
        self,
        layout: Sequence[int],
        message_bytes: float,
        kind: str = "heuristic",
    ) -> BcastReport:
        """Broadcast latency under topology-aware rank reordering."""
        L = np.asarray(layout, dtype=np.int64)
        p = L.size
        alg = select_bcast(p, message_bytes, self.tree_threshold, self.rd_threshold)
        pattern = self._pattern_for(alg)
        key = (pattern, L.tobytes(), kind)
        res = self._cache.get(key)
        if res is None:
            # order-independent deterministic seed (see AllgatherEvaluator)
            blob = pattern.encode() + L.tobytes() + kind.encode()
            rng = int.from_bytes(hashlib.sha1(blob).digest()[:4], "big")
            res = reorder_ranks(pattern, L, self.distances, kind=kind, rng=rng)
            self._cache[key] = res
        return BcastReport(
            seconds=self._evaluate(alg, res.mapping, p, message_bytes),
            algorithm=alg.name,
            reorder_seconds=res.total_seconds,
            mapper=res.mapper_name,
        )

    def improvement_pct(
        self, layout: Sequence[int], message_bytes: float, kind: str = "heuristic"
    ) -> float:
        """Percent latency improvement over the default mapping."""
        base = self.default_latency(layout, message_bytes)
        tuned = self.reordered_latency(layout, message_bytes, kind)
        return 100.0 * (base.seconds - tuned.seconds) / base.seconds
