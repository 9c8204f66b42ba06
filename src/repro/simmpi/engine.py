"""Vectorised stage-synchronous timing engine.

Evaluates the latency of a collective :class:`~repro.collectives.schedule.Schedule`
on a :class:`~repro.topology.cluster.ClusterTopology` under a given rank-to-core
mapping.  Per stage:

1. ranks are bound to cores through the mapping array ``M``;
2. every message's route is fetched as a padded row of directed link ids;
3. per-link byte loads are a single ``np.bincount``;
4. message time = Σ α(link) + max over route links of β(link)·bytes(link);
5. stage time = max message time (stage-synchronous barrier semantics);
6. schedule time = Σ stage time · repeat, plus local-copy cost.

This is the substitute for running on the paper's InfiniBand testbed: it
keeps the two effects that produce every result in the paper — channel
heterogeneity (α/β per class) and link contention — while remaining fast
enough to sweep 4096-process schedules on one machine.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.runtime import maybe_verify_schedule
from repro.collectives.schedule import Schedule, Stage
from repro.simmpi.costmodel import CostModel
from repro.topology.cluster import ClusterTopology
from repro.util.validation import check_positive

__all__ = [
    "TimingEngine",
    "TimingResult",
    "StageTiming",
    "StagePricing",
    "SchedulePricing",
    "BatchTimingResult",
]

#: (schedule, mapping) pricing tables kept per engine (LRU).
PRICING_CACHE_SIZE = 64


@dataclass(frozen=True)
class StageTiming:
    """Cost breakdown of one stage (single instance, before `repeat`)."""

    label: str
    seconds: float
    repeat: int
    n_messages: int
    max_link_load_bytes: float

    @property
    def total_seconds(self) -> float:
        return self.seconds * self.repeat


@dataclass
class TimingResult:
    """Latency of a full schedule under one mapping."""

    schedule_name: str
    total_seconds: float
    stage_timings: List[StageTiming] = field(default_factory=list)
    local_copy_seconds: float = 0.0

    def breakdown(self) -> str:
        """Readable per-stage table."""
        lines = [f"{self.schedule_name}: {self.total_seconds * 1e6:.2f} us total"]
        for st in self.stage_timings:
            lines.append(
                f"  {st.label or '<stage>':<18} {st.seconds * 1e6:>10.2f} us"
                f" x{st.repeat:<5d} ({st.n_messages} msgs)"
            )
        if self.local_copy_seconds:
            lines.append(f"  {'local copies':<18} {self.local_copy_seconds * 1e6:>10.2f} us")
        return "\n".join(lines)


def _pareto_envelope(alpha_sum: np.ndarray, unit_drain: np.ndarray):
    """Upper envelope of the per-message lines ``alpha + size * drain``.

    For any size >= 0 the stage maximum is attained by a message whose
    (alpha_sum, unit_drain) pair is not dominated by another message with
    both a larger alpha-sum and a larger drain.  Keeping only the
    non-dominated staircase compresses thousands of messages down to a
    handful of candidate lines, and — because max() and multiplication by
    a non-negative size are monotone in floating point too — evaluating
    the envelope gives exactly the same maximum as scanning every message.
    """
    u_drain, inverse = np.unique(unit_drain, return_inverse=True)
    u_alpha = np.full(u_drain.size, -np.inf)
    np.maximum.at(u_alpha, inverse, alpha_sum)
    # Drop any line whose alpha-sum is beaten at an equal-or-larger drain.
    suffix_max = np.maximum.accumulate(u_alpha[::-1])[::-1]
    keep = u_alpha >= suffix_max
    return u_alpha[keep], u_drain[keep]


@dataclass(frozen=True)
class StagePricing:
    """Size-independent pricing tables of one stage under one mapping.

    ``env_alpha``/``env_drain`` hold the Pareto envelope of the stage's
    per-message ``alpha_sum + block_bytes * unit_drain`` lines, where the
    unit drain is the bandwidth term for a 1-byte block: one instance of
    the stage costs ``max(env_alpha + block_bytes * env_drain)`` plus the
    fixed stage overhead, for *any* block size.
    """

    label: str
    repeat: int
    n_messages: int
    env_alpha: np.ndarray      # seconds (per-message route alpha-sums)
    env_drain: np.ndarray      # seconds per block byte (bottleneck drain)
    unit_load_max: float       # max per-link byte load at block_bytes = 1

    def seconds_for(self, sizes: np.ndarray, stage_overhead: float) -> np.ndarray:
        """Single-instance stage seconds for a vector of block sizes."""
        per_size = (
            self.env_alpha[None, :] + sizes[:, None] * self.env_drain[None, :]
        ).max(axis=1)
        return per_size + stage_overhead

    def timing_for(self, block_bytes: float, stage_overhead: float) -> StageTiming:
        """Per-size :class:`StageTiming` view (reports / trace tooling)."""
        sizes = np.asarray([block_bytes], dtype=np.float64)
        return StageTiming(
            label=self.label,
            seconds=float(self.seconds_for(sizes, stage_overhead)[0]),
            repeat=self.repeat,
            n_messages=self.n_messages,
            max_link_load_bytes=self.unit_load_max * float(block_bytes),
        )


@dataclass
class BatchTimingResult:
    """Latency of one schedule under one mapping for a vector of sizes.

    ``total_seconds[k]`` corresponds to ``sizes[k]`` and agrees with
    :meth:`TimingEngine.evaluate` at that block size to floating-point
    tolerance (the batched path factors the shared ``block_bytes`` out of
    the bincount, so the rounding order differs slightly).
    """

    schedule_name: str
    sizes: np.ndarray              # float64, the priced block sizes
    total_seconds: np.ndarray      # per size
    local_copy_seconds: np.ndarray  # per size
    pricing: "SchedulePricing"

    def result(self, k: int) -> TimingResult:
        """Expand entry ``k`` into a full per-size :class:`TimingResult`."""
        overhead = self.pricing.cost.stage_overhead
        bb = float(self.sizes[k])
        return TimingResult(
            schedule_name=self.schedule_name,
            total_seconds=float(self.total_seconds[k]),
            stage_timings=[s.timing_for(bb, overhead) for s in self.pricing.stages],
            local_copy_seconds=float(self.local_copy_seconds[k]),
        )


class SchedulePricing:
    """Reusable pricing tables for one (schedule, mapping) pair.

    Built once from the schedule's routes; pricing any block size
    afterwards is a small envelope evaluation with no route construction,
    no bincount and no per-message scan.  Obtained (and cached) via
    :meth:`TimingEngine.pricing`.
    """

    def __init__(self, engine: "TimingEngine", schedule: Schedule, mapping: np.ndarray):
        self.schedule_name = schedule.name
        self.p = schedule.p
        self.local_copy_units = float(schedule.local_copy_units)
        self.cost = engine.cost
        self.stages: List[StagePricing] = engine._price_schedule(schedule, mapping)
        # Fused evaluation tables: every stage's Pareto envelope
        # concatenated into one flat alpha/drain pair plus the reduceat
        # segment starts, so pricing a size vector is one broadcast and
        # one segmented max instead of a numpy pass per stage.  Envelopes
        # are never empty for non-empty stages (the Pareto keep-mask
        # always retains at least one line), but reduceat cannot express
        # empty segments, so empty schedules — or a degenerate stage with
        # no messages — keep the reference path.
        if self.stages and all(s.env_alpha.size > 0 for s in self.stages):
            self._fused_alpha = np.concatenate([s.env_alpha for s in self.stages])
            self._fused_drain = np.concatenate([s.env_drain for s in self.stages])
            counts = np.array([s.env_alpha.size for s in self.stages], dtype=np.int64)
            self._fused_starts = np.concatenate(([0], np.cumsum(counts[:-1])))
            self._fused_repeats = [float(s.repeat) for s in self.stages]
        else:
            self._fused_alpha = None

    def evaluate_sizes(
        self, sizes: Sequence[float], extra_copy_bytes: float = 0.0
    ) -> BatchTimingResult:
        """Price the whole size vector in one fused stage-concatenated pass.

        Bit-identical to :meth:`evaluate_sizes_reference` (the per-stage
        walk): the per-line ``alpha + size * drain`` terms are the same
        elementwise operations on the same values, the segmented
        ``np.maximum.reduceat`` computes each stage's envelope max over
        exactly the elements the per-stage ``max`` sees (max is
        rounding-free), and the accumulation below walks the stages in
        the reference's left-to-right order, so every intermediate
        rounding matches.
        """
        if self._fused_alpha is None:
            return self.evaluate_sizes_reference(sizes, extra_copy_bytes)
        sz = self._check_sizes(sizes)
        vals = self._fused_alpha[None, :] + sz[:, None] * self._fused_drain[None, :]
        stage_max = np.maximum.reduceat(vals, self._fused_starts, axis=1)
        overhead = self.cost.stage_overhead
        total = np.zeros(sz.size, dtype=np.float64)
        for j, repeat in enumerate(self._fused_repeats):
            total += (stage_max[:, j] + overhead) * repeat
        return self._finish_sizes(sz, total, extra_copy_bytes)

    def evaluate_sizes_reference(
        self, sizes: Sequence[float], extra_copy_bytes: float = 0.0
    ) -> BatchTimingResult:
        """Per-stage envelope walk — the oracle for the fused pass."""
        sz = self._check_sizes(sizes)
        overhead = self.cost.stage_overhead
        total = np.zeros(sz.size, dtype=np.float64)
        for stage in self.stages:
            total += stage.seconds_for(sz, overhead) * stage.repeat
        return self._finish_sizes(sz, total, extra_copy_bytes)

    @staticmethod
    def _check_sizes(sizes: Sequence[float]) -> np.ndarray:
        sz = np.asarray(list(sizes), dtype=np.float64)
        if sz.ndim != 1 or sz.size == 0:
            raise ValueError("sizes must be a non-empty 1-D sequence")
        if not np.all((sz > 0) & np.isfinite(sz)):
            raise ValueError("block sizes must be positive and finite")
        return sz

    def _finish_sizes(
        self, sz: np.ndarray, total: np.ndarray, extra_copy_bytes: float
    ) -> BatchTimingResult:
        copy_bytes = self.local_copy_units * sz + extra_copy_bytes
        copy_seconds = np.where(
            copy_bytes > 0, self.cost.copy_alpha + copy_bytes * self.cost.copy_beta, 0.0
        )
        return BatchTimingResult(
            schedule_name=self.schedule_name,
            sizes=sz,
            total_seconds=total + copy_seconds,
            local_copy_seconds=copy_seconds,
            pricing=self,
        )


def _schedule_fingerprint(schedule: Schedule) -> bytes:
    """Content hash of a schedule (stage arrays, repeats, copy units)."""
    h = hashlib.sha1()
    h.update(
        f"{schedule.p}|{schedule.name}|{schedule.local_copy_units}".encode()
    )
    for s in schedule.stages:
        h.update(f"|{s.repeat}|{s.src.size}".encode())
        h.update(np.ascontiguousarray(s.src).tobytes())
        h.update(np.ascontiguousarray(s.dst).tobytes())
        h.update(np.ascontiguousarray(s.units).tobytes())
    return h.digest()


class TimingEngine:
    """Binds schedules + mappings to the cluster and prices them."""

    def __init__(
        self,
        cluster: ClusterTopology,
        cost_model: Optional[CostModel] = None,
        link_beta_scale: Optional[np.ndarray] = None,
    ) -> None:
        self.cluster = cluster
        self.cost = cost_model if cost_model is not None else CostModel()
        # Dense per-link α/β tables (link id -> coefficient).
        cls = cluster.link_class.astype(np.int64)
        self._alpha = self.cost.alpha_by_class()[cls]
        self._beta = self.cost.beta_by_class()[cls]
        if link_beta_scale is not None:
            scale = np.asarray(link_beta_scale, dtype=np.float64)
            if scale.shape != (cluster.n_links,):
                raise ValueError(
                    f"link_beta_scale must have shape ({cluster.n_links},), got {scale.shape}"
                )
            if np.any(scale <= 0):
                raise ValueError("link_beta_scale entries must be positive")
            # a scale of k divides the link's bandwidth by k (degradation)
            self._beta = self._beta * scale
        self._pricing_cache: "OrderedDict[tuple, SchedulePricing]" = OrderedDict()
        self.pricing_hits = 0
        self.pricing_misses = 0
        self.pricing_evictions = 0

    # ------------------------------------------------------------------
    def stage_time(self, stage: Stage, mapping: np.ndarray, block_bytes: float) -> StageTiming:
        """Price a single instance of ``stage`` under ``mapping``."""
        return self._stage_time(stage, mapping, block_bytes, self._beta)

    def _stage_time(
        self, stage: Stage, mapping: np.ndarray, block_bytes: float, beta: np.ndarray
    ) -> StageTiming:
        """Stage pricing against an explicit per-link beta table.

        The fault-injection path swaps ``beta`` per stage as degradations
        set in; the healthy path always passes ``self._beta``.
        """
        src_cores = mapping[stage.src]
        dst_cores = mapping[stage.dst]
        routes = self.cluster.routes_for(src_cores, dst_cores)
        valid = routes >= 0
        safe = np.where(valid, routes, 0)
        nbytes = stage.units * block_bytes

        # Per-link byte load in this stage.
        weights = np.broadcast_to(nbytes[:, None], routes.shape)[valid]
        load = np.bincount(routes[valid], weights=weights, minlength=self.cluster.n_links)

        alpha_sum = np.where(valid, self._alpha[safe], 0.0).sum(axis=1)
        drain = np.where(valid, beta[safe] * load[safe], 0.0).max(axis=1)
        per_msg = alpha_sum + drain
        return StageTiming(
            label=stage.label,
            seconds=float(per_msg.max()) + self.cost.stage_overhead,
            repeat=stage.repeat,
            n_messages=stage.n_messages,
            max_link_load_bytes=float(load.max()) if load.size else 0.0,
        )

    def evaluate(
        self,
        schedule: Schedule,
        mapping: Sequence[int],
        block_bytes: float,
        extra_copy_bytes: float = 0.0,
        fault_plan=None,
    ) -> TimingResult:
        """Total latency of ``schedule``.

        Parameters
        ----------
        schedule:
            Rank-space schedule from a collective algorithm.
        mapping:
            Array ``M`` with ``M[rank] = core`` (a permutation when the job
            fully subscribes its cores, which is the paper's setting).
        block_bytes:
            Size of one block (the per-rank allgather message size).
        extra_copy_bytes:
            Additional local data movement to price (endShfl shuffles).
        fault_plan:
            Optional :class:`repro.faults.plan.FaultPlan`.  Degradations
            take effect from their onset stage; a failed node that is
            asked to communicate raises
            :class:`repro.faults.plan.FaultStopError` (fail-stop
            semantics — catch it and shrink via ``repro.faults``).
        """
        check_positive("block_bytes", block_bytes)
        maybe_verify_schedule(schedule)  # opt-in static guard (REPRO_VERIFY=1)
        M = self._check_mapping(schedule, mapping)
        if fault_plan is not None:
            return self._evaluate_with_faults(
                schedule, M, block_bytes, extra_copy_bytes, fault_plan
            )

        timings = [self.stage_time(s, M, block_bytes) for s in schedule.stages]
        copy_bytes = schedule.local_copy_units * block_bytes + extra_copy_bytes
        copy_seconds = self.cost.copy_cost(copy_bytes)
        total = sum(t.total_seconds for t in timings) + copy_seconds
        return TimingResult(
            schedule_name=schedule.name,
            total_seconds=total,
            stage_timings=timings,
            local_copy_seconds=copy_seconds,
        )

    def _evaluate_with_faults(
        self,
        schedule: Schedule,
        M: np.ndarray,
        block_bytes: float,
        extra_copy_bytes: float,
        fault_plan,
    ) -> TimingResult:
        """Round-wise pricing under a dynamic fault plan.

        Fault onsets are indexed by communication *round* (the stage list
        with per-stage ``repeat`` counts expanded, so a ring's p-1
        iterations are p-1 distinct onsets).  Each round is priced with
        the beta table of the degradations active at its index; the
        first round in which a failed node must send or receive aborts
        the collective.  Fault activation is monotone, so rounds are
        re-priced only when the active event set changes.
        """
        # Local import: repro.faults imports this module at package level.
        from dataclasses import replace

        from repro.faults.plan import FaultStopError

        fault_plan.validate(self.cluster)
        timings: List[StageTiming] = []
        round_idx = 0
        for stage in schedule.stages:
            state = None
            timing: Optional[StageTiming] = None
            for _ in range(stage.repeat):
                key = tuple(
                    ev.active_at_stage(round_idx) for ev in fault_plan.events
                )
                if timing is None or key != state:
                    state = key
                    failed = fault_plan.failed_nodes_at_stage(round_idx)
                    if failed:
                        touched = set(
                            int(n)
                            for n in np.union1d(
                                self.cluster.node_of(M[stage.src]),
                                self.cluster.node_of(M[stage.dst]),
                            )
                        )
                        dead = touched & set(failed)
                        if dead:
                            raise FaultStopError(dead, round_idx, schedule.name)
                    scale = fault_plan.beta_scale_at_stage(self.cluster, round_idx)
                    beta = self._beta if scale is None else self._beta * scale
                    timing = replace(
                        self._stage_time(stage, M, block_bytes, beta), repeat=1
                    )
                timings.append(timing)
                round_idx += 1
        copy_bytes = schedule.local_copy_units * block_bytes + extra_copy_bytes
        copy_seconds = self.cost.copy_cost(copy_bytes)
        total = sum(t.total_seconds for t in timings) + copy_seconds
        return TimingResult(
            schedule_name=schedule.name,
            total_seconds=total,
            stage_timings=timings,
            local_copy_seconds=copy_seconds,
        )

    # ------------------------------------------------------------------
    # batched multi-size pricing
    # ------------------------------------------------------------------
    def _check_mapping(self, schedule: Schedule, mapping: Sequence[int]) -> np.ndarray:
        M = np.asarray(mapping, dtype=np.int64)
        if schedule.p > M.size:
            raise ValueError(
                f"schedule for p={schedule.p} but mapping covers only {M.size} ranks"
            )
        if M.min(initial=0) < 0 or M.max(initial=0) >= self.cluster.n_cores:
            raise ValueError("mapping references cores outside the cluster")
        return M

    def _price_stage(self, stage: Stage, mapping: np.ndarray) -> StagePricing:
        """Size-independent route / alpha / unit-load tables for one stage."""
        src_cores = mapping[stage.src]
        dst_cores = mapping[stage.dst]
        routes = self.cluster.routes_for(src_cores, dst_cores)
        valid = routes >= 0
        safe = np.where(valid, routes, 0)

        # Per-link load for a 1-byte block; the real load is linear in the
        # block size, so one bincount serves every size.
        unit_weights = np.broadcast_to(stage.units[:, None], routes.shape)[valid]
        unit_load = np.bincount(
            routes[valid], weights=unit_weights, minlength=self.cluster.n_links
        )
        alpha_sum = np.where(valid, self._alpha[safe], 0.0).sum(axis=1)
        unit_drain = np.where(valid, self._beta[safe] * unit_load[safe], 0.0).max(axis=1)
        env_alpha, env_drain = _pareto_envelope(alpha_sum, unit_drain)
        return StagePricing(
            label=stage.label,
            repeat=stage.repeat,
            n_messages=stage.n_messages,
            env_alpha=env_alpha,
            env_drain=env_drain,
            unit_load_max=float(unit_load.max()) if unit_load.size else 0.0,
        )

    def _price_schedule(self, schedule: Schedule, mapping: np.ndarray) -> List[StagePricing]:
        """Price every stage of ``schedule`` in one vectorised pass.

        All stage messages are concatenated so the route lookup and the
        per-link unit-load bincount run once per schedule instead of once
        per stage; per-stage loads live in disjoint ``stage * n_links``
        bins.  Per-bin summation order matches the per-stage path, so the
        tables are bit-identical to pricing each stage alone.
        """
        stages = schedule.stages
        if len(stages) <= 1:
            return [self._price_stage(s, mapping) for s in stages]
        counts = np.array([s.src.size for s in stages], dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        src = np.concatenate([np.asarray(s.src) for s in stages])
        dst = np.concatenate([np.asarray(s.dst) for s in stages])
        units = np.concatenate([np.asarray(s.units, dtype=np.float64) for s in stages])

        routes = self.cluster.routes_for(mapping[src], mapping[dst])
        valid = routes >= 0
        safe = np.where(valid, routes, 0)
        n_links = self.cluster.n_links
        stage_idx = np.repeat(np.arange(len(stages), dtype=np.int64), counts)
        flat = stage_idx[:, None] * n_links + safe

        unit_weights = np.broadcast_to(units[:, None], routes.shape)[valid]
        unit_load = np.bincount(
            flat[valid], weights=unit_weights, minlength=len(stages) * n_links
        )
        alpha_sum = np.where(valid, self._alpha[safe], 0.0).sum(axis=1)
        unit_drain = np.where(valid, self._beta[safe] * unit_load[flat], 0.0).max(axis=1)

        priced: List[StagePricing] = []
        for i, stage in enumerate(stages):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            env_alpha, env_drain = _pareto_envelope(alpha_sum[lo:hi], unit_drain[lo:hi])
            seg_load = unit_load[i * n_links : (i + 1) * n_links]
            priced.append(
                StagePricing(
                    label=stage.label,
                    repeat=stage.repeat,
                    n_messages=stage.n_messages,
                    env_alpha=env_alpha,
                    env_drain=env_drain,
                    unit_load_max=float(seg_load.max()) if seg_load.size else 0.0,
                )
            )
        return priced

    def pricing(self, schedule: Schedule, mapping: Sequence[int]) -> SchedulePricing:
        """Cached :class:`SchedulePricing` for a (schedule, mapping) pair.

        Keyed on content fingerprints, so equal schedules rebuilt by
        different callers (or the same schedule priced under the same
        mapping again) share one table.  The cache is bounded LRU.
        """
        maybe_verify_schedule(schedule)  # opt-in static guard (REPRO_VERIFY=1)
        M = self._check_mapping(schedule, mapping)
        m_used = np.ascontiguousarray(M[: schedule.p])
        key = (_schedule_fingerprint(schedule), hashlib.sha1(m_used.tobytes()).digest())
        hit = self._pricing_cache.get(key)
        if hit is not None:
            self._pricing_cache.move_to_end(key)
            self.pricing_hits += 1
            return hit
        self.pricing_misses += 1
        pricing = SchedulePricing(self, schedule, M)
        self._pricing_cache[key] = pricing
        if len(self._pricing_cache) > PRICING_CACHE_SIZE:
            self._pricing_cache.popitem(last=False)
            self.pricing_evictions += 1
        return pricing

    def pricing_cache_stats(self) -> dict:
        """Pricing-LRU counter snapshot (the daemon's ``stats`` op)."""
        return {
            "entries": len(self._pricing_cache),
            "capacity": PRICING_CACHE_SIZE,
            "hits": self.pricing_hits,
            "misses": self.pricing_misses,
            "evictions": self.pricing_evictions,
        }

    def evaluate_sizes(
        self,
        schedule: Schedule,
        mapping: Sequence[int],
        sizes: Sequence[float],
        extra_copy_bytes: float = 0.0,
    ) -> BatchTimingResult:
        """Price ``schedule`` for every block size in ``sizes`` at once.

        Routes, alpha-sums and per-link unit-byte loads are computed once
        (and cached across calls); each size then costs one envelope
        evaluation.  Agrees with per-size :meth:`evaluate` to floating
        point tolerance.
        """
        return self.pricing(schedule, mapping).evaluate_sizes(sizes, extra_copy_bytes)

    # ------------------------------------------------------------------
    def link_loads(self, stage: Stage, mapping: np.ndarray, block_bytes: float) -> np.ndarray:
        """Per-link byte loads of one stage (diagnostics / tests)."""
        src_cores = np.asarray(mapping, dtype=np.int64)[stage.src]
        dst_cores = np.asarray(mapping, dtype=np.int64)[stage.dst]
        routes = self.cluster.routes_for(src_cores, dst_cores)
        valid = routes >= 0
        nbytes = stage.units * block_bytes
        weights = np.broadcast_to(nbytes[:, None], routes.shape)[valid]
        return np.bincount(routes[valid], weights=weights, minlength=self.cluster.n_links)
