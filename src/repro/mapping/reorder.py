"""Run-time rank reordering (paper §IV).

The top of the mapping stack: given a communication-pattern name, an
initial layout and the distance matrix, produce a
:class:`~repro.collectives.correctness.RankReordering` — timing both the
mapping algorithm itself and (for the graph-based baselines) the
pattern-graph construction, since avoiding that construction is one of
the heuristics' selling points (§V, Fig. 7b).

"The whole rank reordering process happens only once at run-time": callers
cache the returned reordering per (communicator, pattern) and reuse it for
every subsequent collective call, which is what
:class:`repro.simmpi.communicator.VirtualComm` does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Type

import numpy as np

from repro.collectives.correctness import RankReordering
from repro.mapping.base import Mapper, map_batch
from repro.mapping.bbmh import BBMH
from repro.mapping.bgmh import BGMH
from repro.mapping.bruckmh import BruckMH
from repro.mapping.cache import MappingCache, global_mapping_cache, mapping_cache_key
from repro.mapping.greedy import GreedyGraphMapper
from repro.mapping.patterns import build_pattern
from repro.mapping.rdmh import RDMH
from repro.mapping.rmh import RMH
from repro.mapping.scotch import ScotchLikeMapper
from repro.util.rng import RngLike

__all__ = [
    "HEURISTICS",
    "MAPPER_KINDS",
    "ReorderResult",
    "reorder_ranks",
    "reorder_all",
    "cache_hit",
]

#: The paper's fine-tuned heuristic for each communication pattern.
HEURISTICS: Dict[str, Type[Mapper]] = {
    "recursive-doubling": RDMH,
    "ring": RMH,
    "binomial-bcast": BBMH,
    "binomial-gather": BGMH,
    "bruck": BruckMH,
}

MAPPER_KINDS = ("heuristic", "scotch", "greedy")


@dataclass
class ReorderResult:
    """Outcome of one reordering: the permutation plus its overheads."""

    reordering: RankReordering
    pattern: str
    mapper_name: str
    map_seconds: float
    graph_seconds: float = 0.0
    #: True when the permutation came out of the mapping cache; the
    #: recorded seconds are then those of the original computation.
    cached: bool = False

    @property
    def total_seconds(self) -> float:
        """Full mapping overhead (graph construction + mapping)."""
        return self.map_seconds + self.graph_seconds

    @property
    def mapping(self) -> np.ndarray:
        return self.reordering.mapping


def _cache_for(cache) -> "MappingCache | None":
    """Resolve the ``cache`` argument of :func:`reorder_ranks`."""
    if cache == "auto":
        return global_mapping_cache()
    if cache == "off" or cache is None:
        return None
    if isinstance(cache, MappingCache):
        return cache
    raise ValueError(f"cache must be 'auto', 'off', or a MappingCache, got {cache!r}")


def _fingerprint_of(D) -> "str | None":
    """The topology fingerprint a distance backend carries, if any."""
    fp = getattr(D, "fingerprint", None)
    if callable(fp):  # ClusterTopology-style callable fingerprints
        fp = fp()
    return fp if isinstance(fp, str) else None


def cache_hit(cache_obj: MappingCache, key: str, layout: np.ndarray):
    """Decode a mapping-cache entry for ``layout``: ``(fields, mapping)`` or None.

    ``fields`` holds the recorded ``mapper_name``, ``map_seconds`` and
    ``graph_seconds``.  ``mapping`` is the cache's own read-only int64
    view: copy it before it reaches a caller that may mutate it.  A hit
    recorded for another layout counts as a miss.
    """
    hit = cache_obj.get_arrays(key)
    if hit is None or not np.array_equal(hit[1], layout):
        return None
    entry, _, mapping = hit
    fields = {
        "mapper_name": entry.get("mapper_name", "mapper"),
        "map_seconds": float(entry.get("map_seconds", 0.0)),
        "graph_seconds": float(entry.get("graph_seconds", 0.0)),
    }
    return fields, mapping


def _cached_result(cache_obj: MappingCache, key: str, L: np.ndarray, pattern: str):
    """:func:`cache_hit` as a :class:`ReorderResult`, or None."""
    hit = cache_hit(cache_obj, key, L)
    if hit is None:
        return None
    fields, mapping = hit
    return ReorderResult(
        reordering=RankReordering(layout=L, mapping=mapping.copy()),
        pattern=pattern,
        cached=True,
        **fields,
    )


def _put_result(cache_obj: MappingCache, key: str, kind: str, res: ReorderResult) -> None:
    """Store a freshly computed reordering under ``key``."""
    cache_obj.put(
        key,
        {
            "mapping": res.mapping.tolist(),
            "layout": res.reordering.layout.tolist(),
            "pattern": res.pattern,
            "kind": kind,
            "mapper_name": res.mapper_name,
            "map_seconds": res.map_seconds,
            "graph_seconds": res.graph_seconds,
        },
    )


def reorder_ranks(
    pattern: str,
    layout: Sequence[int],
    D: np.ndarray,
    kind: str = "heuristic",
    rng: RngLike = 0,
    cache="auto",
    **mapper_kwargs,
) -> ReorderResult:
    """Compute a rank reordering for ``pattern``.

    Parameters
    ----------
    pattern:
        One of :data:`HEURISTICS`'s keys ("recursive-doubling", "ring",
        "binomial-bcast", "binomial-gather", "bruck").
    layout:
        Initial layout ``L[old_rank] = core``.
    D:
        Core-by-core distances: the dense matrix, or an
        :class:`~repro.topology.implicit.ImplicitDistances` backend.
    kind:
        ``"heuristic"`` — the paper's fine-tuned mapper for the pattern;
        ``"scotch"`` — the Scotch-like recursive-bipartitioning baseline;
        ``"greedy"`` — the Hoefler-Snir-style greedy baseline.
    cache:
        ``"auto"`` (default) — consult the process-global
        :func:`~repro.mapping.cache.global_mapping_cache` whenever the
        result is content-addressable: ``D`` carries a topology
        fingerprint and ``rng`` is a plain integer seed.  ``"off"``
        disables caching; a :class:`~repro.mapping.cache.MappingCache`
        instance uses that cache.
    mapper_kwargs:
        Forwarded to the mapper constructor (e.g. ``tie_break="first"``,
        ``traversal=...``, ``update_after=...``).
    """
    if kind not in MAPPER_KINDS:
        raise ValueError(f"kind must be one of {MAPPER_KINDS}, got {kind!r}")
    L = np.asarray(layout, dtype=np.int64)
    p = L.size

    cache_obj = _cache_for(cache)
    key = None
    if cache_obj is not None:
        fp = _fingerprint_of(D)
        if fp is not None and isinstance(rng, (int, np.integer)):
            key = mapping_cache_key(fp, pattern, kind, L, int(rng), mapper_kwargs)
            res = _cached_result(cache_obj, key, L, pattern)
            if res is not None:
                return res

    graph_seconds = 0.0
    if kind == "heuristic":
        try:
            mapper_cls = HEURISTICS[pattern]
        except KeyError:
            raise KeyError(f"no fine-tuned heuristic for pattern {pattern!r}")
        mapper: Mapper = mapper_cls(**mapper_kwargs)
    else:
        # General-purpose mappers must build the process-topology graph
        # first — that construction is part of their measured overhead.
        t0 = time.perf_counter()
        graph = build_pattern(pattern, p)
        graph_seconds = time.perf_counter() - t0
        if kind == "scotch":
            mapper = ScotchLikeMapper(graph, **mapper_kwargs)
        else:
            mapper = GreedyGraphMapper(graph, **mapper_kwargs)

    t0 = time.perf_counter()
    M = mapper.map(L, D, rng=rng)
    map_seconds = time.perf_counter() - t0

    res = ReorderResult(
        reordering=RankReordering(layout=L, mapping=M),
        pattern=pattern,
        mapper_name=mapper.name,
        map_seconds=map_seconds,
        graph_seconds=graph_seconds,
    )
    if key is not None:
        _put_result(cache_obj, key, kind, res)
    return res


def reorder_all(
    layout: Sequence[int],
    D,
    patterns: "Sequence[str] | None" = None,
    rng: RngLike = 0,
    cache="auto",
    **mapper_kwargs,
) -> Dict[str, ReorderResult]:
    """Reorder one topology under every fine-tuned heuristic in one pass.

    Batched equivalent of one :func:`reorder_ranks` call per pattern
    with ``kind="heuristic"`` — same results, same cache entries, same
    rng-stream consumption (patterns are processed in the given order,
    so a shared live ``Generator`` draws exactly as the sequential calls
    would) — but the per-topology setup is paid once instead of once per
    heuristic: the backend fingerprint and layout serialisation for the
    cache keys, and (via :func:`repro.mapping.base.map_batch`) the
    pool's group structure.

    This is the entry point the evaluator, the sweep cells and the
    fault-recovery comparison use whenever they need several patterns'
    reorderings of the same layout.

    Parameters
    ----------
    layout / D / cache / mapper_kwargs:
        As in :func:`reorder_ranks`.
    rng:
        One :data:`~repro.util.rng.RngLike` shared by every pattern — an
        integer seed (each heuristic then draws from its own fresh
        stream, exactly like sequential calls with the same seed) or a
        live Generator (shared, consumed in pattern order; bypasses the
        cache) — or a ``{pattern: RngLike}`` mapping for callers whose
        seeds are pattern-derived (e.g. fault recovery).
    patterns:
        The patterns to map, default: every key of :data:`HEURISTICS`.

    Returns
    -------
    dict
        ``{pattern: ReorderResult}`` in ``patterns`` order.
    """
    if patterns is None:
        patterns = tuple(HEURISTICS)
    unknown = [pt for pt in patterns if pt not in HEURISTICS]
    if unknown:
        raise KeyError(f"no fine-tuned heuristic for pattern(s) {unknown!r}")
    L = np.asarray(layout, dtype=np.int64)
    if isinstance(rng, Mapping):
        missing_rng = [pt for pt in patterns if pt not in rng]
        if missing_rng:
            raise KeyError(f"rng mapping lacks entries for pattern(s) {missing_rng!r}")
        rng_of = dict(rng)
    else:
        rng_of = {pt: rng for pt in patterns}

    # --- cache lookups (fingerprint + layout serialised once) ---------
    cache_obj = _cache_for(cache)
    keys: Dict[str, object] = {}
    results: Dict[str, ReorderResult] = {}
    fp = _fingerprint_of(D) if cache_obj is not None else None
    if fp is not None:
        for pt in patterns:
            if not isinstance(rng_of[pt], (int, np.integer)):
                continue  # live Generators bypass the cache
            key = mapping_cache_key(fp, pt, "heuristic", L, int(rng_of[pt]), mapper_kwargs)
            keys[pt] = key
            res = _cached_result(cache_obj, key, L, pt)
            if res is not None:
                results[pt] = res

    # --- batched mapping of the misses --------------------------------
    misses = [pt for pt in patterns if pt not in results]
    if misses:
        mappers = [HEURISTICS[pt](**mapper_kwargs) for pt in misses]
        seconds: list = []
        mappings = map_batch(
            mappers, L, D, [rng_of[pt] for pt in misses], seconds_out=seconds
        )
        for pt, mapper, M, secs in zip(misses, mappers, mappings, seconds):
            results[pt] = ReorderResult(
                reordering=RankReordering(layout=L, mapping=M),
                pattern=pt,
                mapper_name=mapper.name,
                map_seconds=secs,
            )
            if pt in keys:
                _put_result(cache_obj, keys[pt], "heuristic", results[pt])

    return {pt: results[pt] for pt in patterns}
