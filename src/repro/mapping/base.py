"""Mapping foundations: free-core pools, the mapper interface, the driver.

All five paper heuristics are instances of one greedy scheme (paper
Algorithm 1): fix rank 0 on its current core, then repeatedly pick the
next process by a pattern-specific priority and place it on the *free core
closest to a reference core*.  Two layers fall out of that observation:

* each heuristic's *placement program* — the ``(new_rank, ref_rank)``
  sequence, which depends only on ``p`` and the heuristic's parameters,
  never on distances or the rng (:meth:`GreedyPlacementMapper.placements`);
* one shared *executor* that walks the program against a free-core pool.

Two pool implementations serve the ``find_closest_to`` step, both
including the paper's random tie-breaking with identical rng-stream
consumption, so their placements are bit-identical.  The distance
backend alone picks which one runs:

* :class:`CorePool` — the reference executor: masked argmin over
  pool-local distance rows.  It serves dense matrices and implicit
  backends whose distance ladder has collapsed levels, and it is the
  oracle the vectorised driver is tested against;
* :class:`HierarchicalFreePool` — the vectorised driver: when distances
  come from an :class:`~repro.topology.implicit.ImplicitDistances`
  backend with a strict ladder, the closest free core is found from
  hierarchy *coordinates* alone — O(1) free-count bookkeeping per level
  plus one gather over the winning annulus — no distance row is ever
  materialised.
"""

from __future__ import annotations

import time
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.util.rng import RngLike, make_rng

__all__ = [
    "PoolExhaustedError",
    "CorePool",
    "HierarchicalFreePool",
    "Mapper",
    "GreedyPlacementMapper",
    "as_distance_lookup",
    "map_batch",
]


class PoolExhaustedError(RuntimeError):
    """Raised when a closest-free query runs against an empty pool.

    Subclasses :class:`RuntimeError` so legacy ``except RuntimeError``
    call sites (and tests matching the original message) keep working.
    """


def as_distance_lookup(D):
    """Return an object supporting ``D[i, cols]`` core-distance indexing.

    Dense arrays pass through ``np.asarray``; implicit backends (anything
    exposing a ``row`` method, i.e. :class:`~repro.topology.implicit.
    ImplicitDistances`) are returned unchanged — they already implement
    the same indexing per-row on demand.
    """
    return D if hasattr(D, "row") else np.asarray(D)


def _n_rows(D) -> int:
    """Number of cores covered by a dense or implicit distance object."""
    return int(D.shape[0])


class CorePool:
    """Free-core bookkeeping with closest-core queries (reference executor).

    Parameters
    ----------
    D:
        Core-by-core distances under full-cluster indexing: either the
        dense matrix or an :class:`~repro.topology.implicit.
        ImplicitDistances` backend (rows are then computed on demand and
        cached per reference core — no dense materialisation).
    cores:
        The candidate cores — exactly the cores the job's processes occupy
        (reordering never migrates a process to an unused core).
    rng:
        Tie-break source.  The paper breaks distance ties randomly; pass
        ``tie_break="first"`` for deterministic lowest-id behaviour in
        tests.
    """

    def __init__(
        self,
        D,
        cores: Sequence[int],
        rng: RngLike = 0,
        tie_break: str = "random",
    ) -> None:
        if tie_break not in ("random", "first"):
            raise ValueError(f"tie_break must be 'random' or 'first', got {tie_break!r}")
        self.D = as_distance_lookup(D)
        self.cores = np.asarray(cores, dtype=np.int64)
        if self.cores.size == 0:
            raise ValueError("empty core set")
        if np.unique(self.cores).size != self.cores.size:
            raise ValueError("duplicate cores in pool")
        if self.cores.max() >= _n_rows(self.D) or self.cores.min() < 0:
            raise ValueError("core id outside the distance matrix")
        self.free = np.ones(self.cores.size, dtype=bool)
        self._pos: Dict[int, int] = {int(c): i for i, c in enumerate(self.cores)}
        self.rng = make_rng(rng)
        self.tie_break = tie_break
        # pool-local distance view (ref pool index -> distances to every
        # pool core), gathered lazily on the first closest-free query
        self._pool_D: Optional[np.ndarray] = None
        # per-reference row cache for implicit backends (pool pos -> row)
        self._row_cache: Dict[int, np.ndarray] = {}

    @property
    def n_free(self) -> int:
        """Number of cores still unassigned."""
        return int(self.free.sum())

    def is_free(self, core: int) -> bool:
        """True iff ``core`` has not been assigned yet."""
        return bool(self.free[self._pos[int(core)]])

    def take(self, core: int) -> None:
        """Mark ``core`` as assigned."""
        pos = self._pos.get(int(core))
        if pos is None:
            raise KeyError(f"core {core} is not in the pool")
        if not self.free[pos]:
            raise ValueError(f"core {core} already taken")
        self.free[pos] = False

    def _distances_to(self, ref_core: int) -> np.ndarray:
        """Distances from ``ref_core`` to every pool core (pool order).

        Reference cores are almost always pool members (heuristics chain
        off already-placed cores).  With a dense matrix the pool's own
        sub-matrix is gathered once and each later query is a row *view*;
        with an implicit backend each reference's row is computed once on
        first use and cached — either way, no per-placement
        fancy-indexing of a full matrix.
        """
        pos = self._pos.get(int(ref_core))
        if hasattr(self.D, "row"):  # implicit backend: rows on demand
            if pos is None:
                return self.D.row(int(ref_core), self.cores)
            row = self._row_cache.get(pos)
            if row is None:
                row = self.D.row(int(ref_core), self.cores)
                self._row_cache[pos] = row
            return row
        if pos is None:  # reference outside the pool: direct gather
            return self.D[int(ref_core), self.cores]
        if self._pool_D is None:
            self._pool_D = self.D[np.ix_(self.cores, self.cores)]
        return self._pool_D[pos]

    def closest_free(self, ref_core: int) -> int:
        """The paper's ``find_closest_to``: free core nearest ``ref_core``.

        Ties are broken randomly ("if more than one core satisfy this
        condition, one of them is chosen randomly", §V-A) or by lowest id.
        One masked scan over the cached distance view — no rebuild of the
        free-core array per placement.

        Raises
        ------
        PoolExhaustedError
            Every pool core is already assigned.
        """
        if not self.free.any():
            raise PoolExhaustedError(
                f"no free cores left in the pool ({self.cores.size} cores, all taken); "
                f"cannot place another process near core {int(ref_core)}"
            )
        dist = self._distances_to(ref_core)
        masked = np.where(self.free, dist, np.inf)
        if self.tie_break == "first":
            return int(self.cores[int(np.argmin(masked))])
        best = masked.min()
        candidates = np.flatnonzero(masked == best)
        return int(self.cores[candidates[self.rng.integers(candidates.size)]])

    def place_closest(self, ref_core: int) -> int:
        """Fused :meth:`closest_free` + :meth:`take` (the executor hot path).

        The picked core is free by construction, so the take-side
        revalidation is skipped.
        """
        target = self.closest_free(ref_core)
        self.free[self._pos[target]] = False
        return target

    def execute_program(self, program: Iterator[Tuple[int, int]], M: list) -> None:
        """Run a placement program, one :meth:`place_closest` per step."""
        place = self.place_closest
        for new_rank, ref_rank in program:
            M[new_rank] = place(M[ref_rank])


class _PoolStructure:
    """Immutable placement structure shared across pools over one core set.

    Everything here depends only on (backend, cores) and is never mutated
    during a mapping run, so :class:`HierarchicalFreePool` caches and
    shares these across instances; only the free-flag/free-count state is
    rebuilt per pool.
    """

    __slots__ = (
        "cores",
        "cores_l",
        "pos",
        "keys_l",
        "by_sock",
        "by_node",
        "by_leaf",
        "by_line",
        "sock_sizes",
        "node_sizes",
        "leaf_sizes",
        "line_sizes",
        "all_positions",
        "np_members",
    )

    def __init__(self, backend, cores: np.ndarray) -> None:
        self.cores = cores
        if cores.size == 0:
            raise ValueError("empty core set")
        if np.unique(cores).size != cores.size:
            raise ValueError("duplicate cores in pool")
        n_cores_total = _n_rows(backend)
        if cores.max() >= n_cores_total or cores.min() < 0:
            raise ValueError("core id outside the distance matrix")
        self.cores_l = cores.tolist()
        self.pos: Dict[int, int] = {c: i for i, c in enumerate(self.cores_l)}

        coords = backend.coords(cores)
        # One (gsock, node, leaf, line) tuple per pool position: the hot
        # path unpacks a single list slot instead of indexing four lists.
        self.keys_l = list(
            zip(
                coords.gsock.tolist(),
                coords.node.tolist(),
                coords.leaf.tolist(),
                coords.line.tolist(),
            )
        )

        # Per-group member positions, ascending (stable argsort of pool
        # positions ⇒ each group slice is sorted).
        self.by_sock = self._group_members(coords.gsock)
        self.by_node = self._group_members(coords.node)
        self.by_leaf = self._group_members(coords.leaf)
        self.by_line = self._group_members(coords.line)
        # Free-count templates, list-indexed by the *global* group id
        # (group ids of any valid core are bounded by the cluster-wide
        # group counts; list indexing beats dict hashing on the hot path).
        cl = backend.cluster
        n_nodes_total = -(-n_cores_total // int(cl.cores_per_node))
        sizes = {
            "sock_sizes": (self.by_sock, n_nodes_total * int(cl.machine.n_sockets)),
            "node_sizes": (self.by_node, n_nodes_total),
            "leaf_sizes": (self.by_leaf, -(-n_nodes_total // int(cl.network.config.nodes_per_leaf))),
            "line_sizes": (self.by_line, int(cl.network.config.lines_per_core)),
        }
        for attr, (groups, bound) in sizes.items():
            counts = [0] * bound
            for g, m in groups.items():
                counts[g] = len(m)
            setattr(self, attr, counts)
        self.all_positions = list(range(cores.size))
        # numpy mirrors of large member lists, built lazily on first gather
        # (shared across pools: contents are as immutable as the lists)
        self.np_members: Dict[int, np.ndarray] = {}

    @staticmethod
    def _group_members(keys: np.ndarray) -> Dict[int, list]:
        """Ascending pool positions per group id (vectorised build)."""
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        uniq, starts = np.unique(sorted_keys, return_index=True)
        bounds = np.append(starts, sorted_keys.size)
        return {
            int(g): order[bounds[i] : bounds[i + 1]].tolist() for i, g in enumerate(uniq)
        }


class HierarchicalFreePool:
    """Vectorised closest-free pool driven by hierarchy coordinates.

    Replaces the per-placement distance-row scan of :class:`CorePool`
    with group bookkeeping: the free cores nearest a reference core are
    exactly the free members of the deepest non-empty *annulus* around it
    (same socket; rest of the node; rest of the leaf; rest of the line
    switch; everything else) — provided the distance ladder is strictly
    increasing, which :class:`~repro.topology.implicit.ImplicitDistances`
    certifies via ``supports_vectorized_placement``.

    Free counts per socket / node / leaf / line are O(1)-updated on every
    placement, so each step of :meth:`execute_program` is a constant-time
    level pick plus one boolean gather over the (sorted, cached) winning
    annulus.  Candidate enumeration order equals the masked-argmin order
    of :class:`CorePool` (ascending pool position) and the rng is
    consumed identically — one draw per query in ``"random"`` mode, none
    in ``"first"`` mode — so placements are bit-identical to the
    reference executor.  The pool has no per-query API: ``CorePool`` is
    the per-query oracle.
    """

    #: member lists at or below this size are scanned in pure Python;
    #: larger ones go through a numpy boolean gather (lower per-element
    #: cost, higher fixed cost)
    _SCAN_THRESHOLD = 48

    #: per-backend LRU of shared :class:`_PoolStructure` instances
    #: (the structure depends only on backend + core set and is immutable,
    #: so repeated mappings over the same layout skip the group build)
    _structure_caches: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    _STRUCTURE_CACHE_SIZE = 32

    def __init__(
        self,
        backend,
        cores: Sequence[int],
        rng: RngLike = 0,
        tie_break: str = "random",
    ) -> None:
        if tie_break not in ("random", "first"):
            raise ValueError(f"tie_break must be 'random' or 'first', got {tie_break!r}")
        if not getattr(backend, "supports_vectorized_placement", False):
            raise ValueError(
                "HierarchicalFreePool needs an implicit distance backend with a "
                "strictly increasing ladder (ImplicitDistances.supports_vectorized_"
                "placement); pass the dense matrix to CorePool instead"
            )
        st = self._structure_for(backend, cores)
        self.cores = st.cores
        self.rng = make_rng(rng)
        self._randint = self.rng.integers
        self._first = tie_break == "first"
        n = len(st.cores_l)
        self._free_np = np.ones(n, dtype=bool)
        # positions taken since the numpy mask was last synced (the mask
        # is only needed for large-group gathers, so scalar stores are
        # batched into one fancy-index per gather instead)
        self._dirty: list = []
        self._free_l = [True] * n
        self._pos = st.pos
        self._cores_l = st.cores_l
        self._keys_l = st.keys_l
        self._by_sock, self._by_node = st.by_sock, st.by_node
        self._by_leaf, self._by_line = st.by_leaf, st.by_line
        self._all_positions = st.all_positions
        self._np_members = st.np_members

        # Pure-int coordinate arithmetic constants (the hot path must not
        # touch numpy for single-core coordinate lookups).
        cl = backend.cluster
        self._cpn = int(cl.cores_per_node)
        self._cps = int(cl.machine.cores_per_socket)
        self._nspn = int(cl.machine.n_sockets)
        self._npl = int(cl.network.config.nodes_per_leaf)
        self._nlines = int(cl.network.config.lines_per_core)

        # Mutable per-run state: free flags + per-group free counts
        # (list-indexed by global group id; see _PoolStructure).
        self._free_sock = list(st.sock_sizes)
        self._free_node = list(st.node_sizes)
        self._free_leaf = list(st.leaf_sizes)
        self._free_line = list(st.line_sizes)
        self._total_free = n
        # Telescoping free-member snapshots per large group (keyed like
        # ``np_members``): freeness only ever decreases, so the previous
        # snapshot is always a superset and each re-filter scans the
        # current free count, not the full group.
        self._free_snap: Dict[int, np.ndarray] = {}

    @classmethod
    def _structure_for(cls, backend, cores: Sequence[int]) -> "_PoolStructure":
        """Shared immutable structure for (backend, core set), LRU-cached."""
        arr = np.ascontiguousarray(np.asarray(cores, dtype=np.int64))
        per_backend = cls._structure_caches.get(backend)
        if per_backend is None:
            per_backend = OrderedDict()
            cls._structure_caches[backend] = per_backend
        key = arr.tobytes()
        st = per_backend.get(key)
        if st is not None:
            per_backend.move_to_end(key)
            return st
        st = _PoolStructure(backend, arr)
        per_backend[key] = st
        if len(per_backend) > cls._STRUCTURE_CACHE_SIZE:
            per_backend.popitem(last=False)
        return st

    def _coords_of(self, core: int) -> Tuple[int, int, int, int]:
        """(gsock, node, leaf, line) of a global core id — integer-only."""
        node = core // self._cpn
        gsock = node * self._nspn + (core % self._cpn) // self._cps
        leaf = node // self._npl
        return gsock, node, leaf, leaf % self._nlines

    @property
    def n_free(self) -> int:
        """Number of cores still unassigned."""
        return self._total_free

    def take(self, core: int) -> None:
        """Mark ``core`` as assigned (O(1) group-count updates)."""
        pos = self._pos.get(int(core))
        if pos is None:
            raise KeyError(f"core {core} is not in the pool")
        if not self._free_l[pos]:
            raise ValueError(f"core {core} already taken")
        self._free_l[pos] = False
        self._dirty.append(pos)
        gs, nd, lf, ln = self._keys_l[pos]
        self._free_sock[gs] -= 1
        self._free_node[nd] -= 1
        self._free_leaf[lf] -= 1
        self._free_line[ln] -= 1
        self._total_free -= 1

    def execute_program(self, program: Iterator[Tuple[int, int]], M: list) -> None:
        """Run a whole placement program in one tight loop.

        Semantically ``for new_rank, ref_rank in program: M[new_rank] =
        pool.place_closest(M[ref_rank])`` on a :class:`CorePool` over the
        same cores and rng — the differential tests walk the same programs
        on both — but with every hot attribute hoisted into a local, which
        removes ~40% of the per-placement interpreter overhead at p=4096.

        The closest free cores live in the deepest hierarchy group around
        the reference that still has one.  A level is consulted only when
        every deeper group's free count is zero, so the free members of
        the group *are* the free members of its annulus, and its free
        count ``k`` is the number of candidates ``CorePool`` enumerates.

        Raises
        ------
        PoolExhaustedError
            The program places more ranks than the pool has free cores.
        """
        pos_d = self._pos
        free_l = self._free_l
        keys_l = self._keys_l
        by_sock, by_node = self._by_sock, self._by_node
        by_leaf, by_line = self._by_leaf, self._by_line
        free_sock, free_node = self._free_sock, self._free_node
        free_leaf, free_line = self._free_leaf, self._free_line
        all_positions = self._all_positions
        np_members = self._np_members
        free_snap = self._free_snap
        cores_l = self._cores_l
        randint = self._randint
        first = self._first
        dirty = self._dirty
        free_np = self._free_np
        threshold = self._SCAN_THRESHOLD
        total_free = self._total_free
        try:
            for new_rank, ref_rank in program:
                if total_free == 0:
                    raise PoolExhaustedError(
                        f"no free cores left in the pool ({self.cores.size} cores, all "
                        f"taken); cannot place another process near core {M[ref_rank]}"
                    )
                ref_core = M[ref_rank]
                pos = pos_d.get(ref_core)
                if pos is not None and free_l[pos]:
                    # The reference itself is free: distance 0 beats every
                    # level.  CorePool draws integers(1) here, but that
                    # consumes no rng state, so skipping it keeps the
                    # streams aligned (as does the k == 1 skip below).
                    pick = pos
                else:
                    if pos is not None:
                        gs, nd, lf, ln = keys_l[pos]
                    else:
                        gs, nd, lf, ln = self._coords_of(int(ref_core))
                    if (k := free_sock[gs]) > 0:
                        members = by_sock[gs]
                    elif (k := free_node[nd]) > 0:
                        members = by_node[nd]
                    elif (k := free_leaf[lf]) > 0:
                        members = by_leaf[lf]
                    elif (k := free_line[ln]) > 0:
                        members = by_line[ln]
                    else:
                        members = all_positions
                        k = total_free
                    if len(members) <= threshold:
                        candidates = [m for m in members if free_l[m]]
                        pick = candidates[0] if first or k == 1 else candidates[randint(k)]
                    else:
                        if dirty:
                            if len(dirty) < 16:
                                for i in dirty:
                                    free_np[i] = False
                            else:
                                free_np[dirty] = False
                            dirty.clear()
                        key = id(members)
                        snap = free_snap.get(key)
                        if snap is None:
                            arr = np_members.get(key)
                            if arr is None:
                                arr = np.asarray(members, dtype=np.int64)
                                np_members[key] = arr
                            snap = arr[free_np[arr]]
                        else:
                            snap = snap[free_np[snap]]
                        free_snap[key] = snap
                        pick = snap[0] if first or k == 1 else snap[randint(k)]
                    pick = int(pick)
                free_l[pick] = False
                dirty.append(pick)
                gs, nd, lf, ln = keys_l[pick]
                free_sock[gs] -= 1
                free_node[nd] -= 1
                free_leaf[lf] -= 1
                free_line[ln] -= 1
                total_free -= 1
                M[new_rank] = cores_l[pick]
        finally:
            self._total_free = total_free


class Mapper(ABC):
    """Interface of every mapping algorithm.

    ``map`` consumes the initial layout (``layout[old_rank] = core``) and
    the distance matrix and produces the mapping array ``M`` with
    ``M[new_rank] = core`` — the paper's output ("a mapping array M
    representing the new rank for each process").  The cores of ``M`` are
    exactly those of ``layout`` and ``M[0] == layout[0]`` (rank 0 is fixed
    on its current core, Algorithm 1 step 1).
    """

    #: pattern key this mapper is fine-tuned for ("*" = pattern-agnostic)
    pattern: str = "*"
    #: short display name for reports
    name: str = "mapper"

    @abstractmethod
    def map(self, layout: Sequence[int], D, rng: RngLike = 0) -> np.ndarray:
        """Compute the mapping array ``M``."""

    @staticmethod
    def _finish(M: np.ndarray, layout: np.ndarray) -> np.ndarray:
        """Validate the result is a complete mapping over the same cores."""
        if np.any(M < 0):
            missing = np.flatnonzero(M < 0)[:4].tolist()
            raise RuntimeError(f"mapper left ranks unmapped: {missing}")
        if sorted(M.tolist()) != sorted(layout.tolist()):
            raise RuntimeError("mapper produced cores outside the layout")
        return M


class GreedyPlacementMapper(Mapper):
    """Shared executor for the paper's Algorithm-1 greedy heuristics.

    Subclasses supply only their *placement program* — the structural
    ``(new_rank, ref_rank)`` sequence (:meth:`placements`), which never
    depends on distances or randomness — and this base walks it against a
    free-core pool chosen by the distance backend (:meth:`_open_pool`):
    :class:`HierarchicalFreePool` when the backend supports vectorised
    placement, else the :class:`CorePool` reference.  Both consume the rng
    stream identically, so the produced permutations are bit-identical
    whichever backend carries the distances.
    """

    def __init__(self, tie_break: str = "random") -> None:
        if tie_break not in ("random", "first"):
            raise ValueError(f"tie_break must be 'random' or 'first', got {tie_break!r}")
        self.tie_break = tie_break

    @abstractmethod
    def placements(self, p: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(new_rank, ref_rank)`` pairs in placement order.

        Purely structural: the sequence depends only on ``p`` and the
        heuristic's parameters, never on the distance backend or rng.
        Rank 0 is pre-placed by the executor and must not be yielded.
        """

    def _validate_p(self, p: int) -> None:
        """Hook for heuristics with process-count constraints (e.g. RDMH)."""

    def _open_pool(self, D, L: np.ndarray, rng: RngLike):
        """The backend's executor: vectorised when supported, else the reference."""
        if getattr(D, "supports_vectorized_placement", False):
            return HierarchicalFreePool(D, L, rng=rng, tie_break=self.tie_break)
        return CorePool(D, L, rng=rng, tie_break=self.tie_break)

    def map(self, layout: Sequence[int], D, rng: RngLike = 0) -> np.ndarray:
        """Execute the placement program against the selected pool."""
        L = np.asarray(layout, dtype=np.int64)
        if L.size < 1:
            raise ValueError("empty layout")
        self._validate_p(L.size)
        pool = self._open_pool(D, L, rng)
        # Plain-int mapping list during the walk (one pool query + update
        # per placement; numpy scalar boxing would dominate at large p).
        M = [-1] * L.size
        M[0] = int(L[0])
        pool.take(M[0])
        pool.execute_program(self.placements(L.size), M)
        return self._finish(np.asarray(M, dtype=np.int64), L)


def map_batch(mappers, layout: Sequence[int], D, rngs, seconds_out=None) -> list:
    """Run several mappers over one (layout, backend) pair in a single pass.

    The per-topology setup every :meth:`GreedyPlacementMapper.map` call
    repeats — layout validation and the shared :class:`_PoolStructure`
    (group membership, free-count templates) — is warmed exactly once
    here and shared by all mappers; only the per-run free state is
    rebuilt per mapper.  Each mapper still draws from its *own* rng
    (``rngs[i]``), so every result is bit-identical to the corresponding
    standalone ``map`` call — this is the executor under
    :func:`repro.mapping.reorder.reorder_all`.

    Parameters
    ----------
    mappers:
        The mapper instances to run (typically one per registered
        heuristic).
    layout:
        The shared initial layout (``layout[old_rank] = core``).
    D:
        The shared distance backend (dense or implicit).
    rngs:
        One :data:`~repro.util.rng.RngLike` per mapper.
    seconds_out:
        Optional list; when given, the wall-clock seconds of each
        individual ``map`` call are appended to it (one entry per
        mapper), so callers can report per-heuristic timings without
        paying a second pass.

    Returns
    -------
    list of np.ndarray
        ``results[i] = mappers[i].map(layout, D, rng=rngs[i])``.
    """
    mappers = list(mappers)
    rngs = list(rngs)
    if len(rngs) != len(mappers):
        raise ValueError(f"got {len(mappers)} mappers but {len(rngs)} rngs")
    if not mappers:
        return []
    L = np.ascontiguousarray(np.asarray(layout, dtype=np.int64))
    if getattr(D, "supports_vectorized_placement", False):
        # Warm the shared immutable structure once; every pool the loop
        # below opens over (D, L) then hits the LRU instead of rebuilding
        # group membership.
        HierarchicalFreePool._structure_for(D, L)
    results = []
    for m, rng in zip(mappers, rngs):
        t0 = time.perf_counter()
        results.append(m.map(L, D, rng=rng))
        if seconds_out is not None:
            seconds_out.append(time.perf_counter() - t0)
    return results
