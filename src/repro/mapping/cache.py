"""Content-addressed mapping cache (in-memory LRU + optional disk tier).

"The whole rank reordering process happens only once at run-time" — but
sweeps, fault-recovery drills and repeated evaluator runs recompute the
same reordering thousands of times.  Every mapping this repo produces is
a pure function of

* the **topology fingerprint** (structural parameters + link weights,
  :meth:`~repro.topology.cluster.ClusterTopology.fingerprint`),
* the **initial layout** (the exact core array),
* the **mapper identity** (pattern, kind, constructor kwargs), and
* the **integer rng seed**,

so a sha256 over those fields addresses the result exactly.  The cache
stores entries under that key in a bounded in-memory LRU and, when a
directory is configured, as one JSON file per key written through
:mod:`repro.util.atomicio` (crash-safe, and warm across processes — the
parallel sweep driver's workers inherit the directory via the
``REPRO_MAPPING_CACHE`` environment variable).

Every mapper kwarg is content.  Generator rng objects are not: only
plain integer seeds are reproducible content, so
:func:`repro.mapping.reorder.reorder_ranks` bypasses the cache entirely
for live generators.

Entries are validated on the way out (the mapping must be a permutation
of the cached layout); anything torn or stale is treated as a miss and
rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.util.atomicio import atomic_write_json

__all__ = [
    "MAPPING_CACHE_ENV",
    "MappingCache",
    "global_mapping_cache",
    "mapping_cache_key",
]

#: Environment variable naming the on-disk cache directory.  Unset or
#: empty means the process-global cache is memory-only.
MAPPING_CACHE_ENV = "REPRO_MAPPING_CACHE"


def _normalise(value: Any) -> Any:
    """JSON-stable view of a mapper kwarg value."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    return value


def mapping_cache_key(
    fingerprint: str,
    pattern: str,
    kind: str,
    layout: np.ndarray,
    seed: int,
    mapper_kwargs: Optional[Mapping[str, Any]] = None,
) -> str:
    """Content address of one mapping computation."""
    kwargs = {k: _normalise(v) for k, v in sorted((mapper_kwargs or {}).items())}
    payload = json.dumps(
        {
            "fingerprint": fingerprint,
            "pattern": pattern,
            "kind": kind,
            "seed": int(seed),
            "kwargs": kwargs,
        },
        sort_keys=True,
    ).encode()
    h = hashlib.sha256(payload)
    h.update(np.ascontiguousarray(np.asarray(layout, dtype=np.int64)).tobytes())
    return h.hexdigest()


class MappingCache:
    """Bounded in-memory LRU over mapping entries, with a disk tier.

    Parameters
    ----------
    directory:
        Optional on-disk tier: one ``<key>.json`` file per entry,
        written atomically.  Created on first write.
    max_memory_entries:
        In-memory LRU bound; the disk tier is unbounded.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        max_memory_entries: int = 256,
    ) -> None:
        if max_memory_entries < 1:
            raise ValueError(f"max_memory_entries must be >= 1, got {max_memory_entries}")
        self.directory = Path(directory) if directory else None
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        # int64 (layout, mapping) views of each memory entry, built once
        # at admission so repeat hits skip list round-trips entirely.
        self._arrays: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        # Guards _memory/_arrays: the serve daemon answers warm hits from
        # its event loop thread while the pipeline lane admits entries.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _path_for(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key}.json"

    @staticmethod
    def _valid(entry: Any) -> bool:
        """True iff ``entry`` looks like an intact mapping record."""
        if not isinstance(entry, dict):
            return False
        mapping = entry.get("mapping")
        layout = entry.get("layout")
        if not isinstance(mapping, list) or not isinstance(layout, list):
            return False
        return len(mapping) == len(layout) and sorted(mapping) == sorted(layout)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Entry for ``key``, or None; corrupt entries count as misses."""
        hit = self.get_arrays(key)
        return hit[0] if hit is not None else None

    def get_arrays(
        self, key: str
    ) -> Optional[Tuple[Dict[str, Any], np.ndarray, np.ndarray]]:
        """Hit as ``(entry, layout, mapping)`` with int64 array views.

        The arrays are the cache's own (built once at admission): callers
        must treat them as read-only and copy before mutating.  This is
        the hot serving path — a warm hit does no per-element work.
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return (entry,) + self._arrays[key]
        path = self._path_for(key)
        if path is not None and path.exists():
            try:
                entry = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                entry = None
            if self._valid(entry):
                with self._lock:
                    self._remember(key, entry)
                    self.hits += 1
                    return (entry,) + self._arrays[key]
        self.misses += 1
        return None

    def put(self, key: str, entry: Dict[str, Any]) -> None:
        """Store ``entry`` in memory and (when configured) on disk."""
        if not self._valid(entry):
            raise ValueError("refusing to cache an invalid mapping entry")
        with self._lock:
            self._remember(key, entry)
        path = self._path_for(key)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_json(path, entry)

    def peek(self, key: str) -> bool:
        """True iff ``key`` is resident in the memory tier.

        No counter updates, no LRU movement, no disk probe — this is the
        serve daemon's warm-test (safe to call from a thread other than
        the one mutating the cache, since it is one dict lookup).
        """
        return key in self._memory

    def _remember(self, key: str, entry: Dict[str, Any]) -> None:
        self._memory[key] = entry
        self._arrays[key] = (
            np.asarray(entry["layout"], dtype=np.int64),
            np.asarray(entry["mapping"], dtype=np.int64),
        )
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            gone, _ = self._memory.popitem(last=False)
            self._arrays.pop(gone, None)
            self.evictions += 1

    def clear(self) -> None:
        """Drop the in-memory tier (disk files are left in place)."""
        with self._lock:
            self._memory.clear()
            self._arrays.clear()

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot (what the daemon's ``stats`` op reports)."""
        return {
            "entries": len(self._memory),
            "max_memory_entries": self.max_memory_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "directory": str(self.directory) if self.directory else None,
        }

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.directory) if self.directory else "memory-only"
        return (
            f"MappingCache({where}, entries={len(self._memory)}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )


_GLOBAL_CACHE: Optional[MappingCache] = None
_GLOBAL_CACHE_DIR: Optional[str] = None


def global_mapping_cache() -> MappingCache:
    """The process-wide cache, honouring :data:`MAPPING_CACHE_ENV`.

    Rebuilt whenever the environment variable changes, so worker
    processes (and tests) that set or clear it get a cache matching the
    current configuration rather than a stale singleton.
    """
    global _GLOBAL_CACHE, _GLOBAL_CACHE_DIR
    directory = os.environ.get(MAPPING_CACHE_ENV) or None
    if _GLOBAL_CACHE is None or directory != _GLOBAL_CACHE_DIR:
        _GLOBAL_CACHE = MappingCache(directory=directory)
        _GLOBAL_CACHE_DIR = directory
    return _GLOBAL_CACHE
