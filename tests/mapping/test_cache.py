"""Content-addressed mapping cache tests (memory tier, disk tier, wiring)."""

import json

import numpy as np
import pytest

from repro.mapping.cache import (
    MAPPING_CACHE_ENV,
    MappingCache,
    global_mapping_cache,
    mapping_cache_key,
)
from repro.mapping.initial import make_layout
from repro.mapping.reorder import reorder_ranks
from repro.util.rng import make_rng


def _entry(layout):
    return {
        "mapping": list(reversed(layout)),
        "layout": list(layout),
        "mapper_name": "test",
        "map_seconds": 0.01,
        "graph_seconds": 0.0,
    }


class TestCacheKey:
    def test_deterministic(self):
        L = np.arange(8, dtype=np.int64)
        a = mapping_cache_key("fp", "ring", "heuristic", L, 0, {"tie_break": "first"})
        b = mapping_cache_key("fp", "ring", "heuristic", L, 0, {"tie_break": "first"})
        assert a == b

    @pytest.mark.parametrize(
        "change",
        [
            {"fingerprint": "other"},
            {"pattern": "bruck"},
            {"kind": "scotch"},
            {"seed": 1},
            {"layout": np.arange(1, 9)},
            {"kwargs": {"tie_break": "random"}},
        ],
    )
    def test_every_field_is_content(self, change):
        base = dict(
            fingerprint="fp",
            pattern="ring",
            kind="heuristic",
            layout=np.arange(8),
            seed=0,
            kwargs={"tie_break": "first"},
        )
        a = mapping_cache_key(
            base["fingerprint"], base["pattern"], base["kind"],
            base["layout"], base["seed"], base["kwargs"],
        )
        base.update(change)
        b = mapping_cache_key(
            base["fingerprint"], base["pattern"], base["kind"],
            base["layout"], base["seed"], base["kwargs"],
        )
        assert a != b

    @pytest.mark.parametrize(
        "kind, kwargs, expected",
        [
            (
                "heuristic",
                {},
                "356c7e2e13ca89e6c83ed713c9986706e69ceef1878d3e3ffc585e9a28100172",
            ),
            (
                "heuristic",
                {"tie_break": "first"},
                "02d7aaf399158de64778619123d9ac8de8a6087297e891d4258364ed11eb889f",
            ),
            (
                "scotch",
                {"refine_passes": np.int64(2)},
                "e14a6b8813dc127822ec63f6b95b87414ed53f4acf9259fb793bdf713355370e",
            ),
        ],
    )
    def test_keys_are_pinned(self, kind, kwargs, expected):
        # A re-key silently cold-starts every existing disk tier
        # (REPRO_MAPPING_CACHE), so the hex output is frozen.
        L = np.arange(8, dtype=np.int64)
        assert mapping_cache_key("fp", "ring", kind, L, 0, kwargs) == expected


class TestMappingCache:
    def test_memory_roundtrip_and_stats(self):
        cache = MappingCache()
        assert cache.get("k") is None
        cache.put("k", _entry([3, 1, 2]))
        assert cache.get("k")["mapping"] == [2, 1, 3]
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_bound(self):
        cache = MappingCache(max_memory_entries=2)
        for i in range(3):
            cache.put(f"k{i}", _entry([i, i + 1]))
        assert len(cache) == 2
        assert cache.get("k0") is None  # evicted oldest

    def test_invalid_entry_rejected(self):
        cache = MappingCache()
        with pytest.raises(ValueError, match="invalid"):
            cache.put("k", {"mapping": [0, 1], "layout": [5, 6]})

    def test_disk_tier_warm_across_instances(self, tmp_path):
        a = MappingCache(directory=tmp_path)
        a.put("deadbeef", _entry([0, 1, 2, 3]))
        b = MappingCache(directory=tmp_path)
        assert b.get("deadbeef")["mapping"] == [3, 2, 1, 0]

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = MappingCache(directory=tmp_path)
        cache.put("k", _entry([0, 1]))
        (tmp_path / "k.json").write_text("{ torn")
        cache.clear()
        assert cache.get("k") is None

    def test_tampered_disk_entry_is_a_miss(self, tmp_path):
        cache = MappingCache(directory=tmp_path)
        cache.put("k", _entry([0, 1]))
        bad = _entry([0, 1])
        bad["mapping"] = [0, 7]  # not a permutation of the layout
        (tmp_path / "k.json").write_text(json.dumps(bad))
        cache.clear()
        assert cache.get("k") is None


class TestGlobalCache:
    def test_follows_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv(MAPPING_CACHE_ENV, raising=False)
        assert global_mapping_cache().directory is None
        monkeypatch.setenv(MAPPING_CACHE_ENV, str(tmp_path))
        assert global_mapping_cache().directory == tmp_path
        monkeypatch.delenv(MAPPING_CACHE_ENV)
        assert global_mapping_cache().directory is None


class TestReorderRanksCaching:
    def test_hit_reproduces_mapping(self, mid_cluster):
        cache = MappingCache()
        L = make_layout("cyclic-bunch", mid_cluster, 16)
        impl = mid_cluster.implicit_distances()
        first = reorder_ranks("ring", L, impl, rng=4, cache=cache)
        again = reorder_ranks("ring", L, impl, rng=4, cache=cache)
        assert not first.cached and again.cached
        assert np.array_equal(first.mapping, again.mapping)
        assert again.mapper_name == first.mapper_name

    def test_dense_matrix_bypasses_cache(self, mid_cluster, mid_D):
        # No fingerprint on a plain ndarray -> nothing content-addressable.
        cache = MappingCache()
        L = make_layout("block-bunch", mid_cluster, 16)
        res = reorder_ranks("ring", L, mid_D, rng=0, cache=cache)
        assert not res.cached and len(cache) == 0

    def test_generator_rng_bypasses_cache(self, mid_cluster):
        cache = MappingCache()
        L = make_layout("block-bunch", mid_cluster, 16)
        impl = mid_cluster.implicit_distances()
        res = reorder_ranks("ring", L, impl, rng=make_rng(0), cache=cache)
        assert not res.cached and len(cache) == 0

    def test_cache_off_and_bad_value(self, mid_cluster):
        L = make_layout("block-bunch", mid_cluster, 16)
        impl = mid_cluster.implicit_distances()
        res = reorder_ranks("ring", L, impl, rng=0, cache="off")
        assert not res.cached
        with pytest.raises(ValueError, match="cache"):
            reorder_ranks("ring", L, impl, rng=0, cache=42)

    def test_disk_hit_across_processes_shape(self, tmp_path, mid_cluster):
        # Same directory, fresh cache object — models a pool worker
        # inheriting REPRO_MAPPING_CACHE from the sweep driver.
        L = make_layout("cyclic-scatter", mid_cluster, 32)
        impl = mid_cluster.implicit_distances()
        first = reorder_ranks(
            "bruck", L, impl, rng=9, cache=MappingCache(directory=tmp_path)
        )
        again = reorder_ranks(
            "bruck", L, impl, rng=9, cache=MappingCache(directory=tmp_path)
        )
        assert not first.cached and again.cached
        assert np.array_equal(first.mapping, again.mapping)
        assert len(list(tmp_path.glob("*.json"))) == 1
