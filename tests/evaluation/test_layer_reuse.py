"""Each hierarchical layer is computed once, and the reuse is exact.

The intra-node layer is shared by both leader patterns, rng-free
Scotch-like intra maps are memoised on their distance submatrix, and
schedules are keyed on group structure.  Every test here compares the
shared path against a fresh computation that reuses nothing.
"""

import itertools
import time

import numpy as np
import pytest

from repro.evaluation.evaluator import AllgatherEvaluator
from repro.mapping.initial import make_layout
from repro.mapping.patterns import build_pattern
from repro.mapping.scotch import ScotchLikeMapper
from repro.topology.cluster import DEFAULT_DISTANCE_WEIGHTS, ClusterTopology, LinkClass
from repro.topology.gpc import gpc_cluster
from repro.util.rng import make_rng

KINDS = ("heuristic", "scotch")
INTRAS = ("binomial", "linear")
LEADERS = ("recursive-doubling", "ring")
SEED = 1234


@pytest.fixture(scope="module")
def cluster16():
    return gpc_cluster(n_nodes=16)


@pytest.fixture(scope="module")
def custom_cluster():
    # Equal socket and node weights: same-socket and cross-socket pairs
    # tie, so the intra submatrices differ from the default cluster's.
    weights = dict(DEFAULT_DISTANCE_WEIGHTS)
    weights[LinkClass.QPI] = 0.0
    return ClusterTopology(n_nodes=16, distance_weights=weights)


def _shuffled_block(cluster, p, seed):
    """Block layout with a random core order inside every node."""
    L = make_layout("block-bunch", cluster, p).reshape(-1, cluster.cores_per_node)
    rng = make_rng(seed)
    for row in L:
        rng.shuffle(row)
    return L.reshape(-1)


def _layouts(cluster):
    rng = make_rng(5)
    return {
        "block-bunch": make_layout("block-bunch", cluster, cluster.n_cores),
        "block-scatter": make_layout("block-scatter", cluster, cluster.n_cores),
        "shuffled": _shuffled_block(cluster, cluster.n_cores, 9),
        # partial last node: groups of 8 and one of 5
        "partial": make_layout("block-bunch", cluster, cluster.n_cores - 3),
        # random subset of cores: groups of unequal sizes, 1-core ones too
        "ragged": rng.permutation(cluster.n_cores)[: cluster.n_cores // 2],
    }


def _same(a, b):
    ra, ga, _ = a
    rb, gb, _ = b
    return np.array_equal(ra.mapping, rb.mapping) and ga == gb


class TestIntraLayerReuse:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("intra", INTRAS)
    def test_leader_order_does_not_matter(self, cluster16, kind, intra):
        """rd->ring, ring->rd and ring alone give the same reorderings."""
        L = make_layout("block-scatter", cluster16, cluster16.n_cores)
        runs = {}
        for order in (LEADERS, LEADERS[::-1], ("ring",)):
            ev = AllgatherEvaluator(cluster16)
            runs[order] = {
                pt: ev._hierarchical_reordering(L, kind, intra, pt, SEED) for pt in order
            }
        ref = runs[LEADERS]
        for got in runs.values():
            for pt, res in got.items():
                assert _same(res, ref[pt])

    @pytest.mark.parametrize("kind", KINDS)
    def test_public_path_matches_fresh(self, cluster16, kind):
        """Reports from an evaluator that shares layers equal fresh ones."""
        L = _shuffled_block(cluster16, cluster16.n_cores, 3)
        sizes = [64, 1 << 16]  # rd leaders, then ring leaders
        shared = AllgatherEvaluator(cluster16)
        for intra in INTRAS:
            batch = shared.reordered_latencies(L, sizes, kind, "initcomm", True, intra)
            for bb, rep in zip(sizes, batch):
                fresh = AllgatherEvaluator(cluster16).reordered_latency(
                    L, bb, kind, "initcomm", True, intra
                )
                assert (rep.algorithm, rep.seconds, rep.strategy) == (
                    fresh.algorithm,
                    fresh.seconds,
                    fresh.strategy,
                )


class TestScotchMemo:
    @pytest.mark.parametrize("which", ["default", "custom"])
    @pytest.mark.parametrize(
        "layout", ["block-bunch", "block-scatter", "shuffled", "partial", "ragged"]
    )
    def test_memo_equals_direct_map(self, cluster16, custom_cluster, which, layout, monkeypatch):
        cluster = cluster16 if which == "default" else custom_cluster
        L = _layouts(cluster)[layout]
        ev = AllgatherEvaluator(cluster)
        calls = []
        real_map = ScotchLikeMapper.map

        def counting_map(self, *args, **kw):
            calls.append(1)
            return real_map(self, *args, **kw)

        monkeypatch.setattr(ScotchLikeMapper, "map", counting_map)
        layer = ev._intra_layer(L, "scotch", "binomial", SEED)
        monkeypatch.setattr(ScotchLikeMapper, "map", real_map)

        groups = ev.groups_from_layout(L)
        D = cluster.implicit_distances()
        for g, got in zip(groups, layer.cores):
            cores_g = L[np.asarray(g)]
            if len(g) == 1:
                want = cores_g
            else:
                want = ScotchLikeMapper(build_pattern("binomial-gather", len(g))).map(cores_g, D)
            assert np.array_equal(got, want)
        distinct = {
            ev.distances[L[g][:, None], L[g][None, :]].tobytes() for g in map(np.asarray, groups)
            if len(g) > 1
        }
        assert len(calls) == len(distinct)

    def test_collapsed_weights_key_separately(self, cluster16, custom_cluster):
        """Same layout, different weights: each cluster maps by its own
        distances, never by a node-relative pattern."""
        L = make_layout("block-scatter", cluster16, cluster16.n_cores)
        for cluster in (cluster16, custom_cluster):
            layer = AllgatherEvaluator(cluster)._intra_layer(L, "scotch", "binomial", SEED)
            graph = build_pattern("binomial-gather", cluster.cores_per_node)
            want = ScotchLikeMapper(graph).map(L[:8], cluster.implicit_distances())
            assert np.array_equal(layer.cores[0], want)


class TestOverheadAccounting:
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_charge_per_map(self, cluster16, kind, monkeypatch):
        """Overhead = intra layer + leader map, each map (memo hits too)
        charged once: with a clock that ticks 1 s per read, every timed
        map costs exactly 1 s."""
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        L = make_layout("block-bunch", cluster16, cluster16.n_cores)
        ev = AllgatherEvaluator(cluster16)
        n_groups = len(ev.groups_from_layout(L))
        # scotch's leader map also times its pattern-graph build
        leader_seconds = 2.0 if kind == "scotch" else 1.0
        for pt in LEADERS:
            _, _, overhead = ev._hierarchical_reordering(L, kind, "binomial", pt, SEED)
            layer = ev._intra_layer(L, kind, "binomial", SEED)
            assert layer.seconds == float(n_groups)
            assert overhead == layer.seconds + leader_seconds

    @pytest.mark.parametrize("kind", KINDS)
    def test_reported_overhead_positive(self, cluster16, kind):
        L = make_layout("block-scatter", cluster16, cluster16.n_cores)
        ev = AllgatherEvaluator(cluster16)
        for rep in ev.reordered_latencies(L, [64, 1 << 16], kind, "initcomm", True):
            assert rep.reorder_seconds > 0


class TestScheduleKeys:
    def test_cyclic_groups_get_their_own_schedule(self, cluster16):
        block = make_layout("block-bunch", cluster16, cluster16.n_cores)
        cyclic = make_layout("cyclic-bunch", cluster16, cluster16.n_cores)
        shared = AllgatherEvaluator(cluster16)
        shared.default_latency(block, 64, hierarchical=True)
        shared.reordered_latency(block, 64, "heuristic", hierarchical=True)
        # block default and block reordered share contiguous groups
        assert len(shared._schedule_cache) == 1
        got = shared.default_latency(cyclic, 64, hierarchical=True)
        assert len(shared._schedule_cache) == 2
        want = AllgatherEvaluator(cluster16).default_latency(cyclic, 64, hierarchical=True)
        assert got == want


class TestFlatCacheKey:
    def test_intra_call_order(self, mid_cluster):
        """The flat reordering seed depends on ``intra``, so the cache key
        must too: both call orders cache equal mappings."""
        L = make_layout("cyclic-scatter", mid_cluster, 64)
        a, b = AllgatherEvaluator(mid_cluster), AllgatherEvaluator(mid_cluster)
        for ev, order in ((a, INTRAS), (b, INTRAS[::-1])):
            for intra in order:
                ev.reordered_latencies(L, [64, 1 << 16], "heuristic", "initcomm", False, intra)
        for intra in INTRAS:
            for pattern in ("recursive-doubling", "ring"):
                ra = a.flat_reordering(L, pattern, "heuristic", intra)
                rb = b.flat_reordering(L, pattern, "heuristic", intra)
                assert np.array_equal(ra.mapping, rb.mapping)
