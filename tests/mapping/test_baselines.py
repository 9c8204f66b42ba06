"""General-purpose baseline mappers: Scotch-like and Hoefler-Snir greedy."""

import numpy as np
import pytest

from repro.mapping.greedy import GreedyGraphMapper
from repro.mapping.initial import block_bunch, cyclic_scatter
from repro.mapping.metrics import hop_bytes
from repro.mapping.patterns import build_pattern
from repro.mapping.scotch import ScotchLikeMapper
from repro.util.rng import make_rng


class TestScotchLike:
    def test_permutation_output(self, mid_cluster, mid_D):
        g = build_pattern("ring", 32)
        layout = cyclic_scatter(mid_cluster, 32)
        M = ScotchLikeMapper(g).map(layout, mid_D, rng=0)
        assert sorted(M.tolist()) == sorted(layout.tolist())

    def test_improves_scattered_ring(self, mid_cluster, mid_D):
        g = build_pattern("ring", 64)
        layout = cyclic_scatter(mid_cluster, 64)
        M = ScotchLikeMapper(g).map(layout, mid_D, rng=0)
        assert hop_bytes(g, M, mid_D) < hop_bytes(g, layout, mid_D)

    def test_size_mismatch_rejected(self, mid_D):
        g = build_pattern("ring", 8)
        with pytest.raises(ValueError, match="pattern graph"):
            ScotchLikeMapper(g).map(np.arange(16), mid_D)

    def test_refine_passes_validation(self):
        g = build_pattern("ring", 8)
        with pytest.raises(ValueError):
            ScotchLikeMapper(g, refine_passes=-1)

    def test_zero_passes_still_valid(self, mid_cluster, mid_D):
        g = build_pattern("recursive-doubling", 16)
        layout = block_bunch(mid_cluster, 16)
        M = ScotchLikeMapper(g, refine_passes=0).map(layout, mid_D, rng=0)
        assert sorted(M.tolist()) == sorted(layout.tolist())

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 17, 32])
    def test_odd_sizes(self, p, mid_cluster, mid_D):
        g = build_pattern("ring", p)
        layout = block_bunch(mid_cluster, p)
        M = ScotchLikeMapper(g).map(layout, mid_D, rng=1)
        assert sorted(M.tolist()) == sorted(layout.tolist())

    @pytest.mark.parametrize("pattern", ["ring", "recursive-doubling", "binomial-gather"])
    def test_reads_no_rng(self, pattern, mid_cluster):
        """Output is equal across seeds and a passed generator is left
        untouched, on the dense and the implicit backend alike (the
        evaluator memoises intra-node maps on this)."""
        g = build_pattern(pattern, 32)
        layout = cyclic_scatter(mid_cluster, 32)
        for D in (mid_cluster.distance_matrix(), mid_cluster.implicit_distances()):
            ref = ScotchLikeMapper(g).map(layout, D, rng=0)
            for seed in (1, 12345):
                assert np.array_equal(ScotchLikeMapper(g).map(layout, D, rng=seed), ref)
            gen = make_rng(7)
            state = gen.bit_generator.state
            assert np.array_equal(ScotchLikeMapper(g).map(layout, D, rng=gen), ref)
            assert gen.bit_generator.state == state


class TestGreedy:
    def test_permutation_output(self, mid_cluster, mid_D):
        g = build_pattern("binomial-gather", 32)
        layout = cyclic_scatter(mid_cluster, 32)
        M = GreedyGraphMapper(g).map(layout, mid_D, rng=0)
        assert sorted(M.tolist()) == sorted(layout.tolist())
        assert M[0] == layout[0]  # greedy fixes rank 0 like the heuristics

    def test_improves_scattered_gather(self, mid_cluster, mid_D):
        g = build_pattern("binomial-gather", 64)
        layout = cyclic_scatter(mid_cluster, 64)
        M = GreedyGraphMapper(g).map(layout, mid_D, rng=0)
        assert hop_bytes(g, M, mid_D) <= hop_bytes(g, layout, mid_D)

    def test_size_mismatch_rejected(self, mid_D):
        g = build_pattern("ring", 8)
        with pytest.raises(ValueError):
            GreedyGraphMapper(g).map(np.arange(4), mid_D)
