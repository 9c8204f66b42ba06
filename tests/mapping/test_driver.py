"""Placement-identity tests: the CorePool oracle vs. the vectorised driver.

The distance backend picks the executor: a dense matrix runs the naive
per-query :class:`repro.mapping.base.CorePool`, a strict-ladder implicit
backend the vectorised :class:`repro.mapping.base.HierarchicalFreePool`
(driven by ``execute_program``).  The two must agree *bit for bit* —
same cores, same rng stream, both tie-break modes — otherwise cached
mappings and benchmark cross-checks would silently drift between
backends.
"""

import numpy as np
import pytest

from repro.mapping.base import (
    CorePool,
    HierarchicalFreePool,
    PoolExhaustedError,
)
from repro.mapping.bbmh import BBMH
from repro.mapping.bgmh import BGMH
from repro.mapping.bruckmh import BruckMH
from repro.mapping.initial import make_layout
from repro.mapping.rdmh import RDMH
from repro.mapping.rmh import RMH
from repro.topology.cluster import (
    DEFAULT_DISTANCE_WEIGHTS,
    ClusterTopology,
    LinkClass,
)
from repro.topology.gpc import gpc_cluster
from repro.util.rng import make_rng

HEURISTICS = [RMH, RDMH, BBMH, BGMH, BruckMH]
#: Heuristics without a power-of-two constraint on p.
ANY_P_HEURISTICS = [RMH, BGMH, BruckMH]


@pytest.fixture(scope="module")
def big_cluster():
    """32 nodes x 8 cores = 256 cores, spanning two leaf switches."""
    return gpc_cluster(n_nodes=32)


def _both_engines(cls, cluster, layout, tie_break, seed, vect_seed=None):
    """Map on the dense backend (CorePool) and the implicit one (vectorised)."""
    mapper = cls(tie_break=tie_break)
    naive = mapper.map(layout, cluster.distance_matrix(), rng=seed)
    vect = mapper.map(
        layout, cluster.implicit_distances(), rng=seed if vect_seed is None else vect_seed
    )
    return naive, vect


class TestPlacementIdentity:
    @pytest.mark.parametrize("cls", HEURISTICS)
    @pytest.mark.parametrize("p", [4, 16, 64])
    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_engines_bit_identical_small(self, mid_cluster, cls, p, tie_break):
        for lname in ("block-bunch", "cyclic-scatter"):
            L = make_layout(lname, mid_cluster, p)
            for seed in (0, 7):
                naive, vect = _both_engines(cls, mid_cluster, L, tie_break, seed)
                assert np.array_equal(naive, vect), (cls.__name__, lname, seed)

    @pytest.mark.parametrize("cls", HEURISTICS)
    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_engines_bit_identical_p256(self, big_cluster, cls, tie_break):
        L = make_layout("block-bunch", big_cluster, 256)
        naive, vect = _both_engines(cls, big_cluster, L, tie_break, 3)
        assert np.array_equal(naive, vect)

    @pytest.mark.parametrize("cls", ANY_P_HEURISTICS)
    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_engines_bit_identical_after_shrink(self, mid_cluster, cls, tie_break):
        # Post-failure pools are irregular: whole nodes missing, free
        # groups of uneven size — exactly where the hierarchical
        # bookkeeping could diverge from the reference.
        survivors = mid_cluster.shrink([2, 5])
        assert survivors.size == 48
        naive, vect = _both_engines(cls, mid_cluster, survivors, tie_break, 11)
        assert np.array_equal(naive, vect)

    @pytest.mark.parametrize("cls", HEURISTICS)
    def test_engines_bit_identical_partial_survivors(self, mid_cluster, cls):
        # Power-of-two slice of the survivor pool, so RDMH/BBMH join in.
        survivors = mid_cluster.shrink([1, 6])[:32]
        naive, vect = _both_engines(cls, mid_cluster, survivors, "random", 5)
        assert np.array_equal(naive, vect)

    @pytest.mark.parametrize("cls", HEURISTICS)
    def test_rng_stream_identical_after_map(self, mid_cluster, cls):
        """Shared-Generator callers see the exact same stream afterwards."""
        L = make_layout("cyclic-bunch", mid_cluster, 64)
        g1, g2 = make_rng(99), make_rng(99)
        naive, vect = _both_engines(cls, mid_cluster, L, "random", g1, g2)
        assert np.array_equal(naive, vect)
        assert g1.bit_generator.state == g2.bit_generator.state
        assert g1.integers(1 << 30) == g2.integers(1 << 30)

    def test_non_pcg64_generator(self, mid_cluster):
        """Tie-break draws agree for any bit generator, not just PCG64."""
        L = make_layout("block-bunch", mid_cluster, 32)
        g1 = np.random.Generator(np.random.MT19937(5))  # noqa: REP001
        g2 = np.random.Generator(np.random.MT19937(5))  # noqa: REP001
        naive, vect = _both_engines(RMH, mid_cluster, L, "random", g1, g2)
        assert np.array_equal(naive, vect)
        assert g1.integers(1 << 30) == g2.integers(1 << 30)


def _collapsed_ladder_cluster():
    # Zero LEAF_LINE weight collapses the same-leaf and same-line levels:
    # that implicit backend advertises no vectorised support.
    weights = dict(DEFAULT_DISTANCE_WEIGHTS)
    weights[LinkClass.LEAF_LINE] = 0.0
    return ClusterTopology(n_nodes=8, distance_weights=weights)


class TestPoolSelection:
    def test_backend_picks_the_pool(self, mid_cluster):
        # A collapsed-ladder implicit backend gets the CorePool oracle,
        # like a dense matrix does.
        collapsed = _collapsed_ladder_cluster()
        assert not collapsed.implicit_distances().supports_vectorized_placement
        mapper = RMH()
        L = make_layout("block-bunch", mid_cluster, 16)
        for D, expected in (
            (mid_cluster.implicit_distances(), HierarchicalFreePool),
            (collapsed.implicit_distances(), CorePool),
            (mid_cluster.distance_matrix(), CorePool),
        ):
            assert type(mapper._open_pool(D, L, 0)) is expected


class TestEngineSelection:
    def test_auto_falls_back_on_collapsed_ladder(self):
        # The collapsed backend falls back to the CorePool oracle and
        # still maps exactly like its dense matrix.
        cluster = _collapsed_ladder_cluster()
        impl = cluster.implicit_distances()
        assert not impl.supports_vectorized_placement
        L = make_layout("block-bunch", cluster, 16)
        assert type(RMH()._open_pool(impl, L, 0)) is CorePool
        assert np.array_equal(
            RMH().map(L, impl, rng=2),
            RMH().map(L, cluster.distance_matrix(), rng=2),
        )


class TestHierarchicalFreePool:
    def test_exhaustion_raises_typed_error(self, mid_cluster):
        pool = HierarchicalFreePool(
            mid_cluster.implicit_distances(), np.arange(4), rng=0
        )
        M = [0, -1, -1, -1, -1]
        pool.take(0)
        with pytest.raises(PoolExhaustedError, match="no free cores"):
            pool.execute_program(((r, 0) for r in range(1, 5)), M)
        assert sorted(M[1:4]) == [1, 2, 3] and M[4] == -1 and pool.n_free == 0

    def test_exhaustion_error_matches_reference(self, mid_cluster):
        """A program placing more ranks than there are cores raises the
        same PoolExhaustedError on both backends."""

        class Overfull(RMH):
            def placements(self, p):
                return ((1, 0) for _ in range(p))

        L = make_layout("block-bunch", mid_cluster, 16)
        messages = []
        for D in (mid_cluster.distance_matrix(), mid_cluster.implicit_distances()):
            with pytest.raises(PoolExhaustedError) as exc_info:
                Overfull().map(L, D, rng=0)
            messages.append(str(exc_info.value))
        assert messages[0] == messages[1]

    def test_closest_free_matches_reference(self, mid_cluster, mid_D):
        """A random ``(new_rank, ref_rank)`` program — references in any
        order, not a heuristic's chain — run through ``execute_program``
        picks exactly what ``CorePool.place_closest`` picks, rng stream
        included."""
        impl = mid_cluster.implicit_distances()
        for tie_break in ("random", "first"):
            for seed in (0, 7, 123):
                rng = make_rng(seed)
                cores = rng.permutation(mid_D.shape[0])[:40]
                order = [0] + (1 + rng.permutation(cores.size - 1)).tolist()
                # each rank references one placed before it
                program = [
                    (order[i], order[int(rng.integers(i))]) for i in range(1, cores.size)
                ]
                ref = CorePool(mid_D, cores, rng=seed, tie_break=tie_break)
                M_ref = [-1] * cores.size
                M_ref[0] = int(cores[0])
                ref.take(M_ref[0])
                for new_rank, ref_rank in program:
                    M_ref[new_rank] = ref.place_closest(M_ref[ref_rank])
                pool = HierarchicalFreePool(impl, cores, rng=seed, tie_break=tie_break)
                M = [-1] * cores.size
                M[0] = int(cores[0])
                pool.take(M[0])
                pool.execute_program(iter(program), M)
                assert M == M_ref, (tie_break, seed)
                # both pools drew the same number of tie-breaks
                assert ref.rng.integers(1 << 30) == pool.rng.integers(1 << 30)
