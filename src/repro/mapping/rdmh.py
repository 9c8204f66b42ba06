"""RDMH — mapping heuristic for recursive doubling (paper Algorithm 2).

Recursive doubling doubles its message size every stage, so the pairs of
the *last* stages matter most.  RDMH therefore walks partners in
decreasing stage order: starting from rank 0, it places ``0 XOR p/2``
(rank 0's last-stage partner) as close as possible to rank 0, then
``0 XOR p/4``, and so on — and after placing two processes with respect to
the current reference it promotes the newest placement to be the new
reference and restarts from the last stage.  The paper motivates the
cadence of two: the newest rank lets the next choice come from the
largest-message stage *and* its partner already touches two mapped ranks.

``update_after`` parameterises that cadence for the ablation bench
(``benchmarks/bench_ablation_rdmh_refcore.py``); 2 is the paper's value.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.mapping.base import GreedyPlacementMapper
from repro.util.bits import is_power_of_two

__all__ = ["RDMH"]


class RDMH(GreedyPlacementMapper):
    """Recursive-doubling mapping heuristic."""

    pattern = "recursive-doubling"
    name = "rdmh"

    def __init__(self, update_after: int = 2, tie_break: str = "random") -> None:
        if update_after < 1:
            raise ValueError(f"update_after must be >= 1, got {update_after}")
        super().__init__(tie_break=tie_break)
        self.update_after = update_after

    def _validate_p(self, p: int) -> None:
        if p > 1 and not is_power_of_two(p):
            raise ValueError(f"RDMH requires a power-of-two process count, got {p}")

    def placements(self, p: int) -> Iterator[Tuple[int, int]]:
        """Partners in decreasing stage order with reference promotion."""
        if p == 1:
            return
        mapped = [False] * p
        mapped[0] = True
        mapped_order = [0]
        ref = 0
        i = p // 2  # start from the last stage
        placed_for_ref = 0
        n_mapped = 1
        while n_mapped < p:
            # Fall back to earlier stages only once later-stage partners
            # of the reference are exhausted (paper Alg. 2 lines 5-7).
            while i >= 1 and mapped[ref ^ i]:
                i //= 2
            if i < 1:
                # All partners of the reference are mapped.  The paper's
                # pseudo-code assumes this never happens before completion;
                # guard it by rewinding to the most recent placement that
                # still has an unmapped partner (keeps the same spirit:
                # prefer recent, large-message placements).
                ref = self._rewind(mapped_order, mapped, p)
                i = p // 2
                placed_for_ref = 0
                continue
            new_rank = ref ^ i
            yield new_rank, ref
            mapped[new_rank] = True
            mapped_order.append(new_rank)
            n_mapped += 1
            placed_for_ref += 1
            if placed_for_ref >= self.update_after:
                ref = new_rank       # promote the newest placement
                i = p // 2           # and restart from the last stage
                placed_for_ref = 0

    @staticmethod
    def _rewind(mapped_order, mapped, p: int) -> int:
        """Most recently mapped rank that still has an unmapped partner."""
        for r in reversed(mapped_order):
            i = p // 2
            while i >= 1:
                if not mapped[r ^ i]:
                    return r
                i //= 2
        raise RuntimeError("no rank with unmapped partners, yet ranks remain")
