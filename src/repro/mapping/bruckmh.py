"""BruckMH — mapping heuristic for the Bruck allgather pattern.

The paper's §VII names extending the heuristics to Bruck as future work;
this is that extension, built on the same Algorithm-1 scheme.  Bruck's
stage-``s`` exchange pairs rank ``r`` with ``(r ± 2^s) mod p`` and its
send count doubles with ``s`` (capped near the end for non-power-of-two
sizes), so — exactly like RDMH — the heuristic prioritises the partners
of the *latest* stages and promotes the reference after two placements.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.mapping.base import GreedyPlacementMapper
from repro.util.bits import ceil_log2

__all__ = ["BruckMH"]


class BruckMH(GreedyPlacementMapper):
    """Bruck-pattern mapping heuristic; valid for any process count."""

    pattern = "bruck"
    name = "bruckmh"

    def __init__(self, update_after: int = 2, tie_break: str = "random") -> None:
        if update_after < 1:
            raise ValueError(f"update_after must be >= 1, got {update_after}")
        super().__init__(tie_break=tie_break)
        self.update_after = update_after

    def placements(self, p: int) -> Iterator[Tuple[int, int]]:
        """Latest-stage partners first, reference promoted every two placements.

        Partner scans resume from a per-reference cursor: ``mapped`` only
        ever grows, so every candidate before the previous hit stays
        mapped and never needs re-checking — the total scan work is
        linear in the scan sequence length instead of quadratic.
        """
        if p == 1:
            return
        nst = ceil_log2(p)
        seq_len = 2 * nst
        mapped = [False] * p
        mapped[0] = True
        mapped_order = [0]
        cursors: dict = {}

        def first_unmapped(ref: int) -> Optional[int]:
            # Decreasing-stage candidate order (+dist then -dist), resumable.
            i = cursors.get(ref, 0)
            while i < seq_len:
                dist = 1 << (nst - 1 - (i >> 1))
                cand = (ref + dist) % p if (i & 1) == 0 else (ref - dist) % p
                if not mapped[cand] and cand != ref:
                    cursors[ref] = i
                    return cand
                i += 1
            cursors[ref] = i
            return None

        ref = 0
        placed_for_ref = 0
        n_mapped = 1
        while n_mapped < p:
            new_rank = first_unmapped(ref)
            if new_rank is None:
                for r in reversed(mapped_order):
                    new_rank = first_unmapped(r)
                    if new_rank is not None:
                        ref = r
                        break
                else:
                    # Fully disconnected leftovers cannot happen (the shift
                    # graph is connected), but keep a hard failure just in case.
                    raise RuntimeError("no rank with unmapped partners, yet ranks remain")
                placed_for_ref = 0
            yield new_rank, ref
            mapped[new_rank] = True
            mapped_order.append(new_rank)
            n_mapped += 1
            placed_for_ref += 1
            if placed_for_ref >= self.update_after:
                ref = new_rank
                placed_for_ref = 0
