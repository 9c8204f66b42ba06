"""OSU-micro-benchmark-style latency sweeps (paper §VI-A).

The paper measures MPI_Allgather latency with the OSU micro-benchmarks
over message sizes 1 B - 256 KiB at 4096 processes, for four initial
mappings, and reports the percentage improvement of each reordering
scheme over the default.  These sweep functions produce exactly those
series; the figure benches under ``benchmarks/`` print them.

The sweep is organised so the *size* loop is innermost and batched: per
(layout, mapper, strategy) grid cell one
:meth:`~repro.evaluation.evaluator.AllgatherEvaluator.reordered_latencies`
call prices every message size against shared route/alpha/unit-load
tables (see ``docs/performance.md``).

The grid has one owner: :func:`sweep_cells` names the cells,
:func:`price_cell` prices one and :func:`points_from_cells` merges them.
The serial sweeps below and the checkpointed runner
(:mod:`repro.bench.runner`: journal, process pool) share these three, and
reordering seeds come from cell content, so any cell order gives the
same points.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Mapping, Sequence


from repro.evaluation.evaluator import AllgatherEvaluator, LatencyReport
from repro.mapping.initial import make_layout

__all__ = [
    "OSU_SIZES",
    "SweepPoint",
    "sweep_nonhierarchical",
    "sweep_hierarchical",
    "sweep_cells",
    "price_cell",
    "points_from_cells",
]

#: Message sizes of the paper's sweeps: 1 B .. 256 KiB in powers of two.
OSU_SIZES = [1 << k for k in range(19)]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a paper figure."""

    layout: str
    block_bytes: int
    mapper: str            # "heuristic" | "scotch" | "greedy"
    strategy: str          # requested restoration strategy
    hierarchical: bool
    intra: str
    algorithm: str
    base_us: float
    tuned_us: float

    @property
    def improvement_pct(self) -> float:
        """Percent latency improvement over the default mapping."""
        if self.base_us == 0.0:
            return 0.0
        return 100.0 * (self.base_us - self.tuned_us) / self.base_us

    @property
    def series(self) -> str:
        """Legend label, paper-style (e.g. ``Hrstc+initComm``)."""
        mapper = {"heuristic": "Hrstc", "scotch": "Scotch", "greedy": "Greedy"}.get(
            self.mapper, self.mapper
        )
        strat = {"initcomm": "initComm", "endshfl": "endShfl"}.get(
            self.strategy, self.strategy
        )
        return f"{mapper}+{strat}"


def sweep_nonhierarchical(
    evaluator: AllgatherEvaluator,
    p: int,
    layouts: Sequence[str] = ("block-bunch", "block-scatter", "cyclic-bunch", "cyclic-scatter"),
    sizes: Iterable[int] = OSU_SIZES,
    mappers: Sequence[str] = ("heuristic", "scotch"),
    strategies: Sequence[str] = ("initcomm", "endshfl"),
) -> List[SweepPoint]:
    """The Fig. 3 sweep: non-hierarchical allgather, four initial mappings."""
    return _sweep(evaluator, p, layouts, sizes, mappers, strategies, False, "binomial")


def sweep_hierarchical(
    evaluator: AllgatherEvaluator,
    p: int,
    layouts: Sequence[str] = ("block-bunch", "block-scatter"),
    sizes: Iterable[int] = OSU_SIZES,
    mappers: Sequence[str] = ("heuristic", "scotch"),
    strategies: Sequence[str] = ("initcomm", "endshfl"),
    intra: str = "binomial",
) -> List[SweepPoint]:
    """The Fig. 4 sweep: hierarchical allgather, block mappings only.

    The paper skips cyclic mappings here ("hierarchical allgather is not
    supported with cyclic mapping" in MVAPICH).
    """
    return _sweep(evaluator, p, layouts, sizes, mappers, strategies, True, intra)


def sweep_cells(layouts: Sequence[str], mappers: Sequence[str]) -> List[str]:
    """Grid cell ids in canonical order: ``base::<layout>`` (default
    mapping) per layout, then ``tuned::<layout>::<mapper>`` (every
    restoration strategy of that reordering) per (layout, mapper)."""
    out = [f"base::{lname}" for lname in layouts]
    out += [f"tuned::{lname}::{mapper}" for lname in layouts for mapper in mappers]
    return out


def price_cell(
    evaluator: AllgatherEvaluator,
    p: int,
    cell: str,
    sizes: Sequence[int],
    strategies: Sequence[str],
    hierarchical: bool,
    intra: str,
) -> Dict:
    """Price one grid cell; returns its JSON-serialisable payload.

    Deterministic given the arguments: reordering seeds come from the
    layout/mapper content, so the same cell priced in another process,
    or again on resume, yields the same payload.
    """
    parts = cell.split("::")
    if (parts[0], len(parts)) not in (("base", 2), ("tuned", 3)):
        raise ValueError(f"unknown cell id {cell!r}")
    L = make_layout(parts[1], evaluator.cluster, p)
    sizes = list(sizes)
    if parts[0] == "base":
        reports = evaluator.default_latencies(L, sizes, hierarchical, intra)
        return {
            "cell": cell,
            "kind": "base",
            "layout": parts[1],
            "reports": [asdict(r) for r in reports],
        }
    by_strategy = {
        strategy: [
            asdict(r)
            for r in evaluator.reordered_latencies(
                L, sizes, parts[2], strategy, hierarchical, intra
            )
        ]
        for strategy in strategies
    }
    return {
        "cell": cell,
        "kind": "tuned",
        "layout": parts[1],
        "mapper": parts[2],
        "strategies": by_strategy,
    }


def points_from_cells(
    done: Mapping[str, Dict],
    layouts: Sequence[str],
    sizes: Sequence[int],
    mappers: Sequence[str],
    strategies: Sequence[str],
    hierarchical: bool,
    intra: str,
) -> List[SweepPoint]:
    """Priced cell payloads -> SweepPoints, in canonical sweep order.

    Cells absent from ``done`` (quarantined, or never computed) are
    skipped; a missing base cell drops its whole layout, since
    improvement percentages need the baseline.
    """
    points: List[SweepPoint] = []
    for lname in layouts:
        base = done.get(f"base::{lname}")
        if base is None:
            continue
        base_reports = [LatencyReport(**d) for d in base["reports"]]
        for si, bb in enumerate(sizes):
            for mapper in mappers:
                tuned = done.get(f"tuned::{lname}::{mapper}")
                if tuned is None:
                    continue
                for strategy in strategies:
                    rep = LatencyReport(**tuned["strategies"][strategy][si])
                    points.append(
                        SweepPoint(
                            layout=lname,
                            block_bytes=int(bb),
                            mapper=mapper,
                            strategy=strategy,
                            hierarchical=hierarchical,
                            intra=intra,
                            algorithm=rep.algorithm,
                            base_us=base_reports[si].seconds * 1e6,
                            tuned_us=rep.seconds * 1e6,
                        )
                    )
    return points


def _sweep(
    evaluator: AllgatherEvaluator,
    p: int,
    layouts: Sequence[str],
    sizes: Iterable[int],
    mappers: Sequence[str],
    strategies: Sequence[str],
    hierarchical: bool,
    intra: str,
) -> List[SweepPoint]:
    sizes = list(sizes)
    done = {
        cell: price_cell(evaluator, p, cell, sizes, strategies, hierarchical, intra)
        for cell in sweep_cells(layouts, mappers)
    }
    return points_from_cells(done, layouts, sizes, mappers, strategies, hierarchical, intra)
