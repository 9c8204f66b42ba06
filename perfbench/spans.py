"""Layer spans for the traced benchmark run, recorded from outside ``repro``.

The traced run wraps the public entry points of each layer in a shim
that records a span (name, start, end, parent, thread).  Spans are kept
in memory, turned into per-layer self times at the end, and written out
in the Chrome trace-event format that ``repro.simmpi.traceexport``
emits for simulated messages, so both open in the same viewer.

A span name is ``<layer>`` or ``<layer>:<detail>``; the layer is the
``repro`` module the callable lives in (``mapping.scotch``,
``simmpi.pricing``, ...).  Self time is a span's duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LAYERS",
    "Span",
    "SpanRecorder",
    "install_shims",
    "layer_of",
    "self_times",
    "spans_from_chrome",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: Every layer a shim can attribute time to, in report order.
LAYERS = (
    "mapping.scotch",
    "mapping.heuristic",
    "mapping.cache",
    "topology.routes",
    "topology.distances",
    "collectives.schedule",
    "simmpi.pricing",
    "evaluation",
    "serve.service",
)


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name: str, start: float, parent: Optional["Span"], thread: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


class SpanRecorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span called ``name`` around every call."""
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = stack_of()
            span = Span(name, clock(), stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)

        return shim


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``{id(span): self seconds}``: duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(id(sp.parent), []).append((sp.start, sp.end))
    return {
        id(sp): sp.duration - _covered(sp.start, sp.end, children.get(id(sp), ()))
        for sp in spans
    }


def summarize(
    spans: Sequence[Span], window: Optional[Tuple[float, float]] = None
) -> Dict[str, Dict[str, float]]:
    """Per-layer ``{"calls", "self_s", "total_s"}``.

    ``calls`` counts entries into a layer: spans whose parent belongs to
    another layer (or who have none), so a mapper's ``map`` inside the
    same layer's ``reorder_all`` is one call, not two.  ``window``
    keeps only spans that start inside it.
    """
    if window is not None:
        lo, hi = window
        spans = [sp for sp in spans if lo <= sp.start <= hi]
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {
        layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for layer in LAYERS
    }
    for sp in spans:
        layer = layer_of(sp.name)
        row = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["self_s"] += own[id(sp)]
        if sp.parent is None or layer_of(sp.parent.name) != layer:
            row["calls"] += 1
            row["total_s"] += sp.duration
    return out


def to_chrome_trace(spans: Sequence[Span], pid: int = 0) -> dict:
    """Chrome trace-event JSON ("X" complete events, microseconds)."""
    index = {id(sp): i for i, sp in enumerate(spans)}
    events = []
    for i, sp in enumerate(spans):
        events.append(
            {
                "name": sp.name,
                "cat": layer_of(sp.name),
                "ph": "X",
                "ts": sp.start * 1e6,
                "dur": max(sp.duration, 1e-9) * 1e6,
                "pid": pid,
                "tid": sp.thread,
                "args": {
                    "id": i,
                    "parent": index.get(id(sp.parent)) if sp.parent is not None else None,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path, pid: int = 0) -> None:
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(spans, pid), fh)


def spans_from_chrome(trace: dict) -> List[Span]:
    """Rebuild spans (with parent links) from :func:`to_chrome_trace` output."""
    events = trace["traceEvents"]
    spans = [
        Span(ev["name"], ev["ts"] / 1e6, None, ev["tid"]) for ev in events
    ]
    for sp, ev in zip(spans, events):
        sp.end = sp.start + ev["dur"] / 1e6
        parent = ev["args"].get("parent")
        if parent is not None:
            sp.parent = spans[parent]
    return spans


# ----------------------------------------------------------------------
# shims
# ----------------------------------------------------------------------
def _patch_everywhere(original: Callable, shim: Callable) -> None:
    """Rebind ``original`` to ``shim`` in every loaded ``repro`` module.

    Modules that did ``from repro.mapping.reorder import reorder_all``
    hold their own reference, so patching the defining module alone
    misses their calls.
    """
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, shim)


def _patch_method(rec: SpanRecorder, cls: type, attr: str, name: str) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, rec.wrap(original, name))


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        for sub in c.__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def install_shims(rec: SpanRecorder) -> None:
    """Wrap each layer's public callables so calls record spans.

    Imports every module that looks the shimmed functions up by name
    first, so the rebinding reaches them.  ``reorder_ranks`` is left
    alone: it only dispatches (cache lookup, pattern graph, one
    ``Mapper.map``), so a Scotch-like request served from the cache
    records no ``mapping.scotch`` time.
    """
    import repro.cli  # noqa: F401
    import repro.evaluation.evaluator as evaluator
    import repro.faults.recover  # noqa: F401
    import repro.mapping  # noqa: F401
    import repro.serve.server  # noqa: F401
    import repro.serve.service as service
    from repro.collectives.schedule import CollectiveAlgorithm
    from repro.mapping import base, reorder
    from repro.mapping.cache import MappingCache
    from repro.mapping.scotch import ScotchLikeMapper
    from repro.simmpi.engine import TimingEngine
    from repro.topology.cluster import ClusterTopology
    from repro.topology.implicit import ImplicitDistances

    # module-level functions, rebound wherever they were imported
    for fn, name in (
        (reorder.reorder_all, "mapping.heuristic:reorder_all"),
        (base.map_batch, "mapping.heuristic:map_batch"),
    ):
        _patch_everywhere(fn, rec.wrap(fn, name))

    # methods, patched on the class that defines them
    _patch_method(rec, ScotchLikeMapper, "map", "mapping.scotch:map")
    for cls in [base.GreedyPlacementMapper] + _subclasses(base.GreedyPlacementMapper):
        if "map" in cls.__dict__:
            _patch_method(rec, cls, "map", f"mapping.heuristic:{cls.__name__}.map")
    _patch_method(rec, MappingCache, "get_arrays", "mapping.cache:get_arrays")
    _patch_method(rec, ClusterTopology, "routes_for", "topology.routes:routes_for")
    _patch_method(rec, ImplicitDistances, "row", "topology.distances:row")
    _patch_method(rec, ImplicitDistances, "__getitem__", "topology.distances:getitem")
    for cls in _subclasses(CollectiveAlgorithm):
        if "schedule" in cls.__dict__:
            _patch_method(rec, cls, "schedule", f"collectives.schedule:{cls.__name__}")
    _patch_method(rec, TimingEngine, "evaluate_sizes", "simmpi.pricing:evaluate_sizes")
    _patch_method(rec, TimingEngine, "evaluate", "simmpi.pricing:evaluate")
    for attr in ("default_latencies", "reordered_latencies"):
        _patch_method(rec, evaluator.AllgatherEvaluator, attr, f"evaluation:{attr}")
    for attr in ("reorder", "reorder_warm", "reorder_batch", "price"):
        _patch_method(rec, service.ReorderService, attr, f"serve.service:{attr}")
