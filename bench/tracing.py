"""Spans around reslice's layers, recorded from outside the program.

``Tracer.install`` replaces the public functions of each ``reslice``
module with timing wrappers, at the names through which ``reslice.cli``
and ``reslice.pipeline`` (and the modules they call) look them up. Nothing
under ``src/`` is edited; ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent]``, with ``parent`` the index of the
enclosing span or -1. Spans stay in memory until the run writes them out.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import json
import logging
import time
from collections import Counter, defaultdict
from pathlib import Path

import reslice.cli
import reslice.graph
import reslice.interp
import reslice.path_search
import reslice.pipeline
import reslice.planner


def _rg_size(tracer: "Tracer", rg) -> None:
    tracer.counts["reorder_graph.nodes"] += len(rg.nodes)
    tracer.counts["reorder_graph.edges"] += len(rg.edges)


def _segment_count(tracer: "Tracer", segments) -> None:
    tracer.counts["segments.count"] += len(segments)


def _rescue_found(tracer: "Tracer", layouts) -> None:
    tracer.counts["ordering.rescue_found"] += layouts is not None


def _export_copies(tracer: "Tracer", result) -> None:
    tracer.counts["planner.copied_channels"] += result.totals.copied
    tracer.counts["planner.gathers"] += sum(
        a.mode == "gather" for plan in result.plans for a in plan.consumers)


# (module or class, attribute, span name or None for a call count only,
#  callback on the result)
PATCHES = [
    (reslice.graph.ModelGraph, "topological_order", "graph.topo", None),
    (reslice.graph, "validate", "graph.validate", None),
    (reslice.planner, "validate", "graph.validate", None),
    (reslice.cli, "load_model", "graph.load", None),
    (reslice.cli, "load_masks", "graph.load_masks", None),
    (reslice.cli, "save_model", "graph.save", None),
    (reslice.cli, "save_plans", "planner.save_plans", None),
    (reslice.cli, "load_plans", "planner.load_plans", None),
    (reslice.cli, "export_model", "pipeline.export_model", _export_copies),
    (reslice.cli, "apply_plan", "planner.apply", None),
    (reslice.cli, "check_equivalence", "interp.check_equivalence", None),
    (reslice.interp, "run", "interp.run", None),
    (reslice.pipeline, "plan_model", "pipeline.plan_model", None),
    (reslice.pipeline, "find_segments", "segments.find", _segment_count),
    (reslice.pipeline, "build_reorder_graph", "reorder_graph.build", _rg_size),
    (reslice.pipeline, "reduce_producers", "reorder_graph.reduce_producers", None),
    (reslice.pipeline, "decompose_paths", "path_search.decompose", None),
    (reslice.path_search, "solve_mrap", None, None),
    (reslice.pipeline, "order_channels", "ordering.order", None),
    (reslice.pipeline, "find_zero_copy_order", "ordering.rescue", _rescue_found),
    (reslice.pipeline, "plan_export", "planner.plan", None),
    (reslice.pipeline, "apply_plan", "planner.apply", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        """Call ``fn()`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn()
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(self, result)
        return result

    def _wrap(self, owner, attr: str, name: str | None, on_result):
        original = getattr(owner, attr)
        calls = f"{attr}.calls"

        def wrapper(*args, **kwargs):
            if name is None:
                self.counts[calls] += 1
                return original(*args, **kwargs)
            return self.span(name, lambda: original(*args, **kwargs), on_result)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for owner, attr, name, on_result in PATCHES:
            self._wrap(owner, attr, name, on_result)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": self.spans, "counts": dict(self.counts)}))


def self_times(spans: list[list], first: int = 0) -> list[float]:
    """Self time of every span from index ``first`` on (children of a span
    always come after it in the list)."""
    own = [end - start for _, start, end, _ in spans[first:]]
    for _, start, end, parent in spans[first:]:
        if parent >= first:
            own[parent - first] -= end - start
    return own


def summarize(spans: list[list], first: int = 0) -> dict[str, list]:
    """name -> [calls, total duration, total self time] over spans[first:];
    names without spans read as zeros."""
    own = self_times(spans, first)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _), mine in zip(spans[first:], own):
        rec = out[name]
        rec[0] += 1
        rec[1] += end - start
        rec[2] += mine
    return out


class LogCounter(logging.Handler):
    """Counts log records instead of printing them."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records: Counter = Counter()
        self.greedy = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.records[f"{record.name}:{record.levelname}"] += 1
        if record.name == "reslice.path_search" and "greedy" in record.getMessage():
            self.greedy += 1
