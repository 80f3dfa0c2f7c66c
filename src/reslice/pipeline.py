"""End-to-end export: masks in, physically pruned model out.

Per segment in input mode: look for a copy-free channel order first (an
exact consecutive-ones test per band). Only when none exists, lay out the
largest subset of consumers that can all slice and let the others gather.
Either order is planned once. Output mode orders channels by the path
search (``plan_export_output``). Segments nobody prunes are left
untouched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from reslice.graph import ChannelMask, ModelGraph, ValidationError, WeightStore, validate_masks
from reslice.ordering import find_zero_copy_order, largest_c1p_order
from reslice.planner import (
    MODE_INPUT,
    MODE_OUTPUT,
    STRATEGY_BASELINE,
    STRATEGY_CONSTRAINED,
    STRATEGY_REORDER,
    CopyStats,
    SegmentPlan,
    apply_plan,
    copy_report,
    plan_baseline,
    plan_constrained,
    plan_export,
    plan_export_output,
)
from reslice.reorder_graph import UnsupportedTopologyError, reduce_producers, retained_slots
from reslice.segments import Segment, find_segments

# unused here, but bench/tracing.py patches these names on this module
from reslice.ordering import order_channels  # noqa: F401
from reslice.path_search import decompose_paths  # noqa: F401
from reslice.reorder_graph import build_reorder_graph  # noqa: F401

log = logging.getLogger(__name__)

ON_UNSUPPORTED_ERROR = "error"
ON_UNSUPPORTED_BASELINE = "baseline"


@dataclass(frozen=True)
class ExportResult:
    graph: ModelGraph
    weights: WeightStore
    plans: tuple[SegmentPlan, ...]
    totals: CopyStats
    fallbacks: tuple[str, ...]  # segments exported via the baseline fallback


def _is_pruned(segment: Segment, masks: ChannelMask, mode: str) -> bool:
    if mode == MODE_OUTPUT:
        return any(p in masks and len(masks[p]) < len(segment.producer_slots[p])
                   for p in segment.producers)
    return any(c in masks and len(masks[c]) < len(segment.consumer_slots[c])
               for c in segment.consumers)


def _plan_reorder_input(graph: ModelGraph, segment: Segment, masks: ChannelMask) -> SegmentPlan:
    if segment.lock_reason:  # plan_export refuses an unsupported segment
        return plan_export(graph, segment, (), (), masks)
    retained = retained_slots(segment, masks)
    order = find_zero_copy_order(segment, retained)
    if order is None:
        order, _ = largest_c1p_order(segment, retained)
    return plan_export(graph, segment, order, reduce_producers(segment), masks)


def _plan_segment(graph: ModelGraph, segment: Segment, masks: ChannelMask,
                  mode: str, strategy: str) -> SegmentPlan:
    if mode == MODE_OUTPUT:
        return plan_export_output(graph, segment, masks, strategy)
    if strategy == STRATEGY_BASELINE:
        return plan_baseline(graph, segment, masks)
    if strategy == STRATEGY_CONSTRAINED:
        return plan_constrained(graph, segment, masks)
    return _plan_reorder_input(graph, segment, masks)


def plan_model(graph: ModelGraph, masks: ChannelMask, mode: str = MODE_INPUT,
               strategy: str = STRATEGY_REORDER,
               on_unsupported: str = ON_UNSUPPORTED_ERROR,
               ) -> tuple[list[SegmentPlan], list[str]]:
    """Plan every pruned segment. Returns (plans, baseline-fallback ids)."""
    if mode not in (MODE_INPUT, MODE_OUTPUT):
        raise ValidationError([f"unknown mode {mode!r}"])
    if strategy not in (STRATEGY_REORDER, STRATEGY_BASELINE, STRATEGY_CONSTRAINED):
        raise ValidationError([f"unknown strategy {strategy!r}"])
    if mode == MODE_OUTPUT and strategy == STRATEGY_CONSTRAINED:
        raise ValidationError(["constrained strategy applies to input-side pruning only"])
    if on_unsupported not in (ON_UNSUPPORTED_ERROR, ON_UNSUPPORTED_BASELINE):
        raise ValidationError([f"unknown unsupported-topology policy {on_unsupported!r}"])
    diags = validate_masks(graph, masks, mode)
    if diags:
        raise ValidationError(diags)

    plans: list[SegmentPlan] = []
    fallbacks: list[str] = []
    for segment in find_segments(graph):
        if not _is_pruned(segment, masks, mode):
            continue
        try:
            plans.append(_plan_segment(graph, segment, masks, mode, strategy))
        except UnsupportedTopologyError as exc:
            if on_unsupported != ON_UNSUPPORTED_BASELINE:
                raise
            log.warning("segment %s: %s; falling back to baseline", segment.id, exc.reason)
            if mode == MODE_OUTPUT:
                plans.append(plan_export_output(graph, segment, masks, STRATEGY_BASELINE))
            else:
                plans.append(plan_baseline(graph, segment, masks))
            fallbacks.append(segment.id)
    return plans, fallbacks


def export_model(graph: ModelGraph, weights: WeightStore, masks: ChannelMask,
                 mode: str = MODE_INPUT, strategy: str = STRATEGY_REORDER,
                 on_unsupported: str = ON_UNSUPPORTED_ERROR) -> ExportResult:
    """Plan and apply the full export; pure (inputs untouched)."""
    plans, fallbacks = plan_model(graph, masks, mode, strategy, on_unsupported)
    out_graph, out_weights = apply_plan(plans, graph, weights)
    return ExportResult(
        graph=out_graph, weights=out_weights, plans=tuple(plans),
        totals=copy_report(plans), fallbacks=tuple(fallbacks),
    )
