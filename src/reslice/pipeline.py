"""End-to-end export: masks in, physically pruned model out.

Per segment: build the reorder graph over masked consumers, decompose it
into paths, emit a channel order, and plan the rewrite. If the planned
order still copies and the exhaustive pattern search finds a copy-free
layout, that layout wins. Segments nobody prunes are left untouched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from reslice.graph import ChannelMask, ModelGraph, ValidationError, WeightStore, validate_masks
from reslice.ordering import find_zero_copy_order, order_channels
from reslice.path_search import decompose_paths
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
from reslice.reorder_graph import UnsupportedTopologyError, build_reorder_graph, reduce_producers, retained_slots
from reslice.segments import Segment, find_segments

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
    rg = build_reorder_graph(segment, masks)
    paths = decompose_paths(rg)
    order = order_channels(rg, paths)
    equivalences = reduce_producers(segment)
    plan = plan_export(graph, segment, order, equivalences, masks)
    if plan.stats.copied:
        zero_copy = find_zero_copy_order(graph, segment, retained_slots(segment, masks))
        if zero_copy is not None:
            rescued = plan_export(graph, segment, zero_copy, equivalences, masks)
            if rescued.stats.copied == 0:
                return rescued
    return plan


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
