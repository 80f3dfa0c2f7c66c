"""End-to-end export: masks in, physically pruned model out.

Both modes order a segment by one rule (``_channel_order``): a copy-free
order of the kept slots if one exists (an exact consecutive-ones test per
band), else the layout of the largest subset of layers that can all slice,
the others gathering. Input mode lays out the consumers' retained
channels, read across their whole read vector; output mode the producers'
kept filters, each inside its own band. The order is planned once.
Segments nobody prunes are left untouched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping

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
    output_refusal,
    plan_baseline,
    plan_constrained,
    plan_export,
    plan_export_output,
    reduce_producers,
)
from reslice.segments import (Segment, UnsupportedTopologyError, find_segments,
                              producer_retained_slots, retained_slots)

# unused here, but bench/tracing.py patches these names on this module
from reslice.path_search import build_reorder_graph, decompose_paths, order_channels  # noqa: F401

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
    layers = segment.producer_slots if mode == MODE_OUTPUT else segment.consumer_slots
    return any(lid in masks and len(set(masks[lid])) < len(vec) for lid, vec in layers.items())


def _channel_order(segment: Segment, retained: Mapping[str, frozenset[int]],
                   reads: Mapping[str, tuple[int, ...]]) -> tuple[int, ...]:
    """The ordering rule of both modes: a copy-free order of the kept slots,
    else the layout of the largest subset of ``retained`` that can all be
    contiguous (``ordering``)."""
    order = find_zero_copy_order(segment, retained, reads)
    if order is None:
        order, _ = largest_c1p_order(segment, retained, reads)
    return order


def _plan_reorder(graph: ModelGraph, segment: Segment, masks: ChannelMask,
                  mode: str) -> SegmentPlan:
    if mode == MODE_OUTPUT:
        if output_refusal(graph, segment):  # the planner refuses it or keeps its layout
            return plan_export_output(graph, segment, (), masks)
        own_band = {p: (i,) for i, band in enumerate(segment.bands) for p in band.producers}
        order = _channel_order(segment, producer_retained_slots(segment, masks), own_band)
        return plan_export_output(graph, segment, order, masks)
    if segment.lock_reason:  # plan_export refuses an unsupported segment
        return plan_export(graph, segment, (), (), masks)
    order = _channel_order(segment, retained_slots(segment, masks), segment.band_reads)
    return plan_export(graph, segment, order, reduce_producers(segment), masks)


def _plan_segment(graph: ModelGraph, segment: Segment, masks: ChannelMask,
                  mode: str, strategy: str) -> SegmentPlan:
    if strategy == STRATEGY_REORDER:
        return _plan_reorder(graph, segment, masks, mode)
    if mode == MODE_OUTPUT:
        return plan_export_output(graph, segment, (), masks, STRATEGY_BASELINE)
    if strategy == STRATEGY_BASELINE:
        return plan_baseline(graph, segment, masks)
    return plan_constrained(graph, segment, masks)


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
            plans.append(_plan_segment(graph, segment, masks, mode, STRATEGY_BASELINE))
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
