"""End-to-end export: masks in, physically pruned model out.

The strategies differ only in the order each gives a segment's channels;
``_segment_order`` picks it for all of them, and the planner turns it into
a plan. Reorder's rule in both modes (``_channel_order``) is a copy-free
order of the kept slots if one exists (an exact consecutive-ones test per
band), else the layout of the largest subset of layers that can all slice,
the others gathering: of the consumers' retained channels in input mode,
of the producers' kept filters, each inside its own band, in output mode.
Segments nobody prunes are left untouched, and a segment whose layout a
strategy cannot change gets no order and keeps its layout, so export never
refuses one. Each segment's masks are resolved once (``_resolve``) and the
result is what ordering and planning read.
"""

from __future__ import annotations

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
    plan_export,
    plan_export_output,
)
from reslice.segments import (Retained, Segment, _retained_indices, find_segments,
                              producer_retained_slots, retained_slots)

# unused here, but bench/tracing.py patches these names on this module
from reslice.path_search import (build_reorder_graph, decompose_paths,  # noqa: F401
                                 order_channels, reduce_producers)


@dataclass(frozen=True)
class ExportResult:
    graph: ModelGraph
    weights: WeightStore
    plans: tuple[SegmentPlan, ...]
    totals: CopyStats
    fallbacks: tuple[str, ...]  # output-mode segments given the baseline infill under reorder


def _resolve(segment: Segment, masks: ChannelMask, mode: str) -> Retained:
    """The segment's masks, resolved once for ordering and planning: the
    producers' in output mode, the consumers' in input mode."""
    if mode == MODE_OUTPUT:
        return _retained_indices(segment.producer_slots, masks, "output mask")
    return _retained_indices(segment.consumer_slots, masks)


def _channel_order(segment: Segment, retained: Mapping[str, frozenset[int]],
                   reads: Mapping[str, tuple[int, ...]]) -> tuple[int, ...]:
    """The reorder rule of both modes: a copy-free order of the kept slots,
    else the layout of the largest subset of ``retained`` that can all be
    contiguous (``ordering``)."""
    order = find_zero_copy_order(segment, retained, reads)
    if order is None:
        order, _ = largest_c1p_order(segment, retained, reads)
    return order


def _segment_order(segment: Segment, kept: Retained, mode: str,
                   strategy: str) -> tuple[int, ...] | None:
    """The channel order ``strategy`` gives the segment, or None where it
    keeps its layout: when it is locked, and under the output baseline.

    Reorder takes ``_channel_order``. Constrained takes the in-place order:
    the slots where they are, minus those every reader prunes. Baseline
    takes it only when every slot's readers agree (all keep or all prune).
    """
    if segment.lock_reason or (mode == MODE_OUTPUT and strategy == STRATEGY_BASELINE):
        return None
    if mode == MODE_OUTPUT:
        own_band = {p: (i,) for i, band in enumerate(segment.bands) for p in band.producers}
        return _channel_order(segment, producer_retained_slots(segment, kept), own_band)
    slots = retained_slots(segment, kept)
    if strategy == STRATEGY_REORDER:
        return _channel_order(segment, slots, segment.band_reads)
    gone = {s for vec in segment.consumer_slots.values() for s in vec}.difference(*slots.values())
    in_place = tuple(s for s in range(segment.channel_space) if s not in gone)
    if strategy == STRATEGY_CONSTRAINED or all(
            slots[c] == set(segment.consumer_slots[c]).intersection(in_place)
            for c in segment.consumers):
        return in_place
    return None


def _plan_segment(graph: ModelGraph, segment: Segment, kept: Retained,
                  mode: str, strategy: str) -> SegmentPlan:
    order = _segment_order(segment, kept, mode, strategy)
    if mode == MODE_INPUT:
        return plan_export(graph, segment, order, kept, strategy)
    return plan_export_output(graph, segment, order, kept)


def plan_model(graph: ModelGraph, masks: ChannelMask, mode: str = MODE_INPUT,
               strategy: str = STRATEGY_REORDER) -> tuple[list[SegmentPlan], list[str]]:
    """Plan every pruned segment. Returns the plans and the ids of the
    segments planned under another strategy than ``strategy``: those that
    output mode gives the baseline infill under reorder."""
    if mode not in (MODE_INPUT, MODE_OUTPUT):
        raise ValidationError([f"unknown mode {mode!r}"])
    if strategy not in (STRATEGY_REORDER, STRATEGY_BASELINE, STRATEGY_CONSTRAINED):
        raise ValidationError([f"unknown strategy {strategy!r}"])
    if mode == MODE_OUTPUT and strategy == STRATEGY_CONSTRAINED:
        raise ValidationError(["constrained strategy applies to input-side pruning only"])
    diags = validate_masks(graph, masks, mode)
    if diags:
        raise ValidationError(diags)

    plans: list[SegmentPlan] = []
    for segment in find_segments(graph):
        kept = _resolve(segment, masks, mode)
        if all(len(kept[lid]) == len(vec) for lid, vec in kept.vectors.items()):
            continue  # nobody prunes the segment
        plans.append(_plan_segment(graph, segment, kept, mode, strategy))
    return plans, [p.segment for p in plans if p.strategy != strategy]


def export_model(graph: ModelGraph, weights: WeightStore, masks: ChannelMask,
                 mode: str = MODE_INPUT, strategy: str = STRATEGY_REORDER) -> ExportResult:
    """Plan and apply the full export; pure (inputs untouched)."""
    plans, fallbacks = plan_model(graph, masks, mode, strategy)
    out_graph, out_weights = apply_plan(plans, graph, weights)
    return ExportResult(
        graph=out_graph, weights=out_weights, plans=tuple(plans),
        totals=copy_report(plans), fallbacks=tuple(fallbacks),
    )
