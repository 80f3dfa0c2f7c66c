"""End-to-end export: masks in, physically pruned model out.

The strategies differ only in the order each gives a segment's channels;
``_segment_order`` picks it for all of them, and the planner turns it into
a plan. Reorder's rule in both modes (``_channel_order``) is a copy-free
order of the kept slots if one exists (an exact consecutive-ones test per
band), else the layout of the largest subset of layers that can all slice,
the others gathering: of the consumers' retained channels in input mode,
of the producers' kept filters, each inside its own band, in output mode.
Segments nobody prunes are left untouched; a segment locked for its mode
(in output mode, ``Segment.output_lock_reason``) gets no order and keeps
its layout, so export never refuses one. Masks are resolved once per
segment (``segments.resolve_masks``), and ordering and planning read the
result and its slot sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from reslice.graph import (MODE_INPUT, MODE_OUTPUT, MODES, ChannelMask, ModelGraph,
                           ValidationError, WeightStore, validate_masks)
from reslice.ordering import find_zero_copy_order, largest_c1p_order
from reslice.planner import (
    MODE_STRATEGIES,
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
from reslice.segments import Retained, Segment, find_segments, resolve_masks

# unused here, but bench/tracing.py patches these names on this module
from reslice.path_search import (build_reorder_graph, decompose_paths,  # noqa: F401
                                 order_channels, reduce_producers)


@dataclass(frozen=True)
class ExportResult:
    graph: ModelGraph
    weights: WeightStore
    plans: tuple[SegmentPlan, ...]
    fallbacks: tuple[str, ...]  # output-mode segments given the baseline infill under reorder

    @property
    def totals(self) -> CopyStats:
        return copy_report(self.plans)


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
    keeps its layout: when ``mode`` locks it, and under the output baseline.

    Reorder takes ``_channel_order``. Constrained takes the in-place order:
    the slots where they are, minus those every reader prunes. Baseline
    takes it only when every slot's readers agree (all keep or all prune).
    """
    lock = segment.output_lock_reason if mode == MODE_OUTPUT else segment.lock_reason
    if lock or (mode == MODE_OUTPUT and strategy == STRATEGY_BASELINE):
        return None
    if mode == MODE_OUTPUT:
        own_band = {p: (i,) for i, band in enumerate(segment.bands) for p in band.producers}
        return _channel_order(segment, kept.slots, own_band)
    slots = kept.slots
    if strategy == STRATEGY_REORDER:
        return _channel_order(segment, slots, segment.band_reads)
    gone = {s for vec in segment.consumer_slots.values() for s in vec}.difference(*slots.values())
    in_place = tuple(s for s in range(segment.channel_space) if s not in gone)
    if strategy == STRATEGY_CONSTRAINED or all(
            slots[c] == set(segment.consumer_slots[c]).intersection(in_place)
            for c in segment.consumers):
        return in_place
    return None


def plan_model(graph: ModelGraph, masks: ChannelMask, mode: str = MODE_INPUT,
               strategy: str = STRATEGY_REORDER) -> tuple[list[SegmentPlan], list[str]]:
    """Plan every pruned segment. Returns the plans and the ids of the
    segments planned under another strategy than ``strategy``: those that
    output mode gives the baseline infill under reorder."""
    if mode not in MODES:
        raise ValidationError([f"unknown mode {mode!r}"])
    if strategy not in MODE_STRATEGIES[mode]:
        raise ValidationError([f"unknown strategy {strategy!r} for {mode} mode"])
    diags = validate_masks(graph, masks, mode)
    if diags:
        raise ValidationError(diags)

    plans: list[SegmentPlan] = []
    for segment in find_segments(graph):
        kept = resolve_masks(segment, masks, mode)
        if all(len(kept[lid]) == len(vec) for lid, vec in kept.vectors.items()):
            continue  # nobody prunes the segment
        order = _segment_order(segment, kept, mode, strategy)
        plans.append(plan_export(graph, segment, order, kept, strategy) if mode == MODE_INPUT
                     else plan_export_output(graph, segment, order, kept))
    return plans, [p.segment for p in plans if p.strategy != strategy]


def export_model(graph: ModelGraph, weights: WeightStore, masks: ChannelMask,
                 mode: str = MODE_INPUT, strategy: str = STRATEGY_REORDER) -> ExportResult:
    """Plan and apply the full export; pure (inputs untouched)."""
    plans, fallbacks = plan_model(graph, masks, mode, strategy)
    out_graph, out_weights = apply_plan(plans, graph, weights)
    return ExportResult(graph=out_graph, weights=out_weights, plans=tuple(plans),
                        fallbacks=tuple(fallbacks))
