"""Export planning: turn a channel order into a concrete graph rewrite.

A SegmentPlan is a pure value describing, per segment: how each producer's
filters are reordered and which are dropped, how each consumer reads the
rewritten tensor (contiguous slice + column permutation, or an explicit
gather), how interior per-channel vectors are permuted, and the exact copy
cost. ``apply_plan`` executes plans mechanically; it never re-derives
anything, so a serialized plan is a complete record of the transformation.

Input mode prunes consumer input channels (the default). Output mode prunes
producer output channels and rewrites the join as runs of slices combined
by add/concat. Baseline plans reproduce the naive export: no reordering,
every partially-pruned reader pays a full copy. Constrained plans keep the
tensor layout and zero pruned weight columns instead, which is always
copy-free.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from reslice.graph import (
    ChannelMask,
    Layer,
    LayerKind,
    ModelGraph,
    ModelFormatError,
    ValidationError,
    WeightStore,
    _dump_json,
    _load_json,
    validate,
)
from reslice.ordering import ChannelOrder, band_layouts
from reslice.path_search import decompose_paths
from reslice.ordering import order_channels
from reslice.reorder_graph import (
    ProducerEquivalence,
    UnsupportedTopologyError,
    reorder_graph_from_sets,
    retained_slots,
)
from reslice.segments import Segment, propagate_vectors

PLAN_FILE_VERSION = 1

MODE_INPUT = "input"
MODE_OUTPUT = "output"
STRATEGY_REORDER = "reorder"
STRATEGY_BASELINE = "baseline"
STRATEGY_CONSTRAINED = "constrained"


@dataclass(frozen=True)
class CopyStats:
    """Channel-count cost model. ``copied`` counts channels that must be
    materialized into a new tensor at inference time; slices are free."""

    total_reads: int
    copied: int
    zero_copy_optimal: int = 0

    def __post_init__(self):
        if not (0 <= self.copied <= max(self.total_reads, 0)):
            raise ValidationError([f"copied {self.copied} outside [0, {self.total_reads}]"])

    @property
    def copied_fraction(self) -> float:
        return self.copied / self.total_reads if self.total_reads else 0.0


@dataclass(frozen=True)
class ConsumerAccess:
    """How one consumer reads the rewritten tensor.

    ``perm`` lists the consumer's original input-column indices in the new
    column order (a bijection onto its retained set). Slice mode: the
    consumer reads ``[start, start+length)`` of its rewritten input; perm
    follows window order. Gather mode: ``indices[i]`` is the position in the
    rewritten input holding the channel for new column ``i``; perm is
    ascending.
    """

    consumer: str
    mode: str  # "slice" | "gather"
    start: int = 0
    length: int = 0
    perm: tuple[int, ...] = ()
    indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class JoinRun:
    """One maximal run of output channels with a constant producer set."""

    producers: tuple[str, ...]  # sorted
    windows: dict[str, tuple[int, int]]  # producer -> (start, length) in its new output


@dataclass(frozen=True)
class JoinRewrite:
    join: str
    kind: str  # "add" | "concat"
    keep_original: bool
    operands: dict[str, str]  # producer -> the join operand on its branch
    runs: tuple[JoinRun, ...]


@dataclass(frozen=True)
class SegmentPlan:
    segment: str
    mode: str
    strategy: str
    producers: tuple[str, ...]
    interior: tuple[str, ...]
    producer_orders: dict[str, tuple[int, ...]]  # kept local filters, new order
    dropped: dict[str, tuple[int, ...]]  # removed local filters, ascending
    zero_rows: dict[str, tuple[int, ...]]  # kept filters forced to zero (sentinels)
    consumers: tuple[ConsumerAccess, ...]
    per_channel: dict[str, tuple[int, ...]]  # interior vector id -> old positions, new order
    zero_columns: dict[str, tuple[int, ...]]  # consumer -> original columns zeroed
    infill: dict[str, tuple[int, ...]]  # producer -> gather params restoring its width
    join: JoinRewrite | None
    stats: CopyStats


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

def _retained_locals(segment: Segment, masks: ChannelMask) -> dict[str, tuple[int, ...]]:
    """Per-consumer retained input columns (mask, or everything)."""
    out = {}
    for c in segment.consumers:
        width = len(segment.consumer_slots[c])
        if c in masks:
            local = tuple(sorted(set(masks[c])))
            bad = [i for i in local if not (0 <= i < width)]
            if bad:
                raise ValidationError([f"{c}: mask index {bad[0]} out of [0, {width})"])
            out[c] = local
        else:
            out[c] = tuple(range(width))
    return out


def _access_from_pairs(consumer: str, pairs: list[tuple[int, int]],
                       force_gather: bool = False) -> ConsumerAccess:
    """Build the access record from (new position, original column) pairs."""
    pairs = sorted(pairs)
    positions = [p for p, _ in pairs]
    contiguous = positions[-1] - positions[0] + 1 == len(positions)
    if contiguous and not force_gather:
        return ConsumerAccess(consumer, "slice", start=positions[0], length=len(positions),
                              perm=tuple(local for _, local in pairs))
    by_column = sorted(pairs, key=lambda t: t[1])
    return ConsumerAccess(consumer, "gather",
                          perm=tuple(local for _, local in by_column),
                          indices=tuple(pos for pos, _ in by_column))


def _access_cost(access: ConsumerAccess) -> int:
    return len(access.perm) if access.mode == "gather" else 0


def _identity_orders(graph: ModelGraph, segment: Segment) -> dict[str, tuple[int, ...]]:
    return {p: tuple(range(graph.layer(p).out_channels)) for p in segment.producers}


def _consumer_pairs(segment: Segment, consumer: str, locals_kept: Sequence[int],
                    realized: Sequence[int]) -> list[tuple[int, int]]:
    """(position in realized vector, original column) for retained columns."""
    position = {slot: i for i, slot in enumerate(realized)}
    vec = segment.consumer_slots[consumer]
    pairs = []
    for local in locals_kept:
        slot = vec[local]
        if slot not in position:
            raise ValidationError(
                [f"{consumer}: retained channel {local} maps to dropped slot {slot}"])
        pairs.append((position[slot], local))
    return pairs


def _structure_from_layouts(
    graph: ModelGraph, segment: Segment,
    layouts: Mapping[str, tuple[int, ...]], vectors: Mapping[str, tuple[int, ...]],
) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]:
    """Producer row orders, dropped rows, and per-channel vector perms
    induced by new per-producer slot layouts."""
    producer_orders = {}
    dropped = {}
    for p in segment.producers:
        local_of = {slot: i for i, slot in enumerate(segment.producer_slots[p])}
        rows = tuple(local_of[s] for s in layouts[p])
        producer_orders[p] = rows
        dropped[p] = tuple(sorted(set(local_of.values()) - set(rows)))
    per_channel = {}
    for u in segment.interior:
        if graph.layer(u).kind is LayerKind.PER_CHANNEL:
            old_pos = {slot: i for i, slot in enumerate(segment.node_slots[u])}
            per_channel[u] = tuple(old_pos[s] for s in vectors[u])
    return producer_orders, dropped, per_channel


def _locked_input_plan(graph: ModelGraph, segment: Segment, masks: ChannelMask,
                       strategy: str) -> SegmentPlan:
    """Identity layout; partially-pruned consumers gather, others pass.

    Used whenever the producers cannot be permuted (model input, zero-filled
    channels, partially overlapping bands, positional interior nodes) and by
    the baseline planner when filters cannot be dropped.
    """
    locals_kept = _retained_locals(segment, masks)
    accesses = []
    for c in segment.consumers:
        width = len(segment.consumer_slots[c])
        kept = locals_kept[c]
        if len(kept) == width:
            accesses.append(ConsumerAccess(c, "slice", start=0, length=width,
                                           perm=tuple(range(width))))
        else:
            accesses.append(_access_from_pairs(c, [(l, l) for l in kept], force_gather=True))
    total = sum(len(locals_kept[c]) for c in segment.consumers)
    copied = sum(_access_cost(a) for a in accesses)
    return SegmentPlan(
        segment=segment.id, mode=MODE_INPUT, strategy=strategy,
        producers=segment.producers, interior=segment.interior,
        producer_orders=_identity_orders(graph, segment),
        dropped={}, zero_rows={}, consumers=tuple(accesses),
        per_channel={}, zero_columns={}, infill={}, join=None,
        stats=CopyStats(total, copied),
    )


# --------------------------------------------------------------------------
# input-mode planners
# --------------------------------------------------------------------------

def plan_export(graph: ModelGraph, segment: Segment, order: ChannelOrder,
                equivalences: Iterable[ProducerEquivalence], masks: ChannelMask) -> SegmentPlan:
    """Reordered export: producers adopt the order, consumers contiguous in
    their rewritten read vector get slices, the rest get gathers."""
    if segment.unsupported is not None:
        raise UnsupportedTopologyError(segment.id, segment.unsupported)
    eq_map = {e.producer: tuple(e.slots) for e in equivalences}
    if eq_map and eq_map != {p: segment.producer_slots[p] for p in eq_map}:
        raise ValidationError([f"{segment.id}: producer equivalences disagree with segment"])
    if segment.reorder_locked:
        return _locked_input_plan(graph, segment, masks, STRATEGY_REORDER)

    slots = retained_slots(segment, masks)
    needed = set().union(*slots.values()) if slots else set()
    if not needed <= set(order.order):
        raise ValidationError([f"{segment.id}: order does not cover all retained channels"])
    if set(order.order) & set(order.dropped):
        raise ValidationError([f"{segment.id}: order and dropped overlap"])

    layouts = band_layouts(segment, order)
    vectors = propagate_vectors(graph, segment.interior, layouts)
    locals_kept = _retained_locals(segment, masks)

    accesses = []
    for c in segment.consumers:
        realized = vectors[graph.predecessors(c)[0]]
        accesses.append(_access_from_pairs(c, _consumer_pairs(segment, c, locals_kept[c], realized)))

    producer_orders, dropped, per_channel = _structure_from_layouts(graph, segment, layouts, vectors)
    total = sum(len(locals_kept[c]) for c in segment.consumers)
    copied = sum(_access_cost(a) for a in accesses)
    return SegmentPlan(
        segment=segment.id, mode=MODE_INPUT, strategy=STRATEGY_REORDER,
        producers=segment.producers, interior=segment.interior,
        producer_orders=producer_orders, dropped=dropped, zero_rows={},
        consumers=tuple(accesses), per_channel=per_channel,
        zero_columns={}, infill={}, join=None,
        stats=CopyStats(total, copied),
    )


def _slot_agreement(segment: Segment, slots: Mapping[str, frozenset[int]]) -> tuple[bool, set[int]]:
    """Whether every slot is retained by all of its readers or pruned by all
    of them; also returns the all-pruned (droppable) slots."""
    readers: dict[int, list[str]] = {}
    for c in segment.consumers:
        for s in segment.consumer_slots[c]:
            readers.setdefault(s, []).append(c)
    droppable: set[int] = set()
    agree = True
    for s, cs in readers.items():
        keeping = sum(1 for c in cs if s in slots[c])
        if keeping == 0:
            droppable.add(s)
        elif keeping != len(cs):
            agree = False
    return agree, droppable


def _ascending_layouts(segment: Segment, dropped_slots: set[int]) -> dict[str, tuple[int, ...]]:
    """Kept slots per producer in original order; fully-dropped bands keep
    their lowest slot so no layer ends up with zero channels."""
    layouts = {}
    for band in segment.bands:
        kept = [s for s in band.slots if s not in dropped_slots]
        if not kept:
            kept = [min(band.slots)]
        for p in band.producers:
            layouts[p] = tuple(kept)
    return layouts


def plan_baseline(graph: ModelGraph, segment: Segment, masks: ChannelMask) -> SegmentPlan:
    """Naive export: no reordering. Consumers pruning anything pay a full
    gather. When every slot's readers agree (all keep or all prune) and the
    layout is free to change, the agreed-pruned filters are dropped instead
    and everyone slices."""
    locals_kept = _retained_locals(segment, masks)
    if segment.unsupported is None and not segment.reorder_locked:
        slots = retained_slots(segment, masks)
        agree, droppable = _slot_agreement(segment, slots)
        if agree:
            layouts = _ascending_layouts(segment, droppable)
            vectors = propagate_vectors(graph, segment.interior, layouts)
            accesses = []
            for c in segment.consumers:
                realized = vectors[graph.predecessors(c)[0]]
                pairs = _consumer_pairs(segment, c, locals_kept[c], realized)
                accesses.append(_access_from_pairs(c, pairs))
            producer_orders, dropped, per_channel = _structure_from_layouts(
                graph, segment, layouts, vectors)
            total = sum(len(locals_kept[c]) for c in segment.consumers)
            copied = sum(_access_cost(a) for a in accesses)
            return SegmentPlan(
                segment=segment.id, mode=MODE_INPUT, strategy=STRATEGY_BASELINE,
                producers=segment.producers, interior=segment.interior,
                producer_orders=producer_orders, dropped=dropped, zero_rows={},
                consumers=tuple(accesses), per_channel=per_channel,
                zero_columns={}, infill={}, join=None,
                stats=CopyStats(total, copied),
            )
    return _locked_input_plan(graph, segment, masks, STRATEGY_BASELINE)


def plan_constrained(graph: ModelGraph, segment: Segment, masks: ChannelMask) -> SegmentPlan:
    """Constrained export: keep the layout, zero pruned weight columns.

    Channels pruned by every reader are dropped (when the layout is free);
    everything else stays in place, so every consumer takes a full slice and
    nothing is ever copied.
    """
    locals_kept = _retained_locals(segment, masks)
    free = segment.unsupported is None and not segment.reorder_locked
    if free:
        slots = retained_slots(segment, masks)
        _, droppable = _slot_agreement(segment, slots)
        layouts = _ascending_layouts(segment, droppable)
        vectors = propagate_vectors(graph, segment.interior, layouts)
        producer_orders, dropped, per_channel = _structure_from_layouts(
            graph, segment, layouts, vectors)
    else:
        producer_orders = _identity_orders(graph, segment)
        dropped = {}
        per_channel = {}

    accesses = []
    zero_columns = {}
    for c in segment.consumers:
        vec = segment.consumer_slots[c]
        realized = vectors[graph.predecessors(c)[0]] if free else vec
        local_of = {slot: i for i, slot in enumerate(vec)}
        perm = tuple(local_of[s] for s in realized)
        accesses.append(ConsumerAccess(c, "slice", start=0, length=len(realized), perm=perm))
        retained = set(locals_kept[c])
        zeroed = tuple(l for l in perm if l not in retained)
        if zeroed:
            zero_columns[c] = tuple(sorted(zeroed))
    total = sum(len(locals_kept[c]) for c in segment.consumers)
    return SegmentPlan(
        segment=segment.id, mode=MODE_INPUT, strategy=STRATEGY_CONSTRAINED,
        producers=segment.producers, interior=segment.interior,
        producer_orders=producer_orders, dropped=dropped, zero_rows={},
        consumers=tuple(accesses), per_channel=per_channel,
        zero_columns=zero_columns, infill={}, join=None,
        stats=CopyStats(total, 0),
    )


# --------------------------------------------------------------------------
# output-mode planners
# --------------------------------------------------------------------------

def _producer_retained_slots(segment: Segment, output_masks: ChannelMask) -> tuple[
        dict[str, frozenset[int]], dict[str, tuple[int, ...]]]:
    """Retained output slots per producer; empty masks keep a zeroed sentinel
    channel so the layer stays non-empty."""
    retained: dict[str, frozenset[int]] = {}
    zero_rows: dict[str, tuple[int, ...]] = {}
    for p in segment.producers:
        vec = segment.producer_slots[p]
        if p in output_masks:
            local = sorted(set(output_masks[p]))
            bad = [i for i in local if not (0 <= i < len(vec))]
            if bad:
                raise ValidationError([f"{p}: output mask index {bad[0]} out of [0, {len(vec)})"])
            if not local:
                local = [0]
                zero_rows[p] = (0,)
            retained[p] = frozenset(vec[i] for i in local)
        else:
            retained[p] = frozenset(vec)
    return retained, zero_rows


def _output_baseline(graph: ModelGraph, segment: Segment, output_masks: ChannelMask) -> SegmentPlan:
    """Drop pruned filters and restore each producer's original width with a
    zero-filling gather right after it. Downstream stays untouched, so this
    is equivalent for any topology, bias layers included."""
    producer_orders = {}
    dropped = {}
    zero_rows: dict[str, tuple[int, ...]] = {}
    infill = {}
    total = 0
    copied = 0
    for p in segment.producers:
        width = graph.layer(p).out_channels
        if p in output_masks and len(set(output_masks[p])) < width:
            kept = sorted(set(output_masks[p]))
            bad = [i for i in kept if not (0 <= i < width)]
            if bad:
                raise ValidationError([f"{p}: output mask index {bad[0]} out of [0, {width})"])
            if not kept:
                # nothing survives; keep one dangling filter so the layer
                # stays legal and fill the whole tensor with zeros
                producer_orders[p] = (0,)
                dropped[p] = tuple(range(1, width))
                infill[p] = tuple([-1] * width)
                continue
            new_index = {local: i for i, local in enumerate(kept)}
            producer_orders[p] = tuple(kept)
            dropped[p] = tuple(sorted(set(range(width)) - set(kept)))
            infill[p] = tuple(new_index.get(i, -1) for i in range(width))
            total += len(kept)
            copied += len(kept)
        else:
            producer_orders[p] = tuple(range(width))
            dropped[p] = ()
            total += width
    return SegmentPlan(
        segment=segment.id, mode=MODE_OUTPUT, strategy=STRATEGY_BASELINE,
        producers=segment.producers, interior=segment.interior,
        producer_orders=producer_orders, dropped=dropped, zero_rows=zero_rows,
        consumers=(), per_channel={}, zero_columns={}, infill=infill, join=None,
        stats=CopyStats(total, copied),
    )


def _trace_join_operands(graph: ModelGraph, segment: Segment, join: str) -> dict[str, str]:
    """Map each producer to the join operand on its branch (the producer
    itself or the last pass-through before the join)."""
    operands: dict[str, str] = {}
    for op in graph.predecessors(join):
        node = op
        while node not in segment.producers:
            kind = graph.layer(node).kind
            if kind is not LayerKind.PASS_THROUGH:
                raise UnsupportedTopologyError(
                    segment.id, f"join operand passes through a {kind.value} layer")
            node = graph.predecessors(node)[0]
        if node in operands:
            raise UnsupportedTopologyError(segment.id, f"producer {node} feeds the join twice")
        operands[node] = op
    if set(operands) != set(segment.producers):
        raise UnsupportedTopologyError(segment.id, "join does not combine all producers")
    return operands


def plan_export_output(graph: ModelGraph, segment: Segment, output_masks: ChannelMask,
                       strategy: str = STRATEGY_REORDER) -> SegmentPlan:
    """Output-side pruning: producers drop their own pruned filters.

    Reorder strategy: the reorder graph is built over producers; the join is
    rewritten as maximal constant-producer-set runs (a slice per producer,
    an add per shared run, one concat). Producers whose kept filters end up
    non-contiguous in the combined order are counted as copied.

    Baseline strategy: per-producer drop + zero-infill gather (see
    ``_output_baseline``).
    """
    if strategy == STRATEGY_BASELINE:
        return _output_baseline(graph, segment, output_masks)
    if strategy != STRATEGY_REORDER:
        raise ValidationError([f"unsupported output strategy {strategy!r}"])
    if segment.unsupported is not None:
        raise UnsupportedTopologyError(segment.id, segment.unsupported)
    masked = [p for p in segment.producers
              if p in output_masks
              and set(output_masks[p]) != set(range(graph.layer(p).out_channels))]
    if segment.reorder_locked:
        if masked:
            raise UnsupportedTopologyError(
                segment.id, "producers cannot drop output channels here "
                "(model boundary or fixed layout); use the baseline infill")
        return SegmentPlan(
            segment=segment.id, mode=MODE_OUTPUT, strategy=STRATEGY_REORDER,
            producers=segment.producers, interior=segment.interior,
            producer_orders=_identity_orders(graph, segment),
            dropped={}, zero_rows={}, consumers=(), per_channel={},
            zero_columns={}, infill={}, join=None,
            stats=CopyStats(sum(graph.layer(p).out_channels for p in segment.producers), 0),
        )

    joins = [u for u in segment.interior
             if graph.layer(u).kind in (LayerKind.ADD, LayerKind.CONCAT)]
    biased = [u for u in segment.interior
              if graph.layer(u).kind is LayerKind.PER_CHANNEL]
    if biased:
        raise UnsupportedTopologyError(
            segment.id, f"per-channel layer {biased[0]} inside an output-pruned segment: "
            "a dropped channel's contribution would not stay zero")
    if len(joins) > 1:
        raise UnsupportedTopologyError(segment.id, "more than one join between producers")

    retained, zero_rows = _producer_retained_slots(segment, output_masks)
    rg = reorder_graph_from_sets(retained, segment.channel_space)
    paths = decompose_paths(rg)
    order = order_channels(rg, paths)

    producer_orders = {}
    dropped = {}
    total = 0
    copied = 0
    position = {slot: i for i, slot in enumerate(order.order)}
    layouts = {}
    for p in segment.producers:
        vec = segment.producer_slots[p]
        local_of = {slot: i for i, slot in enumerate(vec)}
        kept_slots = sorted(retained[p], key=position.__getitem__)
        layouts[p] = tuple(kept_slots)
        rows = tuple(local_of[s] for s in kept_slots)
        producer_orders[p] = rows
        dropped[p] = tuple(sorted(set(local_of.values()) - set(rows)))
        total += len(rows)
        spots = sorted(position[s] for s in retained[p])
        if spots[-1] - spots[0] + 1 != len(spots):
            copied += len(rows)

    join_rewrite = None
    if joins:
        join = joins[0]
        kind = graph.layer(join).kind.value
        operands = _trace_join_operands(graph, segment, join)
        runs: list[JoinRun] = []
        cursor = {p: 0 for p in segment.producers}
        run_sig: frozenset[str] | None = None
        run_len = 0
        run_start: dict[str, int] = {}

        def close_run():
            nonlocal run_len
            if run_sig is not None:
                runs.append(JoinRun(tuple(sorted(run_sig)),
                                    {p: (run_start[p], run_len) for p in sorted(run_sig)}))
            run_len = 0

        for slot in order.order:
            sig = frozenset(p for p in segment.producers if slot in retained[p])
            if sig != run_sig:
                close_run()
                run_sig = sig
                run_start = {p: cursor[p] for p in sig}
            run_len += 1
            for p in sig:
                cursor[p] += 1
        close_run()

        if kind == "add":
            keep = (len(runs) == 1 and set(runs[0].producers) == set(segment.producers))
        else:
            operand_order = []
            for op in graph.predecessors(join):
                operand_order.append(next(p for p, o in operands.items() if o == op))
            keep = ([list(r.producers) for r in runs] == [[p] for p in operand_order]
                    and all(r.windows[r.producers[0]] == (0, len(producer_orders[r.producers[0]]))
                            for r in runs))
        join_rewrite = JoinRewrite(join, kind, keep, operands, tuple(runs))

    # consumers read everything that survived; always a full slice. The
    # rewritten join emits the combined order; pass-throughs forward it.
    overrides = {join_rewrite.join: order.order} if join_rewrite else None
    vectors = propagate_vectors(graph, segment.interior, layouts, overrides=overrides)
    accesses = []
    for c in segment.consumers:
        realized = vectors[graph.predecessors(c)[0]]
        local_of = {slot: i for i, slot in enumerate(segment.consumer_slots[c])}
        perm = tuple(local_of[s] for s in realized)
        accesses.append(ConsumerAccess(c, "slice", start=0, length=len(realized), perm=perm))

    return SegmentPlan(
        segment=segment.id, mode=MODE_OUTPUT, strategy=STRATEGY_REORDER,
        producers=segment.producers, interior=segment.interior,
        producer_orders=producer_orders, dropped=dropped, zero_rows=zero_rows,
        consumers=tuple(accesses), per_channel={}, zero_columns={},
        infill={}, join=join_rewrite,
        stats=CopyStats(total, copied),
    )


# --------------------------------------------------------------------------
# plan application
# --------------------------------------------------------------------------

def _fresh_id(taken: set[str], base: str) -> str:
    if base not in taken:
        taken.add(base)
        return base
    k = 2
    while f"{base}_{k}" in taken:
        k += 1
    taken.add(f"{base}_{k}")
    return f"{base}_{k}"


class _Rewrite:
    """A mutable copy of ``source`` under rewrite.

    Layers and edges sit in lists in file order; a removed entry becomes
    None, so every other entry keeps its position and the model comes out
    in the order a rebuild after each plan would give. ``out_edges`` and
    ``in_edges`` index edge positions by source and by destination
    (``in_edges`` ascending, so predecessors keep their file order).
    """

    def __init__(self, graph: ModelGraph, weights: WeightStore):
        self.source = graph
        self.layers: dict[str, Layer] = {l.id: l for l in graph.layers}
        self.order: list[str | None] = [l.id for l in graph.layers]
        self.slot = {lid: i for i, lid in enumerate(self.order)}
        self.edges: list[tuple[str, str] | None] = list(graph.edges)
        self.out_edges: dict[str, list[int]] = defaultdict(list)
        self.in_edges: dict[str, list[int]] = defaultdict(list)
        for i, (src, dst) in enumerate(self.edges):
            self.out_edges[src].append(i)
            self.in_edges[dst].append(i)
        self.taken = set(self.layers)
        self.weights = weights.copy()

    def predecessors(self, layer_id: str) -> list[str]:
        return [self.edges[i][0] for i in self.in_edges[layer_id]]

    def add_layer(self, layer: Layer) -> None:
        self.layers[layer.id] = layer
        self.slot[layer.id] = len(self.order)
        self.order.append(layer.id)

    def remove_layer(self, layer_id: str) -> None:
        """Drop a layer and the edges into it; move its out-edges first."""
        for i in self.in_edges.pop(layer_id, []):
            self.out_edges[self.edges[i][0]].remove(i)
            self.edges[i] = None
        del self.layers[layer_id]
        self.order[self.slot.pop(layer_id)] = None

    def add_edge(self, src: str, dst: str) -> None:
        self.out_edges[src].append(len(self.edges))
        self.in_edges[dst].append(len(self.edges))
        self.edges.append((src, dst))

    def move_sources(self, positions: Iterable[int], new: str) -> None:
        """Make ``new`` the source of the edges at ``positions``."""
        for i in list(positions):
            src, dst = self.edges[i]
            self.out_edges[src].remove(i)
            self.out_edges[new].append(i)
            self.edges[i] = (new, dst)

    def graph(self) -> ModelGraph:
        return ModelGraph([self.layers[i] for i in self.order if i is not None],
                          [e for e in self.edges if e is not None])


def _check_names(plan: SegmentPlan, rw: _Rewrite) -> None:
    """Raise ValidationError unless every layer the plan names exists in the
    model under rewrite, in the role the plan gives it."""
    layers = rw.layers
    named = {*plan.producers, *plan.interior, *plan.producer_orders, *plan.dropped,
             *plan.zero_rows, *(a.consumer for a in plan.consumers), *plan.per_channel,
             *plan.zero_columns, *plan.infill}
    if plan.join is not None:
        jr = plan.join
        named.add(jr.join)
        named.update(jr.operands, jr.operands.values(), *(run.producers for run in jr.runs))
    unknown = sorted(named - layers.keys())
    if unknown:
        raise ValidationError([f"plan {plan.segment}: names unknown layer {lid!r}"
                               for lid in unknown])
    for role, ids in (("producer", plan.producers),
                      ("consumer", [a.consumer for a in plan.consumers])):
        if len(set(ids)) != len(ids):
            raise ValidationError([f"plan {plan.segment}: a {role} is named twice"])
    for p in plan.producers:
        if layers[p].kind not in (LayerKind.CHANNEL_MIX, LayerKind.INPUT):
            raise ValidationError([f"plan {plan.segment}: producer {p!r} is a "
                                   f"{layers[p].kind.value} layer"])
    members = {*plan.producers, *plan.interior}
    for a in plan.consumers:
        preds = rw.predecessors(a.consumer)
        if (layers[a.consumer].kind is not LayerKind.CHANNEL_MIX or len(preds) != 1
                or preds[0] not in members):
            raise ValidationError([f"plan {plan.segment}: {a.consumer!r} does not read "
                                   "this segment"])


def _apply_one(plan: SegmentPlan, rw: _Rewrite) -> None:
    """Apply one plan to the model under rewrite."""
    _check_names(plan, rw)
    layers, weights, taken = rw.layers, rw.weights, rw.taken
    # consumers look up their source before this plan rewires anything
    sources = {a.consumer: rw.predecessors(a.consumer)[0] for a in plan.consumers}

    # 1. producers: reorder/drop filter rows
    for p in plan.producers:
        lay = layers[p]
        rows = tuple(plan.producer_orders.get(p, range(lay.out_channels)))
        if lay.kind is LayerKind.INPUT:
            if rows != tuple(range(lay.out_channels)):
                raise ValidationError([f"{p}: cannot permute a model input"])
            continue
        if rows != tuple(range(lay.out_channels)):
            weights[p] = weights[p][list(rows), :]
            layers[p] = replace(lay, out_channels=len(rows))
        for local in plan.zero_rows.get(p, ()):
            weights[p][rows.index(local), :] = 0.0

    # 2. output-mode infill: restore original widths with zero-fill gathers
    for p in sorted(plan.infill):
        params = plan.infill[p]
        nid = _fresh_id(taken, f"{p}.restore")
        rw.add_layer(Layer(nid, LayerKind.GATHER, in_channels=layers[p].out_channels,
                           out_channels=len(params), params=tuple(params)))
        rw.move_sources(rw.out_edges[p], nid)
        rw.add_edge(p, nid)

    # 3. output-mode join rewrite
    redirect: dict[str, str] = {}
    if plan.join is not None and not plan.join.keep_original:
        jr = plan.join
        run_outputs: list[str] = []
        run_width: list[int] = []
        for i, run in enumerate(jr.runs):
            parts: list[str] = []
            width = 0
            for p in run.producers:
                start, length = run.windows[p]
                source = jr.operands[p]
                width = length
                if (start, length) == (0, layers[p].out_channels):
                    parts.append(source)
                    continue
                sid = _fresh_id(taken, f"{jr.join}.run{i}.{p}")
                rw.add_layer(Layer(sid, LayerKind.SLICE, in_channels=layers[p].out_channels,
                                   out_channels=length, params=(start, length)))
                rw.add_edge(source, sid)
                parts.append(sid)
            if len(parts) > 1:
                aid = _fresh_id(taken, f"{jr.join}.run{i}")
                rw.add_layer(Layer(aid, LayerKind.ADD, in_channels=width, out_channels=width))
                for part in parts:
                    rw.add_edge(part, aid)
                run_outputs.append(aid)
            else:
                run_outputs.append(parts[0])
            run_width.append(width)
        if len(run_outputs) > 1:
            cid = _fresh_id(taken, f"{jr.join}.joined")
            total = sum(run_width)
            rw.add_layer(Layer(cid, LayerKind.CONCAT, in_channels=total, out_channels=total))
            for r in run_outputs:
                rw.add_edge(r, cid)
            final = cid
        else:
            final = run_outputs[0]
        redirect[jr.join] = final
        rw.move_sources(rw.out_edges[jr.join], final)
        rw.remove_layer(jr.join)

    # 4. interior: recompute widths, permute per-channel vectors. Interior
    # ids name layers of the input graph, and plans add no edge between two
    # interior nodes, so the input graph's order holds.
    for u, perm in sorted(plan.per_channel.items()):
        weights[u] = weights[u][list(perm)]
    surviving = [u for u in plan.interior if u in layers and u in rw.source]
    for u in sorted(surviving, key=rw.source.topological_rank):
        lay = layers[u]
        preds = rw.predecessors(u)
        unknown = [q for q in preds if q not in layers]
        if unknown:
            raise ValidationError([f"edge ({unknown[0]!r}, {u!r}) references unknown layer"])
        pred_widths = [layers[q].out_channels for q in preds]
        if lay.kind is LayerKind.CONCAT:
            w = sum(pred_widths)
        elif lay.kind is LayerKind.ADD:
            if len(set(pred_widths)) != 1:
                raise ValidationError([f"{u}: add operands now differ in width {pred_widths}"])
            w = pred_widths[0]
        elif lay.kind in (LayerKind.PASS_THROUGH, LayerKind.PER_CHANNEL):
            w = pred_widths[0]
        else:
            raise ValidationError([f"{u}: unexpected {lay.kind.value} interior layer"])
        layers[u] = replace(lay, in_channels=w, out_channels=w)

    # 5. consumers: restrict/permute columns, insert access nodes
    for access in plan.consumers:
        c = access.consumer
        lay = layers[c]
        pred = redirect.get(sources[c], sources[c])
        perm = tuple(access.perm)
        if perm != tuple(range(lay.in_channels)):
            weights[c] = weights[c][:, list(perm)]
            layers[c] = replace(lay, in_channels=len(perm))
        zeroed = plan.zero_columns.get(c, ())
        for local in zeroed:
            weights[c][:, perm.index(local)] = 0.0
        source_width = layers[pred].out_channels
        if access.mode == "slice":
            if access.length != len(perm):
                raise ValidationError([f"{c}: slice length disagrees with its permutation"])
            if (access.start, access.length) == (0, source_width):
                continue  # reads the whole tensor: no node needed
            nid = _fresh_id(taken, f"{c}.read")
            read = Layer(nid, LayerKind.SLICE, in_channels=source_width,
                         out_channels=access.length, params=(access.start, access.length))
        else:
            if len(access.indices) != len(perm):
                raise ValidationError([f"{c}: gather width disagrees with its permutation"])
            nid = _fresh_id(taken, f"{c}.read")
            read = Layer(nid, LayerKind.GATHER, in_channels=source_width,
                         out_channels=len(access.indices), params=tuple(access.indices))
        rw.add_layer(read)
        idx = next((i for i in rw.in_edges[c] if rw.edges[i][0] == pred), None)
        if idx is None:
            raise ValidationError([f"{c}: expected edge from {pred} is missing"])
        rw.move_sources([idx], nid)
        rw.add_edge(pred, nid)

    # the removed join's id is free again for the next plan's new nodes
    taken.difference_update(redirect)


def apply_plan(plans: Sequence[SegmentPlan], graph: ModelGraph,
               weights: WeightStore) -> tuple[ModelGraph, WeightStore]:
    """Execute plans in order. Pure: the input graph and weights are untouched.

    All plans rewrite one mutable copy of the model, which is built into a
    graph and validated once at the end; the result equals applying the
    plans one at a time. Inconsistencies between a plan and the graph raise
    ValidationError carrying the diagnostics: during an export that
    indicates a planner bug, when replaying a plan file a file that does not
    belong to the model.
    """
    if not plans:
        return graph, weights.copy()
    rw = _Rewrite(graph, weights)
    for plan in plans:
        _apply_one(plan, rw)
    result = rw.graph()
    diags = validate(result, rw.weights)
    if diags:
        raise ValidationError([f"applying {len(plans)} plan(s) produced an inconsistent model"]
                              + diags)
    return result, rw.weights


def copy_report(plans: Iterable[SegmentPlan]) -> CopyStats:
    """Aggregate stats across segments."""
    total = copied = optimal = 0
    for plan in plans:
        total += plan.stats.total_reads
        copied += plan.stats.copied
        optimal += plan.stats.zero_copy_optimal
    return CopyStats(total, copied, optimal)


# --------------------------------------------------------------------------
# plan files
# --------------------------------------------------------------------------

def _access_to_dict(a: ConsumerAccess) -> dict:
    rec: dict = {"consumer": a.consumer, "perm": list(a.perm)}
    if a.mode == "slice":
        rec["slice"] = [a.start, a.length]
    else:
        rec["gather"] = list(a.indices)
    return rec


def _access_from_dict(rec: dict) -> ConsumerAccess:
    consumer = str(rec["consumer"])
    perm = tuple(int(i) for i in rec["perm"])
    if "slice" in rec:
        start, length = (int(x) for x in rec["slice"])
        return ConsumerAccess(consumer, "slice", start=start, length=length, perm=perm)
    return ConsumerAccess(consumer, "gather", perm=perm,
                          indices=tuple(int(i) for i in rec["gather"]))


def _int_map_to_dict(m: Mapping[str, tuple[int, ...]]) -> dict:
    return {k: list(v) for k, v in sorted(m.items())}


def _int_map_from_dict(obj: Mapping) -> dict[str, tuple[int, ...]]:
    return {str(k): tuple(int(i) for i in v) for k, v in obj.items()}


def plan_to_dict(plan: SegmentPlan) -> dict:
    join = None
    if plan.join is not None:
        join = {
            "join": plan.join.join,
            "kind": plan.join.kind,
            "keep_original": plan.join.keep_original,
            "operands": dict(sorted(plan.join.operands.items())),
            "runs": [{"producers": list(r.producers),
                      "windows": {p: list(w) for p, w in sorted(r.windows.items())}}
                     for r in plan.join.runs],
        }
    return {
        "segment": plan.segment,
        "mode": plan.mode,
        "strategy": plan.strategy,
        "producers": list(plan.producers),
        "interior": list(plan.interior),
        "producer_orders": _int_map_to_dict(plan.producer_orders),
        "dropped": _int_map_to_dict(plan.dropped),
        "zero_rows": _int_map_to_dict(plan.zero_rows),
        "consumers": [_access_to_dict(a) for a in plan.consumers],
        "per_channel": _int_map_to_dict(plan.per_channel),
        "zero_columns": _int_map_to_dict(plan.zero_columns),
        "infill": _int_map_to_dict(plan.infill),
        "join": join,
        "stats": {"total_reads": plan.stats.total_reads, "copied": plan.stats.copied,
                  "zero_copy_optimal": plan.stats.zero_copy_optimal},
    }


def plan_from_dict(obj: dict, source: str = "<memory>") -> SegmentPlan:
    try:
        join = None
        if obj.get("join") is not None:
            j = obj["join"]
            join = JoinRewrite(
                join=str(j["join"]), kind=str(j["kind"]),
                keep_original=bool(j["keep_original"]),
                operands={str(k): str(v) for k, v in j["operands"].items()},
                runs=tuple(JoinRun(tuple(str(p) for p in r["producers"]),
                                   {str(p): (int(w[0]), int(w[1]))
                                    for p, w in r["windows"].items()})
                           for r in j["runs"]),
            )
        stats = obj["stats"]
        return SegmentPlan(
            segment=str(obj["segment"]),
            mode=str(obj["mode"]),
            strategy=str(obj["strategy"]),
            producers=tuple(str(p) for p in obj["producers"]),
            interior=tuple(str(u) for u in obj["interior"]),
            producer_orders=_int_map_from_dict(obj["producer_orders"]),
            dropped=_int_map_from_dict(obj["dropped"]),
            zero_rows=_int_map_from_dict(obj["zero_rows"]),
            consumers=tuple(_access_from_dict(rec) for rec in obj["consumers"]),
            per_channel=_int_map_from_dict(obj["per_channel"]),
            zero_columns=_int_map_from_dict(obj["zero_columns"]),
            infill=_int_map_from_dict(obj["infill"]),
            join=join,
            stats=CopyStats(int(stats["total_reads"]), int(stats["copied"]),
                            int(stats["zero_copy_optimal"])),
        )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ModelFormatError(f"{source}: bad plan record ({exc})") from exc


def save_plans(plans: Iterable[SegmentPlan], path: str | Path) -> None:
    plans = list(plans)
    obj = {
        "version": PLAN_FILE_VERSION,
        "segments": [plan_to_dict(p) for p in sorted(plans, key=lambda p: p.segment)],
        "totals": {
            "total_reads": copy_report(plans).total_reads,
            "copied": copy_report(plans).copied,
            "zero_copy_optimal": copy_report(plans).zero_copy_optimal,
        },
    }
    _dump_json(obj, path)


def load_plans(path: str | Path) -> list[SegmentPlan]:
    obj = _load_json(path)
    if obj.get("version") != PLAN_FILE_VERSION:
        raise ModelFormatError(f"{path}: unsupported plan version {obj.get('version')!r}")
    if not isinstance(obj.get("segments"), list):
        raise ModelFormatError(f"{path}: need a 'segments' list")
    return [plan_from_dict(rec, str(path)) for rec in obj["segments"]]
