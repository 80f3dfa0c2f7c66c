"""Export planning: turn a channel order into a concrete graph rewrite.

A SegmentPlan is a pure value describing, per segment: which filters each
producer keeps and in what order (the rest are dropped), how each consumer
reads the rewritten tensor (contiguous slice + column permutation, or an
explicit gather), how interior per-channel vectors are permuted, and the
exact copy cost. ``apply_plan`` executes plans mechanically; it never
re-derives anything, so a serialized plan is a complete record of the
transformation.

The planner picks no order: ``reslice.pipeline`` chooses each strategy's
order, and None keeps a segment's layout. Input mode (``plan_export``)
prunes consumer input channels; constrained consumers zero their pruned
columns and always slice. Output mode (``plan_export_output``) prunes
producer output channels and rewrites the join as runs of slices combined
by add/concat; with no order it writes the baseline infill, which drops
filters and restores each producer's width with a zero-filling gather.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

from reslice.graph import (
    ChannelMask,
    Layer,
    LayerKind,
    ModelGraph,
    ModelFormatError,
    ValidationError,
    WeightStore,
    _dump_json,
    _expect_version,
    _load_json,
    read_int,
    read_ints,
    read_str,
    validate,
)
from reslice.ordering import band_layouts
from reslice.segments import (Segment, _retained_indices, producer_retained_slots,
                              propagate_vectors)

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

    def __post_init__(self):
        if not 0 <= self.copied <= self.total_reads:
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

    windows: dict[str, tuple[int, int]]  # producer -> (start, length) in its new output

    @property
    def producers(self) -> tuple[str, ...]:
        return tuple(sorted(self.windows))


@dataclass(frozen=True)
class JoinRewrite:
    join: str
    keep_original: bool
    operands: dict[str, str]  # producer -> the join operand on its branch
    runs: tuple[JoinRun, ...]


@dataclass(frozen=True)
class SegmentPlan:
    """One segment's rewrite, executed as given by ``apply_plan``. Masks
    keep at least one channel each, so no kept filter is ever zeroed."""

    segment: str
    mode: str
    strategy: str
    producers: tuple[str, ...]
    interior: tuple[str, ...]
    producer_orders: dict[str, tuple[int, ...]]  # kept local filters, new order
    consumers: tuple[ConsumerAccess, ...]
    per_channel: dict[str, tuple[int, ...]]  # interior vector id -> old positions, new order
    zero_columns: dict[str, tuple[int, ...]]  # consumer -> original columns zeroed
    infill: dict[str, tuple[int, ...]]  # producer -> gather params restoring its width
    join: JoinRewrite | None
    stats: CopyStats


# --------------------------------------------------------------------------
# input-mode planners
# --------------------------------------------------------------------------

def _access(consumer: str, columns: tuple[int, ...], spots: Sequence[int],
            force_gather: bool = False) -> ConsumerAccess:
    """The access record of a consumer whose ascending input ``columns``
    land at ``spots``, their positions in the rewritten input."""
    if not force_gather and max(spots) - min(spots) + 1 == len(spots):
        window = sorted(range(len(spots)), key=spots.__getitem__)
        return ConsumerAccess(consumer, "slice", start=min(spots), length=len(spots),
                              perm=tuple(map(columns.__getitem__, window)))
    return ConsumerAccess(consumer, "gather", perm=tuple(columns), indices=tuple(spots))


def _access_cost(access: ConsumerAccess) -> int:
    return len(access.perm) if access.mode == "gather" else 0


def _index_of(vec: Sequence[int]) -> dict[int, int]:
    """Entry -> its position in ``vec`` (the last one, for a repeated entry)."""
    return dict(zip(vec, range(len(vec))))


def _structure_from_layouts(
    graph: ModelGraph, segment: Segment,
    layouts: Mapping[str, tuple[int, ...]], vectors: Mapping[str, tuple[int, ...]],
) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]:
    """Producer row orders and per-channel vector perms induced by new
    per-producer slot layouts."""
    producer_orders = {}
    for p in segment.producers:
        local_of = _index_of(segment.producer_slots[p])
        producer_orders[p] = tuple(map(local_of.__getitem__, layouts[p]))
    per_channel = {}
    for u in segment.interior:
        if graph.layer(u).kind is LayerKind.PER_CHANNEL:
            old_pos = _index_of(segment.node_slots[u])
            per_channel[u] = tuple(map(old_pos.__getitem__, vectors[u]))
    return producer_orders, per_channel


def plan_export(graph: ModelGraph, segment: Segment, order: tuple[int, ...] | None,
                masks: ChannelMask, strategy: str = STRATEGY_REORDER) -> SegmentPlan:
    """The input-mode plan of ``strategy`` in which the producers adopt
    ``order``.

    With no order the layout stays fixed: no filter moves or is dropped, a
    consumer reading all of its columns takes the whole tensor and any
    other gathers. Under an order each producer takes its band's layout
    (``band_layouts``) and a consumer slices where its retained columns
    land contiguously, else gathers. Constrained consumers read every
    column that survives and zero the pruned ones, so they always slice.
    A locked segment takes no order.
    """
    kept = _retained_indices(segment.consumer_slots, masks)
    if order is not None:
        if segment.lock_reason:
            raise ValidationError([f"{segment.id}: an order is given for a locked segment "
                                   f"({segment.lock_reason})"])
        in_order = set(order)
        if not all(in_order.issuperset(map(segment.consumer_slots[c].__getitem__, columns))
                   for c, columns in kept.items()):
            raise ValidationError([f"{segment.id}: order does not cover all retained channels"])
    if order is None:
        producer_orders = {p: tuple(range(graph.layer(p).out_channels))
                           for p in segment.producers}
        per_channel: dict[str, tuple[int, ...]] = {}
    else:
        layouts = band_layouts(segment, order)
        vectors = propagate_vectors(graph, segment.interior, layouts)
        producer_orders, per_channel = _structure_from_layouts(
            graph, segment, layouts, vectors)

    accesses = []
    zero_columns = {}
    for c in segment.consumers:
        vec = segment.consumer_slots[c]
        if order is None:
            position: list[int | None] = list(range(len(vec)))
        else:
            position = list(map(_index_of(vectors[graph.predecessors(c)[0]]).get, vec))
        columns = kept[c]
        if strategy == STRATEGY_CONSTRAINED:
            columns = tuple(l for l, pos in enumerate(position) if pos is not None)
            zeroed = sorted(set(columns) - set(kept[c]))
            if zeroed:
                zero_columns[c] = tuple(zeroed)
        spots = list(map(position.__getitem__, columns))
        if None in spots:
            local = columns[spots.index(None)]
            raise ValidationError(
                [f"{c}: retained channel {local} maps to dropped slot {vec[local]}"])
        accesses.append(_access(c, columns, spots,
                                force_gather=order is None and len(columns) < len(vec)))

    return SegmentPlan(
        segment=segment.id, mode=MODE_INPUT, strategy=strategy,
        producers=segment.producers, interior=segment.interior,
        producer_orders=producer_orders,
        consumers=tuple(accesses), per_channel=per_channel,
        zero_columns=zero_columns, infill={}, join=None,
        stats=CopyStats(sum(map(len, kept.values())), sum(map(_access_cost, accesses))),
    )


# --------------------------------------------------------------------------
# output-mode planners
# --------------------------------------------------------------------------

def _plan_output_baseline(graph: ModelGraph, segment: Segment,
                          output_masks: ChannelMask) -> SegmentPlan:
    """Drop pruned filters and restore each producer's original width with a
    zero-filling gather right after it. Downstream stays untouched, so this
    is equivalent for any topology, bias layers included."""
    kept_filters = _retained_indices(segment.producer_slots, output_masks, "output mask")
    infill = {}
    copied = 0
    for p, kept in kept_filters.items():
        width = graph.layer(p).out_channels
        if len(kept) < width:
            new_index = {local: i for i, local in enumerate(kept)}
            infill[p] = tuple(new_index.get(i, -1) for i in range(width))
            copied += len(kept)
    return SegmentPlan(
        segment=segment.id, mode=MODE_OUTPUT, strategy=STRATEGY_BASELINE,
        producers=segment.producers, interior=segment.interior,
        producer_orders=dict(kept_filters),
        consumers=(), per_channel={}, zero_columns={}, infill=infill, join=None,
        stats=CopyStats(sum(map(len, kept_filters.values())), copied),
    )


def _trace_join_operands(graph: ModelGraph, segment: Segment,
                         join: str) -> dict[str, str] | str:
    """Map each producer to the join operand on its branch (the producer
    itself or the last pass-through before the join), or say why no such
    map exists."""
    operands: dict[str, str] = {}
    for op in graph.predecessors(join):
        node = op
        while node not in segment.producers:
            kind = graph.layer(node).kind
            if kind is not LayerKind.PASS_THROUGH:
                return f"join operand passes through a {kind.value} layer"
            node = graph.predecessors(node)[0]
        if node in operands:
            return f"producer {node} feeds the join twice"
        operands[node] = op
    if set(operands) != set(segment.producers):
        return "join does not combine all producers"
    return operands


def output_refusal(graph: ModelGraph, segment: Segment) -> str | None:
    """Why output mode cannot drop filters of the segment's producers, or
    None when it can."""
    if segment.lock_reason:
        return (f"producers cannot drop output channels: {segment.lock_reason}; "
                "use the baseline infill")
    biased = [u for u in segment.interior if graph.layer(u).kind is LayerKind.PER_CHANNEL]
    if biased:
        return (f"per-channel layer {biased[0]} inside an output-pruned segment: "
                "a dropped channel's contribution would not stay zero")
    joins = [u for u in segment.interior
             if graph.layer(u).kind in (LayerKind.ADD, LayerKind.CONCAT)]
    if len(joins) > 1:
        return "more than one join between producers"
    traced = [_trace_join_operands(graph, segment, join) for join in joins]
    return next((why for why in traced if isinstance(why, str)), None)


def plan_export_output(graph: ModelGraph, segment: Segment, order: tuple[int, ...] | None,
                       output_masks: ChannelMask) -> SegmentPlan:
    """Output-side pruning: producers drop their own pruned filters.

    Producers adopt ``order``, which lists each kept filter's slot once
    (``producer_retained_slots``); the join is rewritten as maximal
    constant-producer-set runs (a slice per producer, an add per shared
    run, one concat). Producers whose kept filters end up non-contiguous in
    the order are counted as copied. With no order, or where
    ``output_refusal`` names a reason, the layout stays: the baseline infill.
    """
    if order is None or output_refusal(graph, segment) is not None:
        return _plan_output_baseline(graph, segment, output_masks)

    retained = producer_retained_slots(segment, output_masks)
    if sorted(order) != sorted(set().union(*retained.values())):
        raise ValidationError([f"{segment.id}: order does not list each kept channel once"])

    # no per-channel layer lies inside, so the layouts need no vectors
    position = {slot: i for i, slot in enumerate(order)}
    layouts = {p: tuple(sorted(retained[p], key=position.__getitem__))
               for p in segment.producers}
    producer_orders, _ = _structure_from_layouts(graph, segment, layouts, {})
    total = sum(len(rows) for rows in producer_orders.values())
    copied = 0
    for layout in layouts.values():
        if position[layout[-1]] - position[layout[0]] + 1 != len(layout):
            copied += len(layout)

    join_rewrite = None
    joins = [u for u in segment.interior
             if graph.layer(u).kind in (LayerKind.ADD, LayerKind.CONCAT)]
    if joins:
        join = joins[0]
        operands = _trace_join_operands(graph, segment, join)
        # one run per stretch of ``order`` whose slots the same producers keep
        runs: list[JoinRun] = []
        cursor = dict.fromkeys(segment.producers, 0)
        owners = (tuple(p for p in segment.producers if slot in retained[p]) for slot in order)
        for sig, stretch in groupby(owners):
            length = len(list(stretch))
            runs.append(JoinRun({p: (cursor[p], length) for p in sig}))
            for p in sig:
                cursor[p] += length

        if graph.layer(join).kind is LayerKind.ADD:
            keep = len(runs) == 1 and runs[0].producers == segment.producers
        else:
            producer_of = {op: p for p, op in operands.items()}
            keep = ([r.producers for r in runs]
                    == [(producer_of[op],) for op in graph.predecessors(join)]
                    and all(r.windows[p] == (0, len(producer_orders[p]))
                            for r in runs for p in r.windows))
        join_rewrite = JoinRewrite(join, keep, operands, tuple(runs))

    # consumers read everything that survived; always a full slice. The
    # rewritten join emits the combined order; pass-throughs forward it.
    overrides = {join_rewrite.join: order} if join_rewrite else None
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
        producer_orders=producer_orders,
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
        # shares the input's tensors: a rewrite replaces a tensor with a new
        # array, and copies one before writing into it
        self.weights = WeightStore(dict(weights.tensors))

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


def _check_role(plan: SegmentPlan, role: str, ids: Sequence[str],
                *entries: Collection[str]) -> None:
    """Raise ValidationError if the plan names one of its ``role`` layers
    twice or keys one of ``entries`` by a layer that is not one of them."""
    members = set(ids)
    if len(members) != len(ids):
        raise ValidationError([f"plan {plan.segment}: a {role} is named twice"])
    if not all(map(members.issuperset, entries)):
        stray = sorted(set().union(*entries) - members)
        raise ValidationError([f"plan {plan.segment}: an entry is keyed by {stray[0]!r}, "
                               f"which is not a {role} of the plan"])


def _check_names(plan: SegmentPlan, rw: _Rewrite) -> dict[str, str]:
    """Raise ValidationError unless every layer the plan names exists in the
    model under rewrite, in the role the plan gives it. Returns each
    consumer's source, looked up before the plan rewires anything."""
    layers = rw.layers
    consumers = [a.consumer for a in plan.consumers]
    # entry keys must name producers, consumers or interior layers, checked below
    named = {*plan.producers, *plan.interior, *consumers}
    if plan.join is not None:
        jr = plan.join
        named.update((jr.join, *jr.operands, *jr.operands.values()))
        if not jr.runs or not all(run.windows and run.windows.keys() <= jr.operands.keys()
                                  for run in jr.runs):
            raise ValidationError([f"plan {plan.segment}: a run of join {jr.join!r} "
                                   "names no producer or one that is not an operand"])
    if not layers.keys() >= named:
        raise ValidationError([f"plan {plan.segment}: names unknown layer {lid!r}"
                               for lid in sorted(named - layers.keys())])
    _check_role(plan, "producer", plan.producers, plan.producer_orders, plan.infill)
    _check_role(plan, "consumer", consumers, plan.zero_columns)
    for p in plan.producers:
        if layers[p].kind not in (LayerKind.CHANNEL_MIX, LayerKind.INPUT):
            raise ValidationError([f"plan {plan.segment}: producer {p!r} is a "
                                   f"{layers[p].kind.value} layer"])
    members = {*plan.producers, *plan.interior}
    sources = {}
    for c in consumers:
        preds = rw.predecessors(c)
        if (layers[c].kind is not LayerKind.CHANNEL_MIX or len(preds) != 1
                or preds[0] not in members):
            raise ValidationError([f"plan {plan.segment}: {c!r} does not read "
                                   "this segment"])
        sources[c] = preds[0]
    for u in plan.per_channel:
        if u not in plan.interior or layers[u].kind is not LayerKind.PER_CHANNEL:
            raise ValidationError([f"plan {plan.segment}: {u!r} is not a per-channel "
                                   "layer of this segment"])
    return sources


def _check_indices(plan: SegmentPlan, what: str, entries: Sequence[int],
                   allowed: Collection[int]) -> None:
    """Raise ValidationError unless ``entries`` are distinct members of ``allowed``."""
    distinct = set(entries)
    if len(distinct) != len(entries) or distinct.difference(allowed):
        raise ValidationError([f"plan {plan.segment}: {what} repeats an index or names one "
                               "out of range"])


def _apply_one(plan: SegmentPlan, rw: _Rewrite) -> None:
    """Apply one plan to the model under rewrite."""
    sources = _check_names(plan, rw)
    layers, weights, taken = rw.layers, rw.weights, rw.taken

    # 1. producers: reorder/drop filter rows
    for p in plan.producers:
        lay = layers[p]
        identity = tuple(range(lay.out_channels))
        rows = tuple(plan.producer_orders.get(p, identity))
        if rows != identity:
            if lay.kind is LayerKind.INPUT:
                raise ValidationError([f"{p}: cannot permute a model input"])
            _check_indices(plan, f"{p} filter order", rows, range(lay.out_channels))
            weights[p] = weights[p][list(rows), :]
            layers[p] = Layer(p, lay.kind, lay.in_channels, len(rows), lay.params)

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
        _check_indices(plan, f"{u} channel order", perm, range(len(weights[u])))
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
        elif lay.kind in (LayerKind.SLICE, LayerKind.GATHER):
            continue  # only locked segments hold these, and their inputs keep their width
        else:
            raise ValidationError([f"{u}: unexpected {lay.kind.value} interior layer"])
        if (lay.in_channels, lay.out_channels) != (w, w):
            layers[u] = Layer(u, lay.kind, w, w, lay.params)

    # 5. consumers: restrict/permute columns, insert access nodes
    for access in plan.consumers:
        c = access.consumer
        lay = layers[c]
        pred = redirect.get(sources[c], sources[c])
        perm = tuple(access.perm)
        zeroed = plan.zero_columns.get(c, ())
        _check_indices(plan, f"{c} column order", perm, range(lay.in_channels))
        if zeroed:
            _check_indices(plan, f"{c} zero columns", zeroed, set(perm))
        if perm != tuple(range(lay.in_channels)):
            weights[c] = weights[c][:, list(perm)]
            layers[c] = Layer(c, lay.kind, len(perm), lay.out_channels, lay.params)
        elif zeroed:
            weights[c] = weights[c].copy()
        if zeroed:
            weights[c][:, list(map(_index_of(perm).__getitem__, zeroed))] = 0.0
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
    """Execute plans in order. Pure: the input graph and weights are untouched,
    though the result may share the tensors no plan changes with the input.

    All plans rewrite one mutable copy of the model, which is built into a
    graph and validated once at the end; the result equals applying the
    plans one at a time. Inconsistencies between a plan and the graph raise
    ValidationError carrying the diagnostics: during an export that
    indicates a planner bug, when replaying a plan file a file that does not
    belong to the model.
    """
    if not plans:
        return graph, WeightStore(dict(weights.tensors))
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
    total = copied = 0
    for plan in plans:
        total += plan.stats.total_reads
        copied += plan.stats.copied
    return CopyStats(total, copied)


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


def _int_pair(values) -> tuple[int, int]:
    """A slice or join window, ``[start, length]``; another length raises ValueError."""
    start, length = (read_int(x) for x in values)
    return start, length


def _access_from_dict(rec: dict) -> ConsumerAccess:
    consumer = read_str(rec["consumer"])
    perm = read_ints(rec["perm"])
    if "slice" in rec:
        start, length = _int_pair(rec["slice"])
        return ConsumerAccess(consumer, "slice", start=start, length=length, perm=perm)
    return ConsumerAccess(consumer, "gather", perm=perm,
                          indices=read_ints(rec["gather"]))


def _int_map_to_dict(m: Mapping[str, tuple[int, ...]]) -> dict:
    return {k: list(v) for k, v in sorted(m.items())}


def _int_map_from_dict(obj: Mapping) -> dict[str, tuple[int, ...]]:
    return {str(k): read_ints(v) for k, v in obj.items()}


def plan_to_dict(plan: SegmentPlan) -> dict:
    join = None
    if plan.join is not None:
        join = {
            "join": plan.join.join,
            "keep_original": plan.join.keep_original,
            "operands": dict(sorted(plan.join.operands.items())),
            "runs": [{"windows": {p: list(w) for p, w in sorted(r.windows.items())}}
                     for r in plan.join.runs],
        }
    return {
        "segment": plan.segment,
        "mode": plan.mode,
        "strategy": plan.strategy,
        "producers": list(plan.producers),
        "interior": list(plan.interior),
        "producer_orders": _int_map_to_dict(plan.producer_orders),
        "consumers": [_access_to_dict(a) for a in plan.consumers],
        "per_channel": _int_map_to_dict(plan.per_channel),
        "zero_columns": _int_map_to_dict(plan.zero_columns),
        "infill": _int_map_to_dict(plan.infill),
        "join": join,
        "stats": {"total_reads": plan.stats.total_reads, "copied": plan.stats.copied},
    }


def plan_from_dict(obj: dict, source: str = "<memory>") -> SegmentPlan:
    try:
        # older files carry zero_rows, which export always wrote empty
        if obj.get("zero_rows", {}) != {}:
            raise ModelFormatError(f"zero_rows must be empty, got {obj['zero_rows']!r}")
        join = None
        if obj.get("join") is not None:
            j = obj["join"]
            if not isinstance(j["keep_original"], bool):
                raise ModelFormatError(f"keep_original must be true or false, "
                                       f"got {j['keep_original']!r}")
            join = JoinRewrite(
                join=read_str(j["join"]), keep_original=j["keep_original"],
                operands={str(k): read_str(v) for k, v in j["operands"].items()},
                runs=tuple(JoinRun({str(p): _int_pair(w) for p, w in r["windows"].items()})
                           for r in j["runs"]),
            )
        stats = obj["stats"]
        mode, strategy = read_str(obj["mode"]), read_str(obj["strategy"])
        if mode not in (MODE_INPUT, MODE_OUTPUT):
            raise ModelFormatError(f"unknown mode {mode!r}")
        if strategy not in (STRATEGY_REORDER, STRATEGY_BASELINE, STRATEGY_CONSTRAINED):
            raise ModelFormatError(f"unknown strategy {strategy!r}")
        return SegmentPlan(
            segment=read_str(obj["segment"]),
            mode=mode,
            strategy=strategy,
            producers=tuple(map(read_str, obj["producers"])),
            interior=tuple(map(read_str, obj["interior"])),
            producer_orders=_int_map_from_dict(obj["producer_orders"]),
            consumers=tuple(_access_from_dict(rec) for rec in obj["consumers"]),
            per_channel=_int_map_from_dict(obj["per_channel"]),
            zero_columns=_int_map_from_dict(obj["zero_columns"]),
            infill=_int_map_from_dict(obj["infill"]),
            join=join,
            stats=CopyStats(read_int(stats["total_reads"]), read_int(stats["copied"])),
        )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ModelFormatError(f"{source}: bad plan record ({exc})") from exc


def save_plans(plans: Iterable[SegmentPlan], path: str | Path) -> None:
    plans = list(plans)
    totals = copy_report(plans)
    obj = {
        "version": PLAN_FILE_VERSION,
        "segments": [plan_to_dict(p) for p in sorted(plans, key=lambda p: p.segment)],
        "totals": {"total_reads": totals.total_reads, "copied": totals.copied},
    }
    _dump_json(obj, path)


def load_plans(path: str | Path) -> list[SegmentPlan]:
    obj = _load_json(path)
    _expect_version(obj, path, PLAN_FILE_VERSION)
    if not isinstance(obj.get("segments"), list):
        raise ModelFormatError(f"{path}: need a 'segments' list")
    return [plan_from_dict(rec, str(path)) for rec in obj["segments"]]
