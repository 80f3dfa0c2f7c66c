"""Export planning: turn a channel order into a concrete graph rewrite.

A SegmentPlan is a pure value recording one segment's decisions: which
filters each producer keeps and in what order (the rest are dropped), how
each consumer reads the rewritten tensor (a slice window, or the columns
an explicit gather keeps) and, in output mode, which producers an infill
restores and the runs of the rebuilt join. Its copy cost
(``SegmentPlan.stats``) is read off those records. One walk over the
segment's interior (``_old_channels``) gives every node the old channel at
each new position: planning reads each consumer's positions off it, and
``apply_plan`` derives the rest (every channel permutation, the gather
positions, the infill's parameters and whether the join stays). So a
serialized plan is a complete record of the transformation, and stores
nothing it derives.

The planner picks no order: ``reslice.pipeline`` chooses each strategy's
order, and None keeps a segment's layout. One rule (``_producer_rows``)
turns an order into each producer's rows. Input mode (``plan_export``)
prunes consumer input channels; constrained consumers zero their pruned
columns and always slice. Output mode (``plan_export_output``) prunes
producer output channels and rewrites the join as runs of slices combined
by add/concat; with no order it writes the baseline infill, which drops
filters and restores each producer's width with a zero-filling gather.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, groupby
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

from reslice.graph import (
    MODE_INPUT,
    MODE_OUTPUT,
    MODES,
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
from reslice.segments import Segment, resolve_masks

PLAN_FILE_VERSION = 1

STRATEGY_REORDER = "reorder"
STRATEGY_BASELINE = "baseline"
STRATEGY_CONSTRAINED = "constrained"
# the strategies each mode plans with, in the order ``reslice stats`` reports them
MODE_STRATEGIES = {MODE_INPUT: (STRATEGY_REORDER, STRATEGY_BASELINE, STRATEGY_CONSTRAINED),
                   MODE_OUTPUT: (STRATEGY_REORDER, STRATEGY_BASELINE)}


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
    """How one consumer reads the rewritten tensor: slice mode reads the
    window ``[start, start+length)`` of it; gather mode gathers ``columns``,
    the consumer's original input columns it keeps, ascending, from wherever
    they land. Either way ``apply_plan`` derives the column order."""

    consumer: str
    mode: str  # "slice" | "gather"
    start: int = 0
    length: int = 0
    columns: tuple[int, ...] = ()

    @property
    def width(self) -> int:
        """The number of columns the consumer reads."""
        return self.length if self.mode == "slice" else len(self.columns)


@dataclass(frozen=True)
class JoinRewrite:
    """The rebuilt join. Each run is one maximal stretch of its output
    channels with a constant producer set, mapping each of them to its
    ``(start, length)`` window in the producer's new output."""

    join: str
    operands: dict[str, str]  # producer -> the join operand on its branch
    runs: tuple[dict[str, tuple[int, int]], ...]


@dataclass(frozen=True)
class SegmentPlan:
    """One segment's rewrite decisions, executed by ``apply_plan``. Masks
    keep at least one channel each, so no kept filter is ever zeroed.

    A plan holding a record foreign to its mode raises ValidationError
    wherever it is built: the copy count reads the producers of an
    output-mode plan and the consumers of an input-mode one, so a record of
    the other side would copy uncounted, and a gather copies every column
    it reads, the zeroed ones too."""

    segment: str
    mode: str
    strategy: str
    producers: tuple[str, ...]
    interior: tuple[str, ...]
    producer_orders: dict[str, tuple[int, ...]]  # kept local filters, new order
    consumers: tuple[ConsumerAccess, ...]
    zero_columns: dict[str, tuple[int, ...]]  # consumer -> original columns zeroed
    infill: tuple[str, ...]  # producers whose width a zero-filling gather restores
    join: JoinRewrite | None

    def __post_init__(self):
        gathers = [a.consumer for a in self.consumers if a.mode == "gather"]
        if self.mode == MODE_OUTPUT and (self.zero_columns or gathers):
            raise ValidationError(["an output-mode plan gathers or zeroes columns"])
        if self.mode == MODE_INPUT and (self.infill or self.join is not None):
            raise ValidationError(["an input-mode plan restores a width or rebuilds a join"])
        if zeroing := [c for c in gathers if self.zero_columns.get(c)]:
            raise ValidationError([f"{zeroing[0]}: a gathering consumer zeroes columns"])

    @cached_property
    def stats(self) -> CopyStats:
        """The plan's copy cost. Input mode: a consumer reads its columns
        less the zeroed ones, and a gather copies all it reads. Output mode:
        a producer reads its kept rows, and copies them behind an infill or
        when the join runs holding it are not consecutive."""
        if self.mode == MODE_INPUT:
            return CopyStats(
                sum(a.width - len(self.zero_columns.get(a.consumer, ()))
                    for a in self.consumers),
                sum(a.width for a in self.consumers if a.mode == "gather"))
        runs = self.join.runs if self.join else ()
        total = copied = 0
        for p, rows in self.producer_orders.items():
            held = [i for i, run in enumerate(runs) if p in run]
            total += len(rows)
            if p in self.infill or (held and held[-1] - held[0] + 1 != len(held)):
                copied += len(rows)
        return CopyStats(total, copied)


# --------------------------------------------------------------------------
# input-mode planners
# --------------------------------------------------------------------------

def _access(consumer: str, columns: tuple[int, ...], spots: Sequence[int],
            force_gather: bool = False) -> ConsumerAccess:
    """The access record of a consumer whose ascending input ``columns``
    land at ``spots``, their positions in the rewritten input."""
    if not force_gather and max(spots) - min(spots) + 1 == len(spots):
        return ConsumerAccess(consumer, "slice", start=min(spots), length=len(spots))
    return ConsumerAccess(consumer, "gather", columns=tuple(columns))


def _index_of(vec: Sequence[int]) -> dict[int, int]:
    """Entry -> its position in ``vec`` (the last one, for a repeated entry)."""
    return dict(zip(vec, range(len(vec))))


def _producer_rows(segment: Segment, order: tuple[int, ...] | None,
                   own: Mapping[str, Collection[int]] | None = None
                   ) -> dict[str, tuple[int, ...]]:
    """Each producer's kept filters, in their new order: its band's slots
    that ``order`` keeps, by position there (the band's lowest slot where it
    keeps none, so no layer ends up with zero channels), and in output mode
    only its own retained slots, ``own[p]``. Without an order, the identity."""
    if order is None:
        return {p: tuple(range(len(vec))) for p, vec in segment.producer_slots.items()}
    position = _index_of(order)
    rows = {}
    for band in segment.bands:
        layout = sorted(filter(position.__contains__, band.slots),
                        key=position.__getitem__) or [min(band.slots)]
        row_of = _index_of(band.slots)
        rows.update((p, tuple(row_of[s] for s in layout if own is None or s in own[p]))
                    for p in band.producers)
    return rows


def plan_export(graph: ModelGraph, segment: Segment, order: tuple[int, ...] | None,
                masks: ChannelMask, strategy: str = STRATEGY_REORDER) -> SegmentPlan:
    """The input-mode plan of ``strategy`` in which the producers adopt
    ``order``.

    With no order the layout stays fixed: no filter moves or is dropped, a
    consumer reading all of its columns takes the whole tensor and any
    other gathers. Under an order a consumer slices where its retained
    columns land contiguously (read off ``_old_channels``), else gathers.
    Constrained consumers read every column that survives and zero the
    pruned ones, so they always slice. A locked segment takes no order.
    """
    kept = resolve_masks(segment, masks, MODE_INPUT)
    if order is not None:
        if segment.lock_reason:
            raise ValidationError([f"{segment.id}: an order is given for a locked segment "
                                   f"({segment.lock_reason})"])
        if set().union(*kept.slots.values()).difference(order):
            raise ValidationError([f"{segment.id}: order does not cover all retained channels"])
    producer_orders = _producer_rows(segment, order)
    old = _old_channels(segment.id, graph, graph, segment.interior, producer_orders)

    accesses = []
    zero_columns = {}
    for c in segment.consumers:
        vec = segment.consumer_slots[c]
        position = list(map(_index_of(old[graph.predecessors(c)[0]]).get, range(len(vec))))
        columns = kept[c]
        if strategy == STRATEGY_CONSTRAINED:
            columns = tuple(l for l, pos in enumerate(position) if pos is not None)
            zeroed = sorted(set(columns) - set(kept[c]))
            if zeroed:
                zero_columns[c] = tuple(zeroed)
        spots = list(map(position.__getitem__, columns))
        accesses.append(_access(c, columns, spots,
                                force_gather=order is None and len(columns) < len(vec)))

    return SegmentPlan(
        segment=segment.id, mode=MODE_INPUT, strategy=strategy,
        producers=segment.producers, interior=segment.interior,
        producer_orders=producer_orders, consumers=tuple(accesses),
        zero_columns=zero_columns, infill=(), join=None,
    )


# --------------------------------------------------------------------------
# output-mode planners
# --------------------------------------------------------------------------

def plan_export_output(graph: ModelGraph, segment: Segment, order: tuple[int, ...] | None,
                       output_masks: ChannelMask) -> SegmentPlan:
    """Output-side pruning: producers drop their own pruned filters.

    With no order the layout stays: the baseline infill restores each
    producer's original width with a zero-filling gather right after it.
    Downstream stays untouched, so this is equivalent for any topology,
    bias layers included. Otherwise producers adopt ``order``, which lists
    each kept filter's slot once (``Retained.slots``), and the join is
    rewritten as maximal constant-producer-set runs (a slice per producer,
    an add per shared run, one concat). A segment output mode cannot
    rewrite (``Segment.output_lock_reason``) takes no order.
    """
    if order is None:
        kept = resolve_masks(segment, output_masks, MODE_OUTPUT)
        return SegmentPlan(
            segment=segment.id, mode=MODE_OUTPUT, strategy=STRATEGY_BASELINE,
            producers=segment.producers, interior=segment.interior,
            producer_orders=dict(kept), consumers=(), zero_columns={}, join=None,
            infill=tuple(p for p in segment.producers if len(kept[p]) < len(kept.vectors[p])))
    if segment.output_lock_reason:
        raise ValidationError([f"{segment.id}: an order is given for an output-locked segment "
                               f"({segment.output_lock_reason})"])

    retained = resolve_masks(segment, output_masks, MODE_OUTPUT).slots
    if sorted(order) != sorted(set().union(*retained.values())):
        raise ValidationError([f"{segment.id}: order does not list each kept channel once"])

    join_rewrite = None
    if segment.join:
        # one run per stretch of ``order`` whose slots the same producers keep
        runs = []
        cursor = dict.fromkeys(segment.producers, 0)
        owners = (tuple(p for p in segment.producers if slot in retained[p]) for slot in order)
        for sig, stretch in groupby(owners):
            length = len(list(stretch))
            runs.append({p: (cursor[p], length) for p in sig})
            for p in sig:
                cursor[p] += length
        join_rewrite = JoinRewrite(segment.join, dict(segment.join_operands), tuple(runs))

    # consumers read everything that survived, always a full slice
    rows = _producer_rows(segment, order, retained)
    old = _old_channels(segment.id, graph, graph, segment.interior, rows, join=join_rewrite)
    return SegmentPlan(
        segment=segment.id, mode=MODE_OUTPUT, strategy=STRATEGY_REORDER,
        producers=segment.producers, interior=segment.interior, producer_orders=rows,
        consumers=tuple(ConsumerAccess(c, "slice", length=len(old[graph.predecessors(c)[0]]))
                        for c in segment.consumers),
        zero_columns={}, infill=(), join=join_rewrite,
    )


# --------------------------------------------------------------------------
# plan application
# --------------------------------------------------------------------------

class _Rewrite:
    """A mutable copy of ``source`` under rewrite.

    Layers and edges keep file order, so the model comes out in the order a
    rebuild after each plan would give: in ``layers`` a replaced layer keeps
    its place and a new one goes last; in ``edges`` a removed entry becomes
    None, so every other keeps its position. ``out_edges`` and ``in_edges``
    index edge positions by source and by destination (``in_edges``
    ascending, so predecessors keep their file order).
    """

    def __init__(self, graph: ModelGraph, weights: WeightStore):
        self.source = graph
        self.layers: dict[str, Layer] = {l.id: l for l in graph.layers}
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

    def layer(self, layer_id: str) -> Layer:
        return self.layers[layer_id]

    def predecessors(self, layer_id: str) -> list[str]:
        return [self.edges[i][0] for i in self.in_edges[layer_id]]

    def add_node(self, base: str, kind: LayerKind, sources: Sequence[str], in_channels: int,
                 out_channels: int, params: tuple[int, ...] | None = None) -> str:
        """Add a layer reading ``sources``, in order, under the first free id
        of ``base``, ``base_2``, ``base_3``...; returns the id."""
        nid, k = base, 2
        while nid in self.taken:
            nid, k = f"{base}_{k}", k + 1
        self.taken.add(nid)
        self.layers[nid] = Layer(nid, kind, in_channels, out_channels, params)
        for src in sources:
            self.out_edges[src].append(len(self.edges))
            self.in_edges[nid].append(len(self.edges))
            self.edges.append((src, nid))
        return nid

    def remove_layer(self, layer_id: str) -> None:
        """Drop a layer and the edges into it; move its out-edges first."""
        for i in self.in_edges.pop(layer_id, []):
            self.out_edges[self.edges[i][0]].remove(i)
            self.edges[i] = None
        del self.layers[layer_id]

    def move_sources(self, positions: Iterable[int], new: str) -> None:
        """Make ``new`` the source of the edges at ``positions``."""
        for i in list(positions):
            src, dst = self.edges[i]
            self.out_edges[src].remove(i)
            self.out_edges[new].append(i)
            self.edges[i] = (new, dst)

    def graph(self) -> ModelGraph:
        return ModelGraph(list(self.layers.values()), [e for e in self.edges if e is not None])


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
    named = {*plan.producers, *plan.interior, *consumers}
    jr = plan.join
    if jr is not None:
        named.update((jr.join, *jr.operands, *jr.operands.values()))
        if not jr.runs or not all(run and run.keys() <= jr.operands.keys() for run in jr.runs):
            raise ValidationError([f"plan {plan.segment}: a run of join {jr.join!r} "
                                   "names no producer or one that is not an operand"])
    # interior ids name layers of the input graph, whose order the walk takes
    unknown = {lid for lid in named if lid not in layers}
    unknown.update(u for u in plan.interior if u not in rw.source)
    if unknown:
        raise ValidationError([f"plan {plan.segment}: names unknown layer {lid!r}"
                               for lid in sorted(unknown)])
    _check_role(plan, "producer", plan.producers, plan.producer_orders, plan.infill,
                jr.operands if jr else ())
    _check_role(plan, "consumer", consumers, plan.zero_columns)
    _check_role(plan, "layer inside the segment", plan.interior)
    if jr is not None and not set(jr.operands.values()) <= set(rw.predecessors(jr.join)):
        raise ValidationError([f"plan {plan.segment}: an operand of join {jr.join!r} "
                               "does not feed it"])
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
    return sources


def _check_indices(plan: SegmentPlan, what: str, entries: Sequence[int],
                   allowed: Collection[int]) -> None:
    """Raise ValidationError unless ``entries`` are distinct members of ``allowed``."""
    distinct = set(entries)
    if len(distinct) != len(entries) or distinct.difference(allowed):
        raise ValidationError([f"plan {plan.segment}: {what} repeats an index or names one "
                               "out of range"])


def _old_channels(segment: str, model: ModelGraph | _Rewrite, source: ModelGraph,
                  interior: Iterable[str], rows: Mapping[str, tuple[int, ...]],
                  infill: Collection[str] = (), join: JoinRewrite | None = None
                  ) -> dict[str, tuple[int, ...]]:
    """For each producer and interior node, the old channel index at each
    of its new output positions, walking the layers of ``model``: the model
    under rewrite when applying a plan, the input graph when planning one.

    A producer carries its ``rows``, or the identity over its width where
    the ``infill`` restores it. Walking the interior in topological order, a
    pass-through or per-channel layer carries its input's, a concat joins
    its inputs' (offset by their old widths) and an add carries its first
    operand's, which every other operand must equal. The rebuilt ``join``
    is a concat of its runs, each an add of its producers' windows. An
    interior slice or gather carries the identity and refuses a moved
    input. Ranks and old widths are read off the input graph, ``source``.
    """
    old = {p: tuple(range(source.layer(p).out_channels)) if p in infill else r
           for p, r in rows.items()}
    for u in sorted(interior, key=source.topological_rank):
        lay = model.layer(u)
        preds = model.predecessors(u)
        stray = [q for q in preds if q not in old]
        if stray:
            raise ValidationError([f"plan {segment}: {u!r} reads {stray[0]!r}, "
                                   "which is not in the segment"])
        if lay.kind in (LayerKind.PASS_THROUGH, LayerKind.PER_CHANNEL):
            old[u] = old[preds[0]]
            continue
        if lay.kind in (LayerKind.SLICE, LayerKind.GATHER):
            if old[preds[0]] != tuple(range(lay.in_channels)):
                raise ValidationError([f"{u}: selects channels by position, but a "
                                       "producer upstream of it moves"])
            old[u] = tuple(range(lay.out_channels))
            continue
        if lay.kind not in (LayerKind.ADD, LayerKind.CONCAT):
            raise ValidationError([f"{u}: unexpected {lay.kind.value} interior layer"])
        ins = [old[q] for q in preds]
        if lay.kind is LayerKind.CONCAT:
            offsets = accumulate([0] + [source.layer(q).out_channels for q in preds])
            ins = [tuple(offset + i for i in v) for v, offset in zip(ins, offsets)]
        if join is not None and u == join.join:
            operand = dict(zip(preds, ins))
            groups = [[operand[join.operands[p]][start:start + length]
                       for p, (start, length) in sorted(run.items())] for run in join.runs]
        else:
            groups = [ins] if lay.kind is LayerKind.ADD else [[v] for v in ins]
        if any(v != group[0] for group in groups for v in group):
            raise ValidationError([f"{u}: summed operands take different channel orders"])
        old[u] = (groups[0][0] if len(groups) == 1
                  else tuple(chain.from_iterable(group[0] for group in groups)))
    return old


def _keeps_join(jr: JoinRewrite, rw: _Rewrite) -> bool:
    """Whether the runs would rebuild the join as it is: every window is a
    producer's whole new output, and one run sums every operand of an add,
    or the runs take a concat's operands one each, in its input order."""
    layers = rw.layers
    if any(window != (0, layers[p].out_channels) for run in jr.runs for p, window in run.items()):
        return False
    preds = rw.predecessors(jr.join)
    operands = [sorted(map(jr.operands.__getitem__, run)) for run in jr.runs]
    if layers[jr.join].kind is LayerKind.ADD:
        return operands == [sorted(preds)]
    return operands == [[q] for q in preds]


def _apply_one(plan: SegmentPlan, rw: _Rewrite) -> None:
    """Apply one plan to the model under rewrite."""
    sources = _check_names(plan, rw)
    layers, weights = rw.layers, rw.weights

    # 1. producers: reorder/drop filter rows
    rows = {}
    for p in plan.producers:
        lay = layers[p]
        identity = tuple(range(lay.out_channels))
        rows[p] = tuple(plan.producer_orders.get(p, identity))
        if rows[p] != identity:
            if lay.kind is LayerKind.INPUT:
                raise ValidationError([f"{p}: cannot permute a model input"])
            _check_indices(plan, f"{p} filter order", rows[p], identity)
            weights[p] = weights[p][list(rows[p]), :]
            layers[p] = Layer(p, lay.kind, lay.in_channels, len(rows[p]), lay.params)
    old = _old_channels(plan.segment, rw, rw.source, plan.interior, rows, plan.infill, plan.join)

    # 2. output-mode infill: restore original widths with zero-fill gathers
    for p in sorted(plan.infill):
        new_position = _index_of(rows[p])
        readers = list(rw.out_edges[p])
        rw.move_sources(readers, rw.add_node(
            f"{p}.restore", LayerKind.GATHER, [p], layers[p].out_channels, len(old[p]),
            tuple(new_position.get(i, -1) for i in old[p])))

    # 3. output-mode join rewrite: a slice per partial window, an add per
    # shared run, one concat
    redirect: dict[str, str] = {}
    jr = plan.join
    if jr is not None and not _keeps_join(jr, rw):
        outputs, total = [], 0
        for i, run in enumerate(jr.runs):
            parts = []
            for p, (start, length) in sorted(run.items()):
                source, width = jr.operands[p], layers[p].out_channels
                parts.append(source if (start, length) == (0, width) else rw.add_node(
                    f"{jr.join}.run{i}.{p}", LayerKind.SLICE, [source], width, length,
                    (start, length)))
            outputs.append(parts[0] if len(parts) == 1 else rw.add_node(
                f"{jr.join}.run{i}", LayerKind.ADD, parts, length, length))
            total += length
        final = outputs[0] if len(outputs) == 1 else rw.add_node(
            f"{jr.join}.joined", LayerKind.CONCAT, outputs, total, total)
        redirect[jr.join] = final
        rw.move_sources(rw.out_edges[jr.join], final)
        rw.remove_layer(jr.join)

    # 4. interior: a width is the length of the node's channel vector, and a
    # per-channel vector takes its node's old channels
    for u in plan.interior:
        lay = layers.get(u)  # None for a rebuilt join
        if lay is None or lay.kind in (LayerKind.SLICE, LayerKind.GATHER):
            continue
        w = len(old[u])
        if lay.kind is LayerKind.PER_CHANNEL and old[u] != tuple(range(len(weights[u]))):
            weights[u] = weights[u][list(old[u])]
        if (lay.in_channels, lay.out_channels) != (w, w):
            layers[u] = Layer(u, lay.kind, w, w, lay.params)

    # 5. consumers: restrict/permute columns, insert access nodes
    for access in plan.consumers:
        c = access.consumer
        lay = layers[c]
        pred = redirect.get(sources[c], sources[c])
        src = old[sources[c]]
        if access.mode == "slice":
            perm = src[access.start:access.start + access.length]
        else:
            position = _index_of(src)
            _check_indices(plan, f"{c} columns", access.columns, position)
            perm = access.columns
        zeroed = plan.zero_columns.get(c, ())
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
            if (access.start, access.length) == (0, source_width):
                continue  # reads the whole tensor: no node needed
            kind, params = LayerKind.SLICE, (access.start, access.length)
        else:
            kind, params = LayerKind.GATHER, tuple(map(position.__getitem__, perm))
        idx = next((i for i in rw.in_edges[c] if rw.edges[i][0] == pred), None)
        if idx is None:
            raise ValidationError([f"{c}: expected edge from {pred} is missing"])
        rw.move_sources([idx], rw.add_node(f"{c}.read", kind, [pred], source_width,
                                           access.width, params))

    # the removed join's id is free again for the next plan's new nodes
    rw.taken.difference_update(redirect)


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
    """The copy cost of ``plans`` together."""
    stats = [plan.stats for plan in plans]
    return CopyStats(sum(s.total_reads for s in stats), sum(s.copied for s in stats))


# --------------------------------------------------------------------------
# plan files
# --------------------------------------------------------------------------

def _access_to_dict(a: ConsumerAccess) -> dict:
    if a.mode == "slice":
        return {"consumer": a.consumer, "slice": [a.start, a.length]}
    return {"consumer": a.consumer, "perm": list(a.columns)}


def _int_pair(values) -> tuple[int, int]:
    """A slice or join window, ``[start, length]``; another length raises ValueError."""
    start, length = (read_int(x) for x in values)
    return start, length


def _access_from_dict(rec: dict) -> ConsumerAccess:
    # older files also give a slice's column order in "perm" and a gather's
    # positions in "gather"; both are derived, so ignored
    consumer = read_str(rec["consumer"])
    if "slice" in rec:
        start, length = _int_pair(rec["slice"])
        return ConsumerAccess(consumer, "slice", start=start, length=length)
    return ConsumerAccess(consumer, "gather", columns=read_ints(rec["perm"]))


def _int_map_to_dict(m: Mapping[str, tuple[int, ...]]) -> dict:
    return {k: list(v) for k, v in sorted(m.items())}


def _int_map_from_dict(obj: Mapping) -> dict[str, tuple[int, ...]]:
    return {str(k): read_ints(v) for k, v in obj.items()}


def plan_to_dict(plan: SegmentPlan) -> dict:
    join = None
    if plan.join is not None:
        join = {
            "join": plan.join.join,
            "operands": dict(sorted(plan.join.operands.items())),
            "runs": [{"windows": {p: list(w) for p, w in sorted(run.items())}}
                     for run in plan.join.runs],
        }
    return {
        "segment": plan.segment,
        "mode": plan.mode,
        "strategy": plan.strategy,
        "producers": list(plan.producers),
        "interior": list(plan.interior),
        "producer_orders": _int_map_to_dict(plan.producer_orders),
        "consumers": [_access_to_dict(a) for a in plan.consumers],
        "zero_columns": _int_map_to_dict(plan.zero_columns),
        "infill": sorted(plan.infill),
        "join": join,
    }


def plan_from_dict(obj: dict, source: str = "<memory>") -> SegmentPlan:
    """The plan a record holds. Older records carry fields that are derived
    (``per_channel``, the join's ``keep_original``, infill gather
    parameters) or counted (``stats``); they are ignored."""
    try:
        # older files carry zero_rows, which export always wrote empty
        if obj.get("zero_rows", {}) != {}:
            raise ModelFormatError(f"zero_rows must be empty, got {obj['zero_rows']!r}")
        join = None
        if obj.get("join") is not None:
            j = obj["join"]
            join = JoinRewrite(
                join=read_str(j["join"]),
                operands={str(k): read_str(v) for k, v in j["operands"].items()},
                runs=tuple({str(p): _int_pair(w) for p, w in r["windows"].items()}
                           for r in j["runs"]),
            )
        mode, strategy = read_str(obj["mode"]), read_str(obj["strategy"])
        if mode not in MODES:
            raise ModelFormatError(f"unknown mode {mode!r}")
        if strategy not in MODE_STRATEGIES[mode]:
            raise ModelFormatError(f"unknown strategy {strategy!r} for {mode} mode")
        infill = obj["infill"]  # older files map each producer to its gather parameters
        return SegmentPlan(
            segment=read_str(obj["segment"]),
            mode=mode,
            strategy=strategy,
            producers=tuple(map(read_str, obj["producers"])),
            interior=tuple(map(read_str, obj["interior"])),
            producer_orders=_int_map_from_dict(obj["producer_orders"]),
            consumers=tuple(_access_from_dict(rec) for rec in obj["consumers"]),
            zero_columns=_int_map_from_dict(obj["zero_columns"]),
            infill=tuple(map(read_str, infill if isinstance(infill, list) else dict(infill))),
            join=join,
        )
    except ValidationError as exc:  # a record foreign to the plan's mode
        raise ModelFormatError(f"{source}: {exc}") from exc
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ModelFormatError(f"{source}: bad plan record ({exc})") from exc


def save_plans(plans: Iterable[SegmentPlan], path: str | Path) -> None:
    _dump_json({"version": PLAN_FILE_VERSION,
                "segments": [plan_to_dict(p) for p in sorted(plans, key=lambda p: p.segment)]},
               path)


def load_plans(path: str | Path) -> list[SegmentPlan]:
    obj = _load_json(path)
    _expect_version(obj, path, PLAN_FILE_VERSION)
    if not isinstance(obj.get("segments"), list):
        raise ModelFormatError(f"{path}: need a 'segments' list")
    plans = [plan_from_dict(rec, str(path)) for rec in obj["segments"]]
    # a second record of a segment would apply as a no-op, yet count again
    for role, names in (("segment", [plan.segment for plan in plans]),
                        ("producer", [p for plan in plans for p in set(plan.producers)]),
                        ("consumer", [c for plan in plans
                                      for c in {a.consumer for a in plan.consumers}])):
        if twice := [n for n, k in Counter(names).items() if k > 1]:
            raise ModelFormatError(f"{path}: two records share {role} {twice[0]!r}")
    return plans
