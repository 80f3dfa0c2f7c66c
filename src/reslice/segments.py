"""Segment extraction: one walk finds each producer/consumer segment.

A segment is the unit that can be pruned independently: the set of layers
producing into one shared tensor space, the channel-mixing layers reading
from it, and the add/concat/pass-through plumbing in between. One worklist
walk from a seed producer finds all of it: producers expand forward,
interior nodes expand both ways, a channel mix reached forward is a
consumer and one reached backward is another producer.

Alongside the walk this module computes the segment's *slot space*: a
canonical index set for the shared tensor's channels. Add joins identify
producer channels positionally (channel i of each summed input is the same
slot); concat gives each input its own block of slots. The per-producer
and per-consumer slot vectors computed here drive everything downstream
(retained-slot sets, ordering, planning, weight rewrites), and one lock
reason records why a segment must keep its layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from reslice.graph import INTERIOR_KINDS, ChannelMask, LayerKind, ModelGraph, ValidationError

# token used in slot vectors for channels that are constant zero
# (produced by gather layers with -1 source entries in re-imported exports)
ZERO = -1


@dataclass(frozen=True)
class Band:
    """A group of producers that reorder together.

    Producers joined by Add carry identical slot vectors and must apply
    identical permutations; producers joined only by Concat own disjoint
    slot blocks and reorder independently (one band each).
    """

    producers: tuple[str, ...]
    slots: tuple[int, ...]


@dataclass
class Segment:
    """One shared tensor space with its producers, consumers and plumbing.

    ``producer_slots[p][i]`` is the slot written by producer ``p``'s local
    output channel ``i``; ``consumer_slots[c][j]`` is the slot read by
    consumer ``c``'s local input channel ``j`` (its full read vector, in
    tensor order). ``node_slots`` carries the output slot vector of every
    interior node, used to permute per-channel vectors at export time.

    ``lock_reason`` says why the layout must stay fixed (None: producers may
    reorder and drop channels). An ill-formed slot space, where one vector
    holds a slot twice, is the first such reason and leaves ``bands`` empty.
    """

    producers: tuple[str, ...]
    consumers: tuple[str, ...]
    interior: tuple[str, ...]
    channel_space: int
    producer_slots: dict[str, tuple[int, ...]] = field(default_factory=dict)
    consumer_slots: dict[str, tuple[int, ...]] = field(default_factory=dict)
    node_slots: dict[str, tuple[int, ...]] = field(default_factory=dict)
    bands: tuple[Band, ...] = ()
    lock_reason: str | None = None

    @property
    def id(self) -> str:
        return self.producers[0]

    @cached_property
    def band_reads(self) -> dict[str, tuple[int, ...]]:
        """Per consumer, the indices into ``bands`` of the bands it reads,
        one per run of its read vector, in read order."""
        band_of: dict[int, int] = {}
        for i, band in enumerate(self.bands):
            band_of.update(dict.fromkeys(band.slots, i))
        return {c: tuple(map(itemgetter(0), groupby(map(band_of.__getitem__, vec))))
                for c, vec in self.consumer_slots.items()}


def _is_producer_kind(kind: LayerKind) -> bool:
    return kind in (LayerKind.CHANNEL_MIX, LayerKind.INPUT)


def propagate_vectors(
    graph: ModelGraph,
    interior: Iterable[str],
    producer_vectors: Mapping[str, Sequence],
    merge: Callable[[Sequence, Sequence], None] | None = None,
    zero: Callable[[], object] = lambda: ZERO,
    overrides: Mapping[str, Sequence] | None = None,
) -> dict[str, tuple]:
    """Push per-producer channel vectors through a segment's interior.

    Returns the output vector of every node in ``producer_vectors`` plus
    every interior node. ``merge(a, b)`` is called on each positional pair
    of Add operand vectors (the segmenter unifies slots there; the planner
    asserts equality). ``zero()`` supplies the vector entry for gather
    channels sourced from -1. ``overrides`` fixes the output vector of the
    interior nodes it names (a rewritten join emits its combined order).
    Only the interior is visited, in the graph's topological order.
    """
    vectors: dict[str, tuple] = {p: tuple(v) for p, v in producer_vectors.items()}
    overrides = overrides or {}
    for u in sorted(interior, key=graph.topological_rank):
        if u in overrides:
            vectors[u] = tuple(overrides[u])
            continue
        layer = graph.layer(u)
        ins = [vectors[q] for q in graph.predecessors(u)]
        if layer.kind in (LayerKind.PASS_THROUGH, LayerKind.PER_CHANNEL):
            vectors[u] = ins[0]
        elif layer.kind is LayerKind.CONCAT:
            vectors[u] = tuple(x for v in ins for x in v)
        elif layer.kind is LayerKind.ADD:
            first = ins[0]
            if merge is not None:
                for other in ins[1:]:
                    merge(first, other)
            vectors[u] = first
        elif layer.kind is LayerKind.SLICE:
            start, length = layer.params
            vectors[u] = ins[0][start:start + length]
        elif layer.kind is LayerKind.GATHER:
            src = ins[0]
            vectors[u] = tuple(src[i] if i >= 0 else zero() for i in layer.params)
        else:  # pragma: no cover - interior set never contains other kinds
            raise AssertionError(f"unexpected interior kind {layer.kind}")
    return vectors


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # anchor to the smaller id so canonical slots are stable
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _slot_numbering(count: int, joined: Sequence[tuple[Sequence[int], Sequence[int]]],
                    ) -> tuple[Callable[[tuple[int, ...]], tuple[int, ...]], int]:
    """(canonical slot vector of a raw-id vector, number of slots) for
    ``count`` raw ids, where add joins identify the ids at each position of
    the vector pairs in ``joined``. The classes of identified ids are
    numbered in order of their smallest id, so where nothing is joined each
    raw id is its own slot and vectors are canonical as they are."""
    if not joined:
        return (lambda vec: vec), count
    uf = _UnionFind(count)
    for a, b in joined:
        for x, y in zip(a, b):
            uf.union(x, y)
    number: dict[int, int] = {}  # class representative -> slot
    canon = [number.setdefault(uf.find(raw), len(number)) for raw in range(count)]
    done: dict[tuple[int, ...], tuple[int, ...]] = {}  # many nodes share one vector

    def canon_vec(vec: tuple[int, ...]) -> tuple[int, ...]:
        if vec not in done:
            done[vec] = tuple(map(canon.__getitem__, vec))
        return done[vec]
    return canon_vec, len(number)


def _walk(graph: ModelGraph, seed: str) -> tuple[set[str], set[str], set[str], bool]:
    """(producers, interior, consumers, reads model output) of the segment
    holding producer ``seed``.

    Producers expand forward and interior nodes both ways, so joins pull in
    every operand's producer even when nothing consumes the join (a
    residual add feeding the model output, say).
    """
    producers, interior, consumers = {seed}, set(), set()
    reads_output = False
    stack = [seed]
    while stack:
        u = stack.pop()
        steps = [(v, True) for v in graph.successors(u)]
        if u in interior:
            steps += [(v, False) for v in graph.predecessors(u)]
        for v, forward in steps:
            kind = graph.layer(v).kind
            if kind in INTERIOR_KINDS:
                found = interior
            elif kind is LayerKind.OUTPUT:
                reads_output |= forward
                continue
            elif forward:  # a channel mix reading the segment
                consumers.add(v)
                continue
            else:  # a channel mix or model input writing into it
                found = producers
            if v not in found:
                found.add(v)
                stack.append(v)
    return producers, interior, consumers, reads_output


def _build_segment(graph: ModelGraph, producers: set[str], interior: set[str],
                   consumers: set[str], reads_output: bool) -> Segment:
    producer_ids = tuple(sorted(producers))
    consumer_ids = tuple(sorted(consumers))
    interior_ids = tuple(sorted(interior))

    # raw slot ids: one per producer output channel, in sorted-producer order
    producer_vectors: dict[str, tuple[int, ...]] = {}
    counter = 0
    for p in producer_ids:
        width = graph.layer(p).out_channels
        producer_vectors[p] = tuple(range(counter, counter + width))
        counter += width
    joined: list[tuple[Sequence[int], Sequence[int]]] = []  # add operand pairs
    zero_seen = False

    def fresh_zero():
        nonlocal counter, zero_seen
        zero_seen = True
        counter += 1
        return counter - 1

    vectors = propagate_vectors(graph, interior, producer_vectors,
                                merge=lambda a, b: joined.append((a, b)), zero=fresh_zero)
    canon_vec, channel_space = _slot_numbering(counter, joined)
    producer_slots = {p: canon_vec(producer_vectors[p]) for p in producer_ids}
    node_slots = {u: canon_vec(vectors[u]) for u in interior_ids}
    consumer_slots = {c: canon_vec(vectors[graph.predecessors(c)[0]]) for c in consumer_ids}

    # a slot space is ill-formed where one vector holds a slot twice
    ill_formed = [f"channels of producer {p} are identified with each other by the join structure"
                  for p in producer_ids if len(set(producer_slots[p])) != len(producer_slots[p])]
    ill_formed += [f"consumer {c} reads the same channel more than once"
                   for c in consumer_ids if len(set(consumer_slots[c])) != len(consumer_slots[c])]

    # band structure: identical slot vectors reorder together, disjoint slot
    # sets reorder independently. Producers are sorted, so each band lists
    # its producers sorted and bands come in order of their first producer.
    bands: list[Band] = []
    if not ill_formed:
        by_vector: dict[tuple[int, ...], list[str]] = {}
        for p in producer_ids:
            by_vector.setdefault(producer_slots[p], []).append(p)
        bands = [Band(tuple(prods), vec) for vec, prods in by_vector.items()]
    # the first reason that holds fixes the layout. Interior slice/gather
    # nodes select positions, which do not survive an upstream reorder. A
    # band's own slots are distinct, so a slot listed twice lies in two bands.
    in_bands = [s for band in bands for s in band.slots]
    locks = (
        (ill_formed, ill_formed[0] if ill_formed else None),
        (any(graph.layer(p).kind is LayerKind.INPUT for p in producer_ids),
         "a producer is the model input"),
        (reads_output, "the segment feeds the model output"),
        (zero_seen, "the segment carries zero-filled channels"),
        (any(graph.layer(u).kind in (LayerKind.SLICE, LayerKind.GATHER) for u in interior),
         "an interior slice or gather selects channels by position"),
        (len(set(in_bands)) < len(in_bands), "producer bands overlap without being identical"),
    )
    lock_reason = next((why for holds, why in locks if holds), None)

    return Segment(
        producers=producer_ids,
        consumers=consumer_ids,
        interior=interior_ids,
        channel_space=channel_space,
        producer_slots=producer_slots,
        consumer_slots=consumer_slots,
        node_slots=node_slots,
        bands=tuple(bands),
        lock_reason=lock_reason,
    )


def find_segments(graph: ModelGraph) -> list[Segment]:
    """Partition the graph into producer/consumer segments.

    Deterministic: seeds are visited in topological order and the result is
    sorted by each segment's smallest producer id. Producers whose output
    feeds nothing are skipped.
    """
    assigned: set[str] = set()
    segments: list[Segment] = []
    for seed in graph.topological_order():
        if (seed in assigned or not graph.successors(seed)
                or not _is_producer_kind(graph.layer(seed).kind)):
            continue
        segment = _build_segment(graph, *_walk(graph, seed))
        segments.append(segment)
        assigned.update(segment.producers)
    return sorted(segments, key=lambda s: s.producers[0])


class Retained(dict):
    """Layer id -> the local channel indices its mask retains, ascending and
    distinct, for every layer of ``vectors`` (one segment's
    ``consumer_slots`` or ``producer_slots``): a mask as
    ``_retained_indices`` resolves it. Passed in again as the mask for the
    same vectors, it is returned as it is, so the pipeline resolves each
    segment's masks once and hands the result to ordering and planning."""

    def __init__(self, vectors: Mapping[str, tuple[int, ...]]):
        super().__init__()
        self.vectors = vectors


def _retained_indices(vectors: Mapping[str, tuple[int, ...]], masks: ChannelMask,
                      what: str = "mask") -> Retained:
    """Per-layer retained local channel indices, ascending and distinct.

    This is where every planner reads a mask. ``vectors`` maps each layer to
    its slot vector (a segment's ``consumer_slots`` or ``producer_slots``);
    a layer without a mask entry retains every index. A mask that keeps no
    channel, or names an index outside its vector, raises ValidationError.
    ``masks`` already resolved against ``vectors`` comes back unchanged.
    """
    if isinstance(masks, Retained) and masks.vectors is vectors:
        return masks
    out = Retained(vectors)
    for lid, vec in vectors.items():
        if lid not in masks:
            out[lid] = tuple(range(len(vec)))
            continue
        local = tuple(sorted(set(masks[lid])))
        if not local:
            raise ValidationError([f"{lid}: {what} keeps no channel"])
        bad = [i for i in local if not (0 <= i < len(vec))]
        if bad:
            raise ValidationError([f"{lid}: {what} index {bad[0]} out of [0, {len(vec)})"])
        out[lid] = local
    return out


def retained_slots(segment: Segment, masks: ChannelMask) -> dict[str, frozenset[int]]:
    """Per-consumer retained channels in segment-slot space.

    Consumers without a mask entry retain everything they read. Mask
    indices are consumer-local input channel indices.
    """
    return {c: frozenset(map(segment.consumer_slots[c].__getitem__, columns))
            for c, columns in _retained_indices(segment.consumer_slots, masks).items()}


def producer_retained_slots(segment: Segment,
                            output_masks: ChannelMask) -> dict[str, frozenset[int]]:
    """Per-producer kept filters in segment-slot space (output masks).

    Producers without a mask entry keep every filter; an empty or
    out-of-range mask raises ValidationError (``_retained_indices``).
    """
    kept = _retained_indices(segment.producer_slots, output_masks, "output mask")
    return {p: frozenset(map(segment.producer_slots[p].__getitem__, rows))
            for p, rows in kept.items()}
