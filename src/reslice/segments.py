"""Segment extraction: one walk finds each producer/consumer segment.

A segment is the unit that can be pruned independently: the set of layers
producing into one shared tensor space, the channel-mixing layers reading
from it, and the add/concat/pass-through plumbing in between. One worklist
walk from a seed producer finds all of it: producers expand forward,
interior nodes expand both ways, a channel mix reached forward is a
consumer and one reached backward is another producer.

Alongside the walk this module computes the segment's *slot space*: a
canonical index set for the shared tensor's channels, built by one loop
over the interior in topological order. Add joins identify producer
channels positionally (channel i of each summed input is the same slot);
concat gives each input its own block of slots; slices and gathers select
slots of their input. The per-producer and per-consumer slot vectors
computed here drive everything downstream (retained-slot sets, ordering,
planning, weight rewrites), and two lock reasons record why a segment
must keep its layout: in any mode, and in output mode, which must also
rebuild the segment's one join.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from reslice.graph import (INTERIOR_KINDS, MODE_OUTPUT, MODES, ChannelMask, LayerKind, ModelGraph,
                           ValidationError)


@dataclass(frozen=True)
class Band:
    """A group of producers that reorder together.

    Producers joined by Add carry identical slot vectors and must apply
    identical permutations; producers joined only by Concat own disjoint
    slot blocks and reorder independently (one band each).
    """

    producers: tuple[str, ...]
    slots: tuple[int, ...]


@dataclass(frozen=True)
class Segment:
    """One shared tensor space with its producers, consumers and plumbing.

    ``producer_slots[p][i]`` is the slot written by producer ``p``'s local
    output channel ``i``; ``consumer_slots[c][j]`` is the slot read by
    consumer ``c``'s local input channel ``j`` (its full read vector, in
    tensor order).

    ``lock_reason`` says why the layout must stay fixed (None: producers may
    reorder and drop channels). An ill-formed slot space, where one vector
    holds a slot twice, is the first such reason and leaves ``bands`` empty.
    ``output_lock_reason`` says why output mode must keep it (the lock
    reason, or ``_output_join``'s); where it can rewrite a segment with a
    join, ``join`` names it and ``join_operands`` maps each producer to
    the join operand on its branch.
    """

    producers: tuple[str, ...]
    consumers: tuple[str, ...]
    interior: tuple[str, ...]
    channel_space: int
    producer_slots: dict[str, tuple[int, ...]] = field(default_factory=dict)
    consumer_slots: dict[str, tuple[int, ...]] = field(default_factory=dict)
    bands: tuple[Band, ...] = ()
    lock_reason: str | None = None
    output_lock_reason: str | None = None
    join: str | None = None
    join_operands: dict[str, str] = field(default_factory=dict)

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


def _join_roots(count: int, joined: Sequence[tuple[Sequence[int], Sequence[int]]],
                ) -> np.ndarray:
    """The smallest raw id of each raw id's class, where add joins identify
    the ids at each position of the vector pairs in ``joined``. Each round
    hooks, for every position whose two ids still lie in different classes,
    the larger root onto the smaller, then jumps pointers until each id
    points at its root; a root is thus always its class's smallest id."""
    left = np.fromiter(chain.from_iterable(a for a, _ in joined), np.intp)
    right = np.fromiter(chain.from_iterable(b for _, b in joined), np.intp)
    root = np.arange(count)
    while True:
        a, b = root[left], root[right]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        apart = lo != hi
        if not apart.any():
            return root
        np.minimum.at(root, hi[apart], lo[apart])
        while not np.array_equal(up := root[root], root):
            root = up


def _slot_numbering(count: int, joined: Sequence[tuple[Sequence[int], Sequence[int]]],
                    ) -> tuple[Callable[[tuple[int, ...]], tuple[int, ...]], int]:
    """(canonical slot vector of a raw-id vector, number of slots) for
    ``count`` raw ids, where add joins identify the ids at each position of
    the vector pairs in ``joined``. The classes of identified ids are
    numbered in order of their smallest id, so where nothing is joined each
    raw id is its own slot and vectors are canonical as they are."""
    if not joined:
        return (lambda vec: vec), count
    root = _join_roots(count, joined)
    is_root = root == np.arange(count)
    canon = (np.cumsum(is_root) - 1)[root].tolist()
    done: dict[tuple[int, ...], tuple[int, ...]] = {}  # many nodes share one vector

    def canon_vec(vec: tuple[int, ...]) -> tuple[int, ...]:
        if vec not in done:
            done[vec] = tuple(map(canon.__getitem__, vec))
        return done[vec]
    return canon_vec, int(is_root.sum())


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


def _output_join(graph: ModelGraph, producers: set[str], by_kind: Mapping[LayerKind, list[str]]
                 ) -> tuple[str | None, str | None, dict[str, str]]:
    """(why output mode cannot rewrite a segment that no lock reason fixes,
    or None; the one join it rebuilds, if any; the join operand on each
    producer's branch, the producer itself or the last pass-through before
    the join). ``by_kind`` lists the interior nodes of each kind."""
    if LayerKind.PER_CHANNEL in by_kind:
        return (f"per-channel layer {by_kind[LayerKind.PER_CHANNEL][0]} inside an output-pruned "
                "segment: a dropped channel's contribution would not stay zero"), None, {}
    joins = by_kind.get(LayerKind.ADD, []) + by_kind.get(LayerKind.CONCAT, [])
    if len(joins) != 1:
        return ("more than one join between producers" if joins else None), None, {}
    # every other interior node is a pass-through, so each operand's branch
    # leads back to one producer, and every producer's branch to the join
    operands: dict[str, str] = {}
    for op in graph.predecessors(joins[0]):
        node = op
        while node not in producers:
            node = graph.predecessors(node)[0]
        if node in operands:
            return f"producer {node} feeds the join twice", None, {}
        operands[node] = op
    return None, joins[0], operands


def _build_segment(graph: ModelGraph, producers: set[str], interior: set[str],
                   consumers: set[str], reads_output: bool) -> Segment:
    producer_ids = tuple(sorted(producers))
    consumer_ids = tuple(sorted(consumers))
    interior_ids = tuple(sorted(interior))

    # raw slot ids: one per producer output channel, in sorted-producer
    # order, and one per zero-filled channel (a gather's -1 entry); the
    # pairs of add operands go to _slot_numbering, which joins their ids
    vectors: dict[str, tuple[int, ...]] = {}
    counter = 0
    for p in producer_ids:
        width = graph.layer(p).out_channels
        vectors[p] = tuple(range(counter, counter + width))
        counter += width
    joined: list[tuple[Sequence[int], Sequence[int]]] = []  # add operand pairs
    zero_seen = False
    for u in sorted(interior, key=graph.topological_rank):
        layer = graph.layer(u)
        ins = [vectors[q] for q in graph.predecessors(u)]
        if layer.kind is LayerKind.CONCAT:
            vectors[u] = tuple(chain.from_iterable(ins))
        elif layer.kind is LayerKind.SLICE:
            start, length = layer.params
            vectors[u] = ins[0][start:start + length]
        elif layer.kind is LayerKind.GATHER:
            zeros = layer.params.count(-1)
            fresh = iter(range(counter, counter + zeros))
            vectors[u] = tuple(ins[0][i] if i >= 0 else next(fresh) for i in layer.params)
            counter += zeros
            zero_seen |= zeros > 0
        else:  # add, pass-through, per-channel
            joined += [(ins[0], other) for other in ins[1:]]
            vectors[u] = ins[0]
    canon_vec, channel_space = _slot_numbering(counter, joined)
    producer_slots = {p: canon_vec(vectors[p]) for p in producer_ids}
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
    by_kind: dict[LayerKind, list[str]] = {}
    for u in interior_ids:
        by_kind.setdefault(graph.layer(u).kind, []).append(u)
    in_bands = [s for band in bands for s in band.slots]
    locks = (
        (ill_formed, ill_formed[0] if ill_formed else None),
        (any(graph.layer(p).kind is LayerKind.INPUT for p in producer_ids),
         "a producer is the model input"),
        (reads_output, "the segment feeds the model output"),
        (zero_seen, "the segment carries zero-filled channels"),
        (LayerKind.SLICE in by_kind or LayerKind.GATHER in by_kind,
         "an interior slice or gather selects channels by position"),
        (len(set(in_bands)) < len(in_bands), "producer bands overlap without being identical"),
    )
    lock_reason = next((why for holds, why in locks if holds), None)
    output_lock, join, operands = ((lock_reason, None, {}) if lock_reason
                                   else _output_join(graph, producers, by_kind))

    return Segment(
        producers=producer_ids,
        consumers=consumer_ids,
        interior=interior_ids,
        channel_space=channel_space,
        producer_slots=producer_slots,
        consumer_slots=consumer_slots,
        bands=tuple(bands),
        lock_reason=lock_reason,
        output_lock_reason=output_lock,
        join=join,
        join_operands=operands,
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
                or graph.layer(seed).kind not in (LayerKind.CHANNEL_MIX, LayerKind.INPUT)):
            continue
        segment = _build_segment(graph, *_walk(graph, seed))
        segments.append(segment)
        assigned.update(segment.producers)
    return sorted(segments, key=lambda s: s.producers[0])


class Retained(dict):
    """Layer id -> the local channel indices its mask retains, ascending and
    distinct, for every layer of ``vectors`` (one segment's
    ``consumer_slots`` or ``producer_slots``): a mask as ``resolve_masks``
    resolves it. Passed in again as the mask for the same vectors, it is
    returned as it is, so the pipeline resolves each segment's masks once
    and hands the result to ordering and planning. ``slots`` holds the same
    channels in segment-slot space, derived on first use."""

    def __init__(self, vectors: Mapping[str, tuple[int, ...]]):
        super().__init__()
        self.vectors = vectors

    @cached_property
    def slots(self) -> dict[str, frozenset[int]]:
        return {lid: frozenset(map(self.vectors[lid].__getitem__, local))
                for lid, local in self.items()}


def resolve_masks(segment: Segment, masks: ChannelMask, mode: str) -> Retained:
    """The segment's masks as per-layer retained local channel indices.

    This is where every stage reads a mask. Input-mode masks index each
    consumer's input columns (``consumer_slots``), output-mode masks each
    producer's filters (``producer_slots``). A layer without a mask entry
    retains every index. A mask that keeps no channel, or names an index
    outside its vector, raises ValidationError. ``masks`` already resolved
    against the same vectors comes back unchanged.
    """
    if mode not in MODES:
        raise ValidationError([f"unknown mode {mode!r}"])
    vectors, what = ((segment.producer_slots, "output mask") if mode == MODE_OUTPUT
                     else (segment.consumer_slots, "mask"))
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
        if local[0] < 0 or local[-1] >= len(vec):
            bad = local[0] if local[0] < 0 else local[bisect_left(local, len(vec))]
            raise ValidationError([f"{lid}: {what} index {bad} out of [0, {len(vec)})"])
        out[lid] = local
    return out
