"""Segment extraction: fixed-point closure of producers and consumers.

A segment is the unit that can be pruned independently: the set of layers
producing into one shared tensor space, the channel-mixing layers reading
from it, and the add/concat/pass-through plumbing in between. Closure:
starting from any producer, alternate consumers-of / producers-of until
both sets stop growing.

Alongside the closure this module computes the segment's *slot space*: a
canonical index set for the shared tensor's channels. Add joins identify
producer channels positionally (channel i of each summed input is the same
slot); concat gives each input its own block of slots. The per-producer
and per-consumer slot vectors computed here drive everything downstream
(reorder graph, planning, weight rewrites).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from reslice.graph import INTERIOR_KINDS, LayerKind, ModelGraph

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
    """

    producers: tuple[str, ...]
    consumers: tuple[str, ...]
    interior: tuple[str, ...]
    channel_space: int
    producer_slots: dict[str, tuple[int, ...]] = field(default_factory=dict)
    consumer_slots: dict[str, tuple[int, ...]] = field(default_factory=dict)
    node_slots: dict[str, tuple[int, ...]] = field(default_factory=dict)
    bands: tuple[Band, ...] = ()
    has_input_producer: bool = False
    reads_output: bool = False
    reorder_locked: bool = False
    unsupported: str | None = None

    @property
    def id(self) -> str:
        return self.producers[0]

    def read_slots(self) -> set[int]:
        """Slots read by at least one consumer (convenience for planners)."""
        read: set[int] = set()
        for c in self.consumers:
            read.update(self.consumer_slots[c])
        read.discard(ZERO)
        return read


def _is_producer_kind(kind: LayerKind) -> bool:
    return kind in (LayerKind.CHANNEL_MIX, LayerKind.INPUT)


def _forward(graph: ModelGraph, producers: Iterable[str]) -> tuple[set[str], set[str]]:
    """(consumers, interior nodes) reachable forward from the producers."""
    consumers: set[str] = set()
    interior: set[str] = set()
    stack: list[str] = []
    for p in producers:
        graph.layer(p)  # raises KeyError for unknown ids
        stack.extend(graph.successors(p))
    while stack:
        u = stack.pop()
        kind = graph.layer(u).kind
        if kind is LayerKind.CHANNEL_MIX:
            consumers.add(u)
        elif kind in INTERIOR_KINDS and u not in interior:
            interior.add(u)
            stack.extend(graph.successors(u))
    return consumers, interior


def consumers_of(graph: ModelGraph, producers: Iterable[str]) -> set[str]:
    """All channel-mixing layers reachable from any producer's output
    through interior-kind layers only."""
    return _forward(graph, producers)[0]


def producers_of(graph: ModelGraph, nodes: Iterable[str]) -> set[str]:
    """All producing layers (channel-mixing or model inputs) feeding any
    given node's input through interior-kind layers only."""
    producers: set[str] = set()
    seen: set[str] = set()
    stack: list[str] = []
    for c in nodes:
        graph.layer(c)
        stack.extend(graph.predecessors(c))
    while stack:
        u = stack.pop()
        kind = graph.layer(u).kind
        if _is_producer_kind(kind):
            producers.add(u)
        elif kind in INTERIOR_KINDS and u not in seen:
            seen.add(u)
            stack.extend(graph.predecessors(u))
    return producers


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


def _build_segment(graph: ModelGraph, producers: set[str], consumers: set[str]) -> Segment:
    producer_ids = tuple(sorted(producers))
    consumer_ids = tuple(sorted(consumers))

    # collect interior nodes and output-boundary flag by a forward walk
    interior: set[str] = set()
    reads_output = False
    stack = [s for p in producer_ids for s in graph.successors(p)]
    while stack:
        u = stack.pop()
        kind = graph.layer(u).kind
        if kind is LayerKind.CHANNEL_MIX:
            continue
        if kind is LayerKind.OUTPUT:
            reads_output = True
            continue
        if u in interior:
            continue
        interior.add(u)
        stack.extend(graph.successors(u))

    # raw slot ids: one per producer output channel, in sorted-producer order
    raw_of: dict[str, range] = {}
    counter = 0
    for p in producer_ids:
        width = graph.layer(p).out_channels
        raw_of[p] = range(counter, counter + width)
        counter += width
    uf = _UnionFind(counter)
    zero_seen = False

    def fresh_zero():
        nonlocal counter, zero_seen
        zero_seen = True
        uf.parent.append(counter)
        counter += 1
        return counter - 1

    producer_vectors = {p: tuple(raw_of[p]) for p in producer_ids}
    vectors = propagate_vectors(
        graph, interior, producer_vectors,
        merge=lambda a, b: [uf.union(x, y) for x, y in zip(a, b)],
        zero=fresh_zero,
    )

    # canonical slot indices, in raw-id order of the class representative
    canon: dict[int, int] = {}
    for raw in range(counter):
        root = uf.find(raw)
        if root not in canon:
            canon[root] = len(canon)

    def canon_vec(vec: Sequence[int]) -> tuple[int, ...]:
        return tuple(canon[uf.find(x)] for x in vec)

    producer_slots = {p: canon_vec(producer_vectors[p]) for p in producer_ids}
    node_slots = {u: canon_vec(vectors[u]) for u in interior}
    consumer_slots = {}
    for c in consumer_ids:
        pred = graph.predecessors(c)[0]
        consumer_slots[c] = canon_vec(vectors[pred])

    unsupported = None
    for p in producer_ids:
        if len(set(producer_slots[p])) != len(producer_slots[p]):
            unsupported = (f"channels of producer {p} are identified with each "
                           f"other by the join structure")
            break
    if unsupported is None:
        for c in consumer_ids:
            if len(set(consumer_slots[c])) != len(consumer_slots[c]):
                unsupported = f"consumer {c} reads the same channel more than once"
                break

    # band structure: identical slot vectors reorder together, disjoint slot
    # sets reorder independently; anything in between cannot be reordered.
    # Interior slice/gather nodes select positions, which do not survive an
    # upstream reorder, so those segments are pinned to identity as well.
    has_input = any(graph.layer(p).kind is LayerKind.INPUT for p in producer_ids)
    has_repack = any(graph.layer(u).kind in (LayerKind.SLICE, LayerKind.GATHER)
                     for u in interior)
    locked = has_input or reads_output or zero_seen or has_repack
    bands: list[Band] = []
    if unsupported is None:
        by_vector: dict[tuple[int, ...], list[str]] = {}
        for p in producer_ids:
            by_vector.setdefault(producer_slots[p], []).append(p)
        groups = sorted(by_vector.items(), key=lambda kv: kv[1][0])
        for i, (vec_i, prods_i) in enumerate(groups):
            bands.append(Band(tuple(sorted(prods_i)), vec_i))
            set_i = set(vec_i)
            for vec_j, _ in groups[i + 1:]:
                if set_i & set(vec_j):
                    locked = True  # overlapping but not identical
    else:
        locked = True

    return Segment(
        producers=producer_ids,
        consumers=consumer_ids,
        interior=tuple(sorted(interior)),
        channel_space=len(canon),
        producer_slots=producer_slots,
        consumer_slots=consumer_slots,
        node_slots=node_slots,
        bands=tuple(bands),
        has_input_producer=has_input,
        reads_output=reads_output,
        reorder_locked=locked,
        unsupported=unsupported,
    )


def find_segments(graph: ModelGraph) -> list[Segment]:
    """Partition the graph into closed producer/consumer segments.

    Deterministic: seeds are visited in topological order and the result is
    sorted by each segment's smallest producer id. Producers whose output
    feeds nothing are skipped.
    """
    assigned: set[str] = set()
    segments: list[Segment] = []
    for seed in graph.topological_order():
        layer = graph.layer(seed)
        if not _is_producer_kind(layer.kind) or seed in assigned:
            continue
        if not graph.successors(seed):
            continue
        prods = {seed}
        while True:
            # joins must pull in every operand's producer even when nothing
            # consumes them (e.g. a residual add feeding the model output),
            # so the backward walk is seeded from interior nodes as well
            cons, interior = _forward(graph, prods)
            grown = producers_of(graph, cons | interior) | prods
            if grown == prods:
                break
            prods = grown
        segments.append(_build_segment(graph, prods, cons))
        assigned |= prods
    return sorted(segments, key=lambda s: s.producers[0])
