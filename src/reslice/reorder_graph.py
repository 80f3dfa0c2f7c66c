"""Per-segment reorder graph: which consumers retain which channels.

One node per consumer (consumers with identical retained sets are merged:
they are interchangeable for ordering purposes). A node's reward is its
retained-channel count. Two nodes share an undirected edge iff they share
at least one retained channel; the edge reward is minus the shared count.
A node whose retained set strictly contains another's is a *parent*;
parent-child edges are exempt from the acyclicity rule during path search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from reslice.graph import ChannelMask, ModelGraph, ValidationError
from reslice.segments import Segment


class UnsupportedTopologyError(RuntimeError):
    """The join structure violates a reduction assumption for the segment."""

    def __init__(self, segment_id: str, reason: str):
        super().__init__(f"segment {segment_id}: {reason}")
        self.segment_id = segment_id
        self.reason = reason


@dataclass(frozen=True)
class ProducerEquivalence:
    """Map from a producer's local output channels to shared-space slots."""

    producer: str
    slots: tuple[int, ...]


@dataclass(frozen=True)
class RGNode:
    """A consumer (or merged group of identical-mask consumers)."""

    id: str  # == members[0]
    members: tuple[str, ...]
    retained: frozenset[int]
    reward: int


@dataclass
class ReorderGraph:
    nodes: dict[str, RGNode]
    edges: dict[tuple[str, str], frozenset[int]]  # key: sorted id pair -> shared
    parents: dict[str, tuple[str, ...]]  # parent node -> children (strict subsets)
    channel_space: int

    @staticmethod
    def _key(u: str, v: str) -> tuple[str, str]:
        return (u, v) if u <= v else (v, u)

    def shared(self, u: str, v: str) -> frozenset[int]:
        return self.edges.get(self._key(u, v), frozenset())

    def edge_reward(self, u: str, v: str) -> int:
        return -len(self.edges.get(self._key(u, v), ()))

    def has_edge(self, u: str, v: str) -> bool:
        return self._key(u, v) in self.edges

    def is_exempt(self, u: str, v: str) -> bool:
        return v in self.parents.get(u, ()) or u in self.parents.get(v, ())

    def subgraph(self, keep: Iterable[str]) -> "ReorderGraph":
        keep = set(keep)
        return _from_nodes([self.nodes[i] for i in sorted(keep)], self.channel_space)


def _from_nodes(nodes: Iterable[RGNode], channel_space: int) -> ReorderGraph:
    node_map = {n.id: n for n in nodes}
    ids = sorted(node_map)
    edges: dict[tuple[str, str], frozenset[int]] = {}
    children: dict[str, list[str]] = {i: [] for i in ids}
    for i, u in enumerate(ids):
        ru = node_map[u].retained
        for v in ids[i + 1:]:
            rv = node_map[v].retained
            shared = ru & rv
            if shared:
                edges[(u, v)] = frozenset(shared)
            if ru < rv:
                children[v].append(u)
            elif rv < ru:
                children[u].append(v)
    parents = {p: tuple(sorted(cs)) for p, cs in children.items() if cs}
    return ReorderGraph(node_map, edges, parents, channel_space)


def reorder_graph_from_sets(retained: Mapping[str, Iterable[int]],
                            channel_space: int) -> ReorderGraph:
    """Build a reorder graph from raw consumer -> retained-channel sets.

    Consumers with identical sets merge into one node named after the
    smallest member id.
    """
    by_set: dict[frozenset[int], list[str]] = {}
    for cid in sorted(retained):
        rset = frozenset(int(c) for c in retained[cid])
        if not rset:
            raise ValidationError([f"{cid}: retained set is empty"])
        if any(not (0 <= c < channel_space) for c in rset):
            raise ValidationError([f"{cid}: retained channel out of [0, {channel_space})"])
        by_set.setdefault(rset, []).append(cid)
    nodes = []
    for rset, members in by_set.items():
        members = tuple(sorted(members))
        nodes.append(RGNode(members[0], members, rset, len(rset)))
    return _from_nodes(nodes, channel_space)


def _retained_indices(vectors: Mapping[str, tuple[int, ...]], masks: ChannelMask,
                      what: str = "mask") -> dict[str, tuple[int, ...]]:
    """Per-layer retained local channel indices, ascending and distinct.

    ``vectors`` maps each layer to its slot vector (a segment's
    ``consumer_slots`` or ``producer_slots``); a layer without a mask entry
    retains every index, and an index outside its vector raises
    ValidationError.
    """
    out: dict[str, tuple[int, ...]] = {}
    for lid, vec in vectors.items():
        if lid not in masks:
            out[lid] = tuple(range(len(vec)))
            continue
        local = tuple(sorted(set(masks[lid])))
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
    return {c: frozenset(segment.consumer_slots[c][i] for i in columns)
            for c, columns in _retained_indices(segment.consumer_slots, masks).items()}


def build_reorder_graph(segment: Segment, masks: ChannelMask) -> ReorderGraph:
    slots = retained_slots(segment, masks)
    return reorder_graph_from_sets(slots, segment.channel_space)


def reduce_producers(segment: Segment, graph: ModelGraph | None = None) -> list[ProducerEquivalence]:
    """Per-producer slot maps, or an error when the join structure breaks
    the one-channel-to-one-slot assumptions."""
    if segment.unsupported is not None:
        raise UnsupportedTopologyError(segment.id, segment.unsupported)
    return [ProducerEquivalence(p, segment.producer_slots[p]) for p in segment.producers]
