"""The maximum-reward path search, which export no longer runs.

Export orders channels by consecutive ones (``reslice.ordering``). The
path search, and ``reduce_producers`` (each producer's slot map, refused
on an ill-formed slot space), stay as the tests' comparison reference;
within the package only ``reslice.pipeline`` imports them, for
``bench/tracing.py``.

A reorder graph has one node per retained-slot set (layers with identical
sets merge), rewarded with its size; nodes whose sets intersect share an
edge rewarded with minus the shared count. A node whose set strictly
contains another's is a *parent*. A path is an ordered list of distinct
nodes, valid when no two non-adjacent entries share an edge other than a
parent-child edge. Its reward is the sum of node rewards plus the rewards
of edges between consecutive entries, plus the reward of every parent off
the path whose channels its children on the path cover.

``solve_mrap`` finds the maximum-reward valid path with deterministic
tie-breaking (lexicographically smallest node-id sequence), exactly up to
``EXACT_NODE_CAP`` nodes and greedily above. Both searches read one bitmask
view of the graph, in which a search state is (path set, last node).
``decompose_paths`` peels optimal paths off the graph until every node is
placed (or absorbed as a fully covered parent), and ``order_channels``
emits the channel order of such a decomposition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping

from reslice.graph import ChannelMask, ModelGraph, ValidationError
from reslice.segments import Segment, retained_slots

logger = logging.getLogger(__name__)

# above this node count the exact search falls back to a greedy heuristic
EXACT_NODE_CAP = 20


@dataclass(frozen=True)
class RGNode:
    """A layer (or merged group of layers with identical retained sets)."""

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
    """Build a reorder graph from raw layer -> retained-channel sets.

    Layers with identical sets merge into one node named after the
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


def build_reorder_graph(segment: Segment, masks: ChannelMask) -> ReorderGraph:
    """The reorder graph of a segment's consumers (input masks)."""
    return reorder_graph_from_sets(retained_slots(segment, masks), segment.channel_space)


@dataclass(frozen=True)
class ProducerEquivalence:
    """Map from a producer's local output channels to shared-space slots."""

    producer: str
    slots: tuple[int, ...]


def reduce_producers(segment: Segment, graph: ModelGraph | None = None) -> list[ProducerEquivalence]:
    """Per-producer slot maps. Raises ValidationError when the join
    structure breaks the one-channel-to-one-slot assumption: a producer or
    consumer vector holds a slot twice."""
    vectors = [*segment.producer_slots.values(), *segment.consumer_slots.values()]
    if any(len(set(vec)) != len(vec) for vec in vectors):
        raise ValidationError([f"segment {segment.id}: {segment.lock_reason}"])
    return [ProducerEquivalence(p, segment.producer_slots[p]) for p in segment.producers]


@dataclass(frozen=True)
class Path:
    nodes: tuple[str, ...]
    reward: int
    # parents absorbed by this path during decomposition (fully covered by
    # child nodes on the path; their reward is included exactly once)
    covered_parents: tuple[str, ...] = ()


class _BitmaskView:
    """A reorder graph with node sets as bitmasks (bit i = i-th sorted id)."""

    def __init__(self, graph: ReorderGraph):
        self.ids = ids = sorted(graph.nodes)
        index = {node: i for i, node in enumerate(ids)}
        n = len(ids)
        self.rewards = [graph.nodes[i].reward for i in ids]
        self.edge = [[0] * n for _ in range(n)]
        # per node: neighbours it may not precede by two or more places
        self.nonexempt = [0] * n
        for (u, v), shared in graph.edges.items():
            iu, iv = index[u], index[v]
            self.edge[iu][iv] = self.edge[iv][iu] = -len(shared)
            if not graph.is_exempt(u, v):
                self.nonexempt[iu] |= 1 << iv
                self.nonexempt[iv] |= 1 << iu
        # (parent bit, distinct child masks, one per channel of the parent):
        # a parent off the path is covered when the path hits every mask (a
        # channel no child keeps has mask 0, which no path hits)
        self.parents: list[tuple[int, tuple[int, ...]]] = []
        self.parent_bits = 0
        for p in sorted(graph.parents):
            keeping = dict.fromkeys(graph.nodes[p].retained, 0)
            for c in graph.parents[p]:
                for ch in graph.nodes[c].retained:
                    keeping[ch] |= 1 << index[c]
            self.parents.append((index[p], tuple(sorted(set(keeping.values())))))
            self.parent_bits |= 1 << index[p]

    def covered(self, on_path: int) -> list[int]:
        """Bits of the parents off the path that its children fully cover."""
        out = []
        for ip, masks in self.parents:
            if (on_path >> ip) & 1:
                continue
            for m in masks:
                if not on_path & m:
                    break
            else:
                out.append(ip)
        return out

    def bonus(self, on_path: int) -> int:
        return sum(self.rewards[ip] for ip in self.covered(on_path))

    def path(self, seq: list[int] | tuple[int, ...], reward: int) -> Path:
        ids = self.ids
        covered = self.covered(sum(1 << v for v in seq))
        return Path(tuple(ids[v] for v in seq), reward, tuple(ids[ip] for ip in covered))


def _greedy(view: _BitmaskView) -> Path:
    """From every start node, append the allowed node of best reward while
    that raises the path's reward; keep the best of these paths."""
    rewards, edge, nonexempt, bonus = view.rewards, view.edge, view.nonexempt, view.bonus
    best_reward, best_seq = -1, []
    for start in range(len(rewards)):
        seq = [start]
        on_path = forbidden = 1 << start
        base = rewards[start]
        reward = base + bonus(on_path)
        while True:
            last = seq[-1]
            pick = None
            for v in range(len(rewards)):
                if not (forbidden >> v) & 1:
                    r = base + rewards[v] + edge[last][v] + bonus(on_path | 1 << v)
                    if r > reward:
                        pick, reward = v, r
            if pick is None:
                break
            seq.append(pick)
            base += rewards[pick] + edge[last][pick]
            on_path |= 1 << pick
            forbidden |= 1 << pick | nonexempt[last]
        if reward > best_reward:
            best_reward, best_seq = reward, seq
    return view.path(best_seq, best_reward)


def solve_mrap(graph: ReorderGraph) -> Path:
    """Exact maximum-reward valid path by branch-and-bound DFS over
    dominance-pruned states; greedy above ``EXACT_NODE_CAP`` nodes.

    The DFS visits sequences in lexicographic order and only a strictly
    greater reward replaces the best, which realizes the tie-break. A state
    may extend to any node outside its forbidden mask: path members plus the
    non-exempt neighbors of every member except the last.

    The forbidden mask and the covered-parent bonus depend only on the state
    (path set, last node), so every extension open to a sequence is open,
    with the same gain, to any other sequence of that state. As in Held and
    Karp's subset DP, a state reached again with a base reward (nodes plus
    edges) no greater than before is skipped: the earlier visit came first,
    so each of its completions is lexicographically smaller and scores at
    least as much. A state is not expanded when its base plus the rewards of
    the allowed nodes and of the parents off the path cannot beat the best:
    edges only subtract, and a parent counts once, on the path or covered.
    """
    view = _BitmaskView(graph)
    n = len(view.ids)
    if not n:
        raise ValueError("empty reorder graph")
    if n > EXACT_NODE_CAP:
        logger.warning("reorder graph has %d nodes (> %d); using greedy search",
                       n, EXACT_NODE_CAP)
        return _greedy(view)

    rewards, edge, nonexempt, bonus = view.rewards, view.edge, view.nonexempt, view.bonus
    parent_bits = view.parent_bits
    best_reward = -1  # below any path's reward
    best_seq: tuple[int, ...] = ()
    seq: list[int] = []
    # (on_path, last) -> best base reward seen there, keyed on_path * n + last
    seen: dict[int, int] = {}

    def dfs(on_path: int, base: int, forbidden: int) -> None:
        nonlocal best_reward, best_seq
        last = seq[-1]
        key = on_path * n + last
        prior = seen.get(key)
        if prior is not None and prior >= base:
            return  # dominated: an earlier sequence reached this state with no less
        seen[key] = base
        current = base + bonus(on_path)
        if current > best_reward:
            best_reward = current
            best_seq = tuple(seq)
        bound = base
        gain = ~forbidden | parent_bits & ~on_path
        for v in range(n):
            if (gain >> v) & 1:
                bound += rewards[v]
        if bound <= best_reward:
            return
        for v in range(n):
            if (forbidden >> v) & 1:
                continue
            seq.append(v)
            dfs(on_path | 1 << v, base + rewards[v] + edge[last][v],
                forbidden | 1 << v | nonexempt[last])
            seq.pop()

    for s in range(n):
        seq.append(s)
        dfs(1 << s, rewards[s], 1 << s)
        seq.pop()

    return view.path(best_seq, best_reward)


def decompose_paths(graph: ReorderGraph) -> list[Path]:
    """Peel maximum-reward paths until every node is placed.

    Each round removes the path's nodes plus any parents the path fully
    covered (those are recorded on the path and credited exactly once).
    """
    remaining = set(graph.nodes)
    paths: list[Path] = []
    while remaining:
        found = solve_mrap(graph.subgraph(remaining))
        paths.append(found)
        remaining -= set(found.nodes)
        remaining -= set(found.covered_parents)
    return paths


def order_channels(graph: ReorderGraph, paths: list[Path]) -> tuple[int, ...]:
    """Emit a channel order realizing the given path decomposition: the
    retained slots in their new order (a slot no node retains is dropped).

    Paths are processed in order; each tracks its own nodes plus the
    parents it absorbed. Channels are emitted one at a time. Nodes on the
    current path that have started (some channel emitted) but not finished
    pin the choice to channels they all still need, which is what makes
    each node's block contiguous when the path structure allows it. Ties
    prefer channels wanted by the fewest not-yet-started nodes, so no node
    is forced to start early. Retained slots of nodes on no path are
    appended ascending at the end (they will be gathered, not sliced).
    """
    for path in paths:
        for node in (*path.nodes, *path.covered_parents):
            if node not in graph.nodes:
                raise KeyError(f"unknown reorder-graph node {node!r}")

    all_retained: set[int] = set()
    for node in graph.nodes.values():
        all_retained |= node.retained

    emitted: list[int] = []
    emitted_set: set[int] = set()
    for path in paths:
        tracked = [*path.nodes, *path.covered_parents]
        retained = {t: set(graph.nodes[t].retained) for t in tracked}

        def pending(t: str) -> set[int]:
            return retained[t] - emitted_set

        def started(t: str) -> bool:
            return bool(retained[t] & emitted_set)

        while any(pending(t) for t in tracked):
            active = [t for t in tracked if started(t) and pending(t)]
            if active:
                # serve every active consumer if possible; otherwise shed
                # the cheapest one (its block is already broken)
                pool = list(active)
                candidates = set.intersection(*(pending(t) for t in pool))
                while not candidates:
                    pool.remove(min(pool, key=lambda t: (len(retained[t]), t)))
                    candidates = set.intersection(*(pending(t) for t in pool))
            else:
                first = next(t for t in tracked if pending(t))
                candidates = pending(first)
            channel = min(candidates, key=lambda ch: (
                sum(1 for t in tracked if not started(t) and ch in retained[t]),
                ch))
            emitted.append(channel)
            emitted_set.add(channel)

    emitted.extend(sorted(all_retained - emitted_set))
    return tuple(emitted)
