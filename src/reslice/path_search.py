"""Maximum-reward acyclic paths over a reorder graph.

A path is an ordered list of distinct nodes. It is valid when no two
non-adjacent entries share an edge, except parent-child edges, which are
exempt from that rejection. Its reward is the sum of node rewards plus the
(negative) rewards of edges between consecutive entries, plus a bonus: any
parent node absent from the path whose channels are fully covered by its
children on the path contributes its node reward for free.

``solve_mrap`` finds the maximum-reward valid path with deterministic
tie-breaking (lexicographically smallest node-id sequence), exactly up to
``EXACT_NODE_CAP`` nodes and greedily above. Both searches read one bitmask
view of the graph, in which a search state is (path set, last node).
``decompose_paths`` peels optimal paths off the graph until every node is
placed (or absorbed as a fully covered parent).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from reslice.reorder_graph import ReorderGraph

logger = logging.getLogger(__name__)

# above this node count the exact search falls back to a greedy heuristic
EXACT_NODE_CAP = 20


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
