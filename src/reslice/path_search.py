"""Maximum-reward acyclic paths over a reorder graph.

A path is an ordered list of distinct nodes. It is valid when no two
non-adjacent entries share an edge, except parent-child edges, which are
exempt from that rejection. Its reward is the sum of node rewards plus the
(negative) rewards of edges between consecutive entries, plus a bonus: any
parent node absent from the path whose channels are fully covered by its
children on the path contributes its node reward for free.

``solve_mrap`` finds the maximum-reward valid path with deterministic
tie-breaking (lexicographically smallest node-id sequence). Which nodes may
still be appended to a path, and what appending them earns, depend only on
the set of nodes on the path and its last node, so the search expands each
such state at most once per improvement of the reward that reached it: a
state reached again with no greater reward is dominated and skipped.
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


def covered_parents(graph: ReorderGraph, nodes: tuple[str, ...]) -> tuple[str, ...]:
    """Parents not on the path whose channels its child nodes fully cover."""
    on_path = set(nodes)
    out = []
    for parent, children in graph.parents.items():
        if parent in on_path:
            continue
        covered: set[int] = set()
        for child in children:
            if child in on_path:
                covered |= graph.nodes[child].retained
        if covered >= graph.nodes[parent].retained:
            out.append(parent)
    return tuple(sorted(out))


def path_reward(graph: ReorderGraph, nodes: tuple[str, ...] | list[str]) -> int:
    """Reward of an ordered node list (consecutive pairs need not share
    edges). Includes the covered-parent bonus."""
    nodes = tuple(nodes)
    for n in nodes:
        if n not in graph.nodes:
            raise KeyError(f"unknown reorder-graph node {n!r}")
    total = sum(graph.nodes[n].reward for n in nodes)
    for a, b in zip(nodes, nodes[1:]):
        total += graph.edge_reward(a, b)
    return total + sum(graph.nodes[p].reward for p in covered_parents(graph, nodes))


def is_valid_path(graph: ReorderGraph, nodes: tuple[str, ...] | list[str]) -> bool:
    """Distinct nodes; non-adjacent entries must not share a non-exempt edge."""
    nodes = tuple(nodes)
    if len(set(nodes)) != len(nodes):
        return False
    for i, u in enumerate(nodes):
        for v in nodes[i + 2:]:
            if graph.has_edge(u, v) and not graph.is_exempt(u, v):
                return False
    return True


def _greedy_mrap(graph: ReorderGraph) -> Path:
    """Fallback for oversized graphs: extend from the best start node by
    best marginal reward among currently valid extensions."""
    ids = sorted(graph.nodes)
    best: tuple[int, tuple[str, ...]] | None = None
    for start in ids:
        seq = [start]
        while True:
            options = [n for n in ids if n not in seq and is_valid_path(graph, seq + [n])]
            if not options:
                break
            nxt = min(options, key=lambda n: (-path_reward(graph, seq + [n]), n))
            if path_reward(graph, seq + [nxt]) <= path_reward(graph, seq):
                break
            seq.append(nxt)
        reward = path_reward(graph, seq)
        cand = (reward, tuple(seq))
        if best is None or reward > best[0]:
            best = cand
    return Path(best[1], best[0])


def solve_mrap(graph: ReorderGraph) -> Path:
    """Exact maximum-reward valid path by branch-and-bound DFS over
    dominance-pruned states.

    The DFS visits candidate sequences in lexicographic order and keeps the
    first sequence achieving the running maximum, which realizes the
    lexicographic tie-break without explicit comparisons. A state may
    extend to any node outside its invalid set: path members plus the
    non-exempt neighbors of every member except the last (neighbors of the
    last are reachable as its immediate successor).

    The invalid set and the covered-parent bonus are functions of the state
    (path set, last node), so every extension open to a sequence is open,
    with the same gain, to any other sequence of that state. The search
    records the best base reward (nodes plus edges) seen per state and skips
    a state reached again with a base no greater, as in Held and Karp's
    subset DP. That keeps the tie-break: the earlier visit came first in
    lexicographic order, so each completion of it is lexicographically
    smaller than the same completion of the skipped sequence and scores at
    least as much, and only a strictly greater reward replaces the best.
    """
    ids = sorted(graph.nodes)
    if not ids:
        raise ValueError("empty reorder graph")
    if len(ids) > EXACT_NODE_CAP:
        logger.warning("reorder graph has %d nodes (> %d); using greedy search",
                       len(ids), EXACT_NODE_CAP)
        return _greedy_mrap(graph)

    index = {n: i for i, n in enumerate(ids)}
    n = len(ids)
    rewards = [graph.nodes[i].reward for i in ids]
    retained = [graph.nodes[i].retained for i in ids]
    edge = [[0] * n for _ in range(n)]
    nonexempt_nbrs = [0] * n  # bitmask
    for (u, v), shared in graph.edges.items():
        iu, iv = index[u], index[v]
        edge[iu][iv] = edge[iv][iu] = -len(shared)
        if not graph.is_exempt(u, v):
            nonexempt_nbrs[iu] |= 1 << iv
            nonexempt_nbrs[iv] |= 1 << iu

    # parent bookkeeping: parent index -> child indices, and per-channel
    # coverage counters maintained incrementally during the DFS
    parent_children: dict[int, list[int]] = {}
    child_parents: dict[int, list[int]] = {}
    for p, cs in graph.parents.items():
        ip = index[p]
        parent_children[ip] = [index[c] for c in cs]
        for c in cs:
            child_parents.setdefault(index[c], []).append(ip)
    cover_count = {ip: dict.fromkeys(retained[ip], 0) for ip in parent_children}
    covered_total = dict.fromkeys(parent_children, 0)
    need = {ip: len(retained[ip]) for ip in parent_children}

    best_reward = None
    best_nodes: tuple[str, ...] = ()
    seq: list[int] = []
    on_path = 0  # bitmask
    bonus_active = dict.fromkeys(parent_children, False)
    bonus_sum = 0

    def push(v: int) -> list:
        """Update coverage/bonus state for appending v; return undo log."""
        nonlocal bonus_sum
        undo = []
        for ip in child_parents.get(v, ()):
            cc = cover_count[ip]
            for ch in retained[v]:
                if cc[ch] == 0:
                    covered_total[ip] += 1
                cc[ch] += 1
            undo.append(("cover", ip, v))
            if (not bonus_active[ip] and covered_total[ip] == need[ip]
                    and not (on_path >> ip) & 1):
                bonus_active[ip] = True
                bonus_sum += rewards[ip]
                undo.append(("bonus_on", ip))
        if v in parent_children and bonus_active[v]:
            # the parent itself joins the path: its reward now counts as a
            # node, not as a bonus
            bonus_active[v] = False
            bonus_sum -= rewards[v]
            undo.append(("bonus_off", v))
        return undo

    def pop(undo: list) -> None:
        nonlocal bonus_sum
        for action in reversed(undo):
            if action[0] == "cover":
                _, ip, v = action
                cc = cover_count[ip]
                for ch in retained[v]:
                    cc[ch] -= 1
                    if cc[ch] == 0:
                        covered_total[ip] -= 1
            elif action[0] == "bonus_on":
                bonus_active[action[1]] = False
                bonus_sum -= rewards[action[1]]
            else:  # bonus_off
                bonus_active[action[1]] = True
                bonus_sum += rewards[action[1]]

    # (on_path, last) -> best base reward seen there, keyed on_path * n + last
    seen: dict[int, int] = {}

    def dfs(base: int, forbidden: int) -> None:
        nonlocal best_reward, best_nodes, on_path
        last = seq[-1]
        key = on_path * n + last
        prior = seen.get(key)
        if prior is not None and prior >= base:
            return  # dominated: an earlier sequence reached this state with no less
        seen[key] = base
        current = base + bonus_sum
        if best_reward is None or current > best_reward:
            best_reward = current
            best_nodes = tuple(ids[i] for i in seq)
        # upper bound: every remaining node's reward plus every not-yet
        # granted parent bonus (edges only subtract)
        remaining = 0
        for v in range(n):
            if not (forbidden >> v) & 1:
                remaining += rewards[v]
        potential = sum(rewards[ip] for ip in parent_children
                        if not bonus_active[ip] and not (on_path >> ip) & 1)
        if best_reward is not None and current + remaining + potential <= best_reward:
            return
        for v in range(n):
            if (forbidden >> v) & 1:
                continue
            undo = push(v)
            seq.append(v)
            on_path |= 1 << v
            dfs(base + rewards[v] + edge[last][v],
                forbidden | (1 << v) | nonexempt_nbrs[last])
            on_path &= ~(1 << v)
            seq.pop()
            pop(undo)

    for s in range(n):
        undo = push(s)
        seq.append(s)
        on_path |= 1 << s
        dfs(rewards[s], 1 << s)
        on_path &= ~(1 << s)
        seq.pop()
        pop(undo)

    return Path(best_nodes, best_reward)


def decompose_paths(graph: ReorderGraph) -> list[Path]:
    """Peel maximum-reward paths until every node is placed.

    Each round removes the path's nodes plus any parents the path fully
    covered (those are recorded on the path and credited exactly once).
    """
    remaining = set(graph.nodes)
    paths: list[Path] = []
    while remaining:
        sub = graph.subgraph(remaining)
        found = solve_mrap(sub)
        absorbed = covered_parents(sub, found.nodes)
        paths.append(Path(found.nodes, found.reward, absorbed))
        remaining -= set(found.nodes)
        remaining -= set(absorbed)
    return paths
