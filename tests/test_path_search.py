"""MRAP solver: rewards, validity, exact search vs brute force, greedy vs its oracle."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslice import path_search
from reslice.path_search import EXACT_NODE_CAP, decompose_paths, reorder_graph_from_sets, solve_mrap

from helpers import (brute_force_mrap, covered_parents, is_valid_path, oracle_dfs_mrap,
                     oracle_greedy_mrap, path_reward, random_retained_sets)


def triangle():
    # rewards 2, 3, 3 with every pair sharing exactly one channel
    return reorder_graph_from_sets(
        {"B": {1, 2}, "D": {2, 3, 4}, "E": {1, 4, 5}}, 6)


def test_two_node_path_beats_singletons():
    rg = triangle()
    assert path_reward(rg, ("D", "E")) == 3 + 3 - 1
    assert path_reward(rg, ("B",)) == 2
    best = solve_mrap(rg)
    assert best.nodes == ("D", "E")
    assert best.reward == 5


def test_triangle_decomposes_into_two_paths():
    paths = decompose_paths(triangle())
    assert [p.nodes for p in paths] == [("D", "E"), ("B",)]
    assert [p.reward for p in paths] == [5, 2]


def test_single_node_graph():
    rg = reorder_graph_from_sets({"A": {0, 1, 2}}, 3)
    best = solve_mrap(rg)
    assert best.nodes == ("A",) and best.reward == 3


def test_mutual_exclusion_case():
    # B{1,3,4} and C{2,3,4} chain, but D{1,2} touches both non-adjacently,
    # so any pair excludes the third node
    rg = reorder_graph_from_sets({"B": {1, 3, 4}, "C": {2, 3, 4}, "D": {1, 2}}, 5)
    assert not is_valid_path(rg, ("B", "C", "D"))
    assert not is_valid_path(rg, ("B", "D", "C"))
    best = brute_force_mrap(rg)
    assert best.nodes == ("B", "C")
    assert best.reward == 3 + 3 - 2
    assert solve_mrap(rg).nodes == ("B", "C")
    paths = decompose_paths(rg)
    assert [p.nodes for p in paths] == [("B", "C"), ("D",)]


def test_edgeless_nodes_chain_into_one_path():
    rg = reorder_graph_from_sets({"a": {0, 1}, "b": {2, 3}}, 4)
    best = solve_mrap(rg)
    assert set(best.nodes) == {"a", "b"}
    assert best.reward == 4
    assert len(decompose_paths(rg)) == 1


def test_parent_child_edges_are_exempt_from_rejection():
    rg = reorder_graph_from_sets(
        {"P": {1, 2, 3}, "a": {1, 2}, "b": {2, 3}}, 4)
    # a and b share channel 2, so they must sit adjacent; the edge from a
    # back to non-adjacent parent P is exempt
    assert is_valid_path(rg, ("a", "b", "P"))
    assert not is_valid_path(rg, ("a", "P", "b"))


def test_covered_parent_bonus():
    rg = reorder_graph_from_sets(
        {"P": {1, 2, 3}, "a": {1, 2}, "b": {2, 3}}, 4)
    assert path_reward(rg, ("a", "b")) == (2 + 2 - 1) + 3
    assert covered_parents(rg, ("a", "b")) == ("P",)
    # partial coverage earns nothing
    assert path_reward(rg, ("a",)) == 2
    best = solve_mrap(rg)
    assert best.reward == 6
    assert best.nodes == ("a", "b")


def test_covered_parent_credited_once_in_decomposition():
    rg = reorder_graph_from_sets(
        {"P": {1, 2, 3}, "a": {1, 2}, "b": {2, 3}}, 4)
    paths = decompose_paths(rg)
    assert len(paths) == 1
    assert paths[0].covered_parents == ("P",)
    assert sum(p.reward for p in paths) == 6


def test_parent_on_path_gets_no_bonus():
    rg = reorder_graph_from_sets(
        {"P": {1, 2, 3}, "a": {1, 2}, "b": {2, 3}}, 4)
    # P appears explicitly: its reward counts as a node, not again as bonus
    assert path_reward(rg, ("a", "b", "P")) == 2 + 2 + 3 - 1 - 2


def test_empty_graph_rejected():
    rg = reorder_graph_from_sets({"A": {0}}, 1).subgraph(())
    with pytest.raises(ValueError):
        solve_mrap(rg)


def test_greedy_fallback_above_node_cap(caplog):
    sets = {f"n{i:02d}": {2 * i, 2 * i + 1} for i in range(EXACT_NODE_CAP + 1)}
    rg = reorder_graph_from_sets(sets, 2 * (EXACT_NODE_CAP + 1))
    with caplog.at_level(logging.WARNING):
        best = solve_mrap(rg)
    assert any("greedy" in r.message for r in caplog.records)
    # disjoint sets: any order is valid, total reward is the sum
    assert best.reward == 2 * (EXACT_NODE_CAP + 1)
    assert is_valid_path(rg, best.nodes)


def test_path_reward_matches_union_size_on_chains():
    # chain with only adjacent overlaps: reward equals |union of sets|
    rg = reorder_graph_from_sets(
        {"a": {0, 1, 2}, "b": {2, 3}, "c": {3, 4, 5}}, 6)
    assert path_reward(rg, ("a", "b", "c")) == 6


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=100_000))
def test_solver_matches_brute_force(seed):
    retained, channels = random_retained_sets(seed)
    rg = reorder_graph_from_sets(retained, channels)
    exact = solve_mrap(rg)
    oracle = brute_force_mrap(rg)
    assert exact.reward == oracle.reward
    assert exact.nodes == oracle.nodes  # same tie-break
    assert is_valid_path(rg, exact.nodes)
    assert path_reward(rg, exact.nodes) == exact.reward


def _named(sets):
    return {f"c{i:02d}": s for i, s in enumerate(sets)}, 64


# interval masks: each consumer keeps a window of 8-24 of 64 channels
_INTERVAL = st.lists(st.integers(8, 24).flatmap(
    lambda length: st.integers(0, 64 - length).map(
        lambda start: frozenset(range(start, start + length)))),
    min_size=2, max_size=12)
# sparse masks: each consumer keeps 3 scattered channels of 64. Capped at 10
# consumers because the oracle spends seconds on some 12-consumer draws; the
# fixed 12-consumer case is test_sparse_twelve_consumer_decomposition_matches_oracle
_SPARSE = st.lists(st.frozensets(st.integers(0, 63), min_size=3, max_size=3),
                   min_size=2, max_size=10)


@settings(deadline=None, max_examples=60)
@given(st.one_of(_SPARSE.map(_named), _INTERVAL.map(_named),
                 st.integers(0, 100_000).map(
                     lambda seed: random_retained_sets(seed, max_nodes=12))))
def test_memoized_solver_matches_unmemoized_dfs(case):
    retained, channels = case
    rg = reorder_graph_from_sets(retained, channels)
    assert solve_mrap(rg) == oracle_dfs_mrap(rg)


# 12 consumers keeping 3 scattered channels of 64 each: the shape on which
# the search without dominance pruning blows up (about 0.5 s to decompose
# this draw, up to 5 s for others)
SPARSE_TWELVE = {
    "c00": {45, 56, 59}, "c01": {5, 60, 61}, "c02": {17, 23, 40},
    "c03": {10, 42, 55}, "c04": {3, 20, 56}, "c05": {8, 26, 50},
    "c06": {23, 46, 57}, "c07": {11, 37, 57}, "c08": {18, 26, 44},
    "c09": {5, 8, 41}, "c10": {30, 31, 54}, "c11": {22, 55, 59},
}


def test_sparse_twelve_consumer_decomposition_matches_oracle(monkeypatch):
    rg = reorder_graph_from_sets(SPARSE_TWELVE, 64)
    assert len(rg.nodes) == 12
    paths = decompose_paths(rg)
    monkeypatch.setattr(path_search, "solve_mrap", oracle_dfs_mrap)
    assert paths == decompose_paths(rg)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=100_000))
def test_decomposition_covers_every_node_once(seed):
    retained, channels = random_retained_sets(seed)
    rg = reorder_graph_from_sets(retained, channels)
    paths = decompose_paths(rg)
    placed = [n for p in paths for n in p.nodes + p.covered_parents]
    assert sorted(placed) == sorted(rg.nodes)


def test_reward_can_drop_when_added_channel_is_shared():
    # growing a set is not monotone in general: retaining channel 2 in
    # 'a' turns a chainable trio into a triangle of mutual exclusions
    base = reorder_graph_from_sets({"a": {0, 1}, "b": {2, 9}, "c": {2, 8}}, 10)
    grown = reorder_graph_from_sets({"a": {0, 1, 2}, "b": {2, 9}, "c": {2, 8}}, 10)
    assert brute_force_mrap(base).reward == 5
    assert brute_force_mrap(grown).reward == 4


def test_reward_can_drop_when_a_covered_parent_grows():
    # even a private channel can hurt: P was absorbed for free as a covered
    # parent of the path [a, b]; one extra channel forces P onto the path,
    # where its overlap with a is paid as an edge penalty
    base = reorder_graph_from_sets({"P": {0, 1, 2, 3}, "a": {0, 1}, "b": {2, 3}}, 5)
    grown = reorder_graph_from_sets({"P": {0, 1, 2, 3, 4}, "a": {0, 1}, "b": {2, 3}}, 5)
    assert brute_force_mrap(base).reward == 8
    assert brute_force_mrap(grown).reward == 7
    assert solve_mrap(grown).reward == 7


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000), st.data())
def test_adding_a_private_channel_never_lowers_optimal_reward(seed, data):
    # monotonicity holds when the new channel is retained by nobody else
    # and the target is subset-unrelated to every other node: then no edge
    # appears, no exemption is lost, it cannot stop being a covered parent
    # (it never was one) and no identical-set merge is split, so every old
    # solution stays valid and its reward can only grow
    retained, channels = random_retained_sets(seed)
    rg = reorder_graph_from_sets(dict(retained), channels + 1)
    names = sorted(retained)
    candidates = [c for c in names
                  if not any(o != c and (retained[o] <= retained[c]
                                         or retained[c] <= retained[o])
                             for o in names)]
    if not candidates:
        return
    target = data.draw(st.sampled_from(candidates))
    grown = dict(retained)
    grown[target] = retained[target] | {channels}  # index past everyone else
    after = reorder_graph_from_sets(grown, channels + 1)
    assert solve_mrap(after).reward >= solve_mrap(rg).reward


def _sets_above_cap(seed):
    """21-28 distinct retained sets (so as many nodes, all above the cap):
    3 of 64 channels, windows of 8-24 of 64, or 1-8 of 16 channels, which
    gives many parents and some fully covered ones."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(EXACT_NODE_CAP + 1, 29))
    kind = seed % 3
    sets: set[frozenset[int]] = set()
    while len(sets) < count:
        if kind == 0:
            chans = rng.choice(64, 3, replace=False)
        elif kind == 1:
            length = int(rng.integers(8, 25))
            start = int(rng.integers(0, 64 - length + 1))
            chans = range(start, start + length)
        else:
            chans = rng.choice(16, int(rng.integers(1, 9)), replace=False)
        sets.add(frozenset(int(c) for c in chans))
    ordered = sorted(sets, key=sorted)
    return {f"c{i:02d}": s for i, s in enumerate(ordered)}, 16 if kind == 2 else 64


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=100_000))
def test_greedy_search_matches_sequence_level_oracle(seed):
    retained, channels = _sets_above_cap(seed)
    rg = reorder_graph_from_sets(retained, channels)
    assert len(rg.nodes) > EXACT_NODE_CAP
    assert solve_mrap(rg) == oracle_greedy_mrap(rg)
