"""Consumer reorder graph: nodes, edge rewards, subsets, reductions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslice import ValidationError, find_segments
from reslice.path_search import build_reorder_graph, reduce_producers, reorder_graph_from_sets
from reslice.segments import retained_slots

from helpers import (duplicate_read_fixture, fan_fixture, random_retained_sets,
                     residual_block_fixture)


def test_disjoint_sets_have_no_edge():
    # two consumers keeping different channels: reward 2 each, no edge
    rg = reorder_graph_from_sets({"B": {1, 3}, "D": {2, 4}}, 5)
    assert rg.nodes["B"].reward == 2
    assert rg.nodes["D"].reward == 2
    assert not rg.has_edge("B", "D")


def test_one_shared_channel_gives_minus_one_edge():
    rg = reorder_graph_from_sets({"B": {1, 3}, "D": {2, 3}}, 4)
    assert rg.has_edge("B", "D")
    assert rg.shared("B", "D") == frozenset({3})
    assert rg.edge_reward("B", "D") == -1


def test_triangle_with_pairwise_overlap():
    rg = reorder_graph_from_sets(
        {"B": {1, 2}, "D": {2, 3, 4}, "E": {1, 4, 5}}, 6)
    assert [rg.nodes[n].reward for n in ("B", "D", "E")] == [2, 3, 3]
    for u, v in (("B", "D"), ("B", "E"), ("D", "E")):
        assert rg.edge_reward(u, v) == -1


def test_identical_sets_merge_into_one_node():
    rg = reorder_graph_from_sets({"C": {0, 1}, "A": {0, 1}, "Z": {2}}, 3)
    assert set(rg.nodes) == {"A", "Z"}
    assert rg.nodes["A"].members == ("A", "C")
    assert rg.nodes["A"].reward == 2


def test_subset_relations_and_exemption():
    rg = reorder_graph_from_sets(
        {"P": {1, 2, 3}, "a": {1, 2}, "b": {2, 3}, "x": {3, 4}}, 5)
    assert rg.parents == {"P": ("a", "b")}
    assert rg.is_exempt("a", "P") and rg.is_exempt("P", "b")
    assert not rg.is_exempt("a", "b")
    assert not rg.is_exempt("P", "x")


def test_empty_or_out_of_range_sets_rejected():
    with pytest.raises(ValidationError):
        reorder_graph_from_sets({"B": set()}, 4)
    with pytest.raises(ValidationError):
        reorder_graph_from_sets({"B": {4}}, 4)


def test_edges_and_subgraph():
    rg = reorder_graph_from_sets(
        {"B": {1, 2}, "D": {2, 3, 4}, "E": {1, 4, 5}}, 6)
    assert rg.has_edge("B", "D") and rg.has_edge("B", "E")
    sub = rg.subgraph({"B", "D"})
    assert set(sub.nodes) == {"B", "D"}
    assert sub.has_edge("B", "D") and not sub.has_edge("B", "E")


def test_retained_slots_maps_local_mask_to_segment_space():
    g, _ = fan_fixture()
    seg = next(s for s in find_segments(g) if s.producers == ("A",))
    slots = retained_slots(seg, {"B": (1, 3)})
    assert slots["B"] == frozenset({1, 3})
    assert slots["D"] == frozenset({0, 1, 2, 3})  # unmasked = keep all
    with pytest.raises(ValidationError):
        retained_slots(seg, {"B": (9,)})


def test_build_reorder_graph_on_residual_segment():
    g, _ = residual_block_fixture()
    seg = next(s for s in find_segments(g) if set(s.producers) == {"A", "C"})
    rg = build_reorder_graph(seg, {"B": (0, 2), "D": (1, 3)})
    assert set(rg.nodes) == {"B", "D"}
    assert not rg.has_edge("B", "D")
    assert rg.channel_space == 4


def test_reduce_producers_reports_slot_vectors():
    g, _ = residual_block_fixture()
    seg = next(s for s in find_segments(g) if set(s.producers) == {"A", "C"})
    eqs = reduce_producers(seg)
    assert [e.producer for e in eqs] == ["A", "C"]
    assert all(e.slots == (0, 1, 2, 3) for e in eqs)


def test_reduce_producers_refuses_a_slot_read_twice():
    # add(f, g) identifies f's slots with g's, so the concat reader X reads
    # every slot twice: no one-channel-to-one-slot map exists
    g, _ = duplicate_read_fixture()
    seg = next(s for s in find_segments(g) if s.producers == ("f", "g"))
    with pytest.raises(ValidationError) as exc:
        reduce_producers(seg)
    assert exc.value.diagnostics == ["segment f: consumer X reads the same channel more than once"]


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=0, max_value=100_000))
def test_graph_is_symmetric_and_rewards_match_cardinality(seed):
    retained, channels = random_retained_sets(seed)
    rg = reorder_graph_from_sets(retained, channels)
    distinct = {frozenset(v) for v in retained.values()}
    assert len(rg.nodes) == len(distinct)
    for node in rg.nodes.values():
        assert node.reward == len(node.retained)
    for (u, v), shared in rg.edges.items():
        assert shared == rg.nodes[u].retained & rg.nodes[v].retained
        assert rg.edge_reward(u, v) == rg.edge_reward(v, u) == -len(shared)
    for parent, children in rg.parents.items():
        for child in children:
            assert rg.nodes[child].retained < rg.nodes[parent].retained
