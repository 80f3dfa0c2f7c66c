"""Channel ordering: path emission, band layouts, zero-copy fallback."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslice import find_segments
from reslice.ordering import (
    MAX_PATTERNS_PER_BAND,
    band_layouts,
    find_zero_copy_order,
    order_channels,
)
from reslice.path_search import Path, decompose_paths
from reslice.reorder_graph import build_reorder_graph, reorder_graph_from_sets, retained_slots

from helpers import (
    concat_fixture,
    fan_fixture,
    random_retained_sets,
    zero_copy_exists,
)


def contiguous(order, wanted):
    pos = sorted(order.index(c) for c in wanted)
    return pos[-1] - pos[0] + 1 == len(pos)


def test_disjoint_sets_emit_block_by_block():
    rg = reorder_graph_from_sets({"B": {0, 2}, "D": {1, 3}}, 4)
    order = order_channels(rg, decompose_paths(rg))
    assert order == (0, 2, 1, 3)


def test_shared_channel_sits_between_unique_blocks():
    # unique-to-B, shared, unique-to-D; the unretained channel is dropped
    rg = reorder_graph_from_sets({"B": {0, 2}, "D": {1, 2}}, 4)
    order = order_channels(rg, decompose_paths(rg))
    assert order == (0, 2, 1)


def test_emission_follows_given_subset_path():
    # four-hop path with an absorbed parent: every tracked node ends up
    # contiguous, interleaving the shared channels exactly once
    rg = reorder_graph_from_sets(
        {"A": {0, 1, 2}, "B": {1, 2, 3, 4}, "C": {3, 4, 5},
         "D": {2, 3, 4}, "E": {1, 2, 4}}, 6)
    order = order_channels(rg, [Path(("A", "D", "E", "C"), 0, ("B",))])
    assert order == (0, 1, 2, 4, 3, 5)
    for node in rg.nodes.values():
        assert contiguous(order, node.retained)


def test_off_path_channels_appended_ascending():
    rg = reorder_graph_from_sets({"B": {0, 2, 3}, "C": {1, 2, 3}, "D": {0, 3}}, 4)
    order = order_channels(rg, [Path(("B", "C"), 4), Path(("D",), 2)])
    assert order == (0, 2, 3, 1)
    assert contiguous(order, rg.nodes["B"].retained)
    assert contiguous(order, rg.nodes["C"].retained)
    # D's channels were all emitted already; it lands non-contiguous
    assert not contiguous(order, rg.nodes["D"].retained)


def test_unknown_path_node_rejected():
    rg = reorder_graph_from_sets({"B": {0}}, 1)
    with pytest.raises(KeyError):
        order_channels(rg, [Path(("B", "zz"), 0)])


def test_band_layouts_orders_each_band_independently():
    g, _ = concat_fixture(wa=3, wc=2)  # A owns slots 0-2, C owns 3-4
    seg = next(s for s in find_segments(g) if set(s.producers) == {"A", "C"})
    order = (4, 1, 0, 3)
    layouts = band_layouts(seg, order)
    assert layouts["A"] == (1, 0)  # slot 2 dropped, rest by order position
    assert layouts["C"] == (4, 3)


def test_band_layouts_keeps_sentinel_for_dead_band():
    g, _ = concat_fixture(wa=3, wc=2)
    seg = next(s for s in find_segments(g) if set(s.producers) == {"A", "C"})
    order = (1, 0, 2)
    layouts = band_layouts(seg, order)
    assert layouts["A"] == (1, 0, 2)
    assert layouts["C"] == (3,)  # lowest slot survives as a placeholder


def test_zero_copy_search_finds_layout_solver_missed():
    g, _ = fan_fixture(n_channels=6, consumer_ids=("B", "C", "D", "E", "F"))
    seg = next(s for s in find_segments(g) if s.producers == ("A",))
    retained = retained_slots(seg, {
        "B": (0, 1, 2), "C": (1, 2, 3, 4), "D": (3, 4, 5),
        "E": (2, 3, 4), "F": (1, 2, 4),
    })
    found = find_zero_copy_order(g, seg, retained)
    assert found == (0, 1, 2, 4, 3, 5)
    for want in retained.values():
        assert contiguous(found, want)


def test_zero_copy_search_exhausts_impossible_case():
    g, _ = fan_fixture(n_channels=4, consumer_ids=("B", "C", "D"))
    seg = next(s for s in find_segments(g) if s.producers == ("A",))
    retained = retained_slots(seg, {"B": (0, 2, 3), "C": (1, 2, 3), "D": (0, 1)})
    assert find_zero_copy_order(g, seg, retained) is None


def test_zero_copy_search_gives_up_past_pattern_cap():
    n = MAX_PATTERNS_PER_BAND + 1
    ids = tuple(f"c{i}" for i in range(n))
    g, _ = fan_fixture(n_channels=n, consumer_ids=ids)
    seg = next(s for s in find_segments(g) if s.producers == ("A",))
    # one private channel per consumer: n distinct membership groups
    retained = retained_slots(seg, {cid: (i,) for i, cid in enumerate(ids)})
    assert find_zero_copy_order(g, seg, retained) is None


def test_zero_copy_search_respects_locks():
    g, _ = fan_fixture()
    seg = next(s for s in find_segments(g) if s.producers == ("in",))
    assert seg.reorder_locked
    assert find_zero_copy_order(g, seg, {"A": frozenset({0, 1})}) is None


def only_adjacent_overlaps(rg, nodes):
    for i, u in enumerate(nodes):
        for v in nodes[i + 2:]:
            if rg.nodes[u].retained & rg.nodes[v].retained:
                return False
    return True


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=100_000))
def test_order_is_a_permutation_of_retained_channels(seed):
    retained, channels = random_retained_sets(seed)
    rg = reorder_graph_from_sets(retained, channels)
    order = order_channels(rg, decompose_paths(rg))
    union = set().union(*(rg.nodes[n].retained for n in rg.nodes))
    assert sorted(order) == sorted(union)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=100_000))
def test_chain_paths_emit_contiguous_blocks(seed):
    # the slice property is guaranteed for chains whose overlaps are all
    # adjacent (subset-entangled paths may need the zero-copy fallback)
    retained, channels = random_retained_sets(seed)
    rg = reorder_graph_from_sets(retained, channels)
    paths = decompose_paths(rg)
    order = order_channels(rg, paths)
    emitted: set[int] = set()
    for path in paths:
        tracked = (*path.nodes, *path.covered_parents)
        fresh = not any(rg.nodes[n].retained & emitted for n in tracked)
        if fresh and only_adjacent_overlaps(rg, tracked):
            for node in tracked:
                assert contiguous(order, rg.nodes[node].retained)
        for node in tracked:
            emitted |= rg.nodes[node].retained


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=100_000))
def test_zero_copy_search_agrees_with_raw_permutation_oracle(seed):
    g, _ = fan_fixture(n_channels=6, consumer_ids=("B", "C", "D"), seed=seed)
    rng_sets, _ = random_retained_sets(seed, max_nodes=3, max_channels=6)
    names = sorted(rng_sets)
    masks = {c: tuple(sorted(rng_sets[names[i % len(names)]]))
             for i, c in enumerate(("B", "C", "D"))}
    masks = {c: tuple(i for i in v if i < 6) or (0,) for c, v in masks.items()}
    seg = next(s for s in find_segments(g) if s.producers == ("A",))
    retained = retained_slots(seg, masks)
    found = find_zero_copy_order(g, seg, retained)
    exists = zero_copy_exists(g, seg, retained)
    assert (found is not None) == exists
