"""Channel ordering: path emission, producer rows, exact copy-free layouts."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslice import find_segments, ordering
from reslice.graph import ValidationError
from reslice.ordering import _c1p_order, find_zero_copy_order, largest_c1p_order
from reslice.path_search import Path, decompose_paths, order_channels, reorder_graph_from_sets
from reslice.pipeline import export_model
from reslice.planner import _producer_rows, plan_export
from reslice.segments import resolve_masks

from helpers import (
    ADD,
    CONCAT,
    INPUT,
    MIX,
    OUTPUT,
    PASS,
    add_join_fixture,
    build_model,
    concat_fixture,
    fan_fixture,
    oracle_c1p,
    random_dag,
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


def test_producer_rows_orders_each_band_independently():
    g, _ = concat_fixture(wa=3, wc=2)  # A owns slots 0-2, C owns 3-4
    seg = next(s for s in find_segments(g) if set(s.producers) == {"A", "C"})
    rows = _producer_rows(seg, (4, 1, 0, 3))
    assert rows["A"] == (1, 0)  # slot 2 dropped, rest by order position
    assert rows["C"] == (1, 0)  # slots 4, 3: C's filters 1, 0


def test_producer_rows_keeps_sentinel_for_dead_band():
    g, _ = concat_fixture(wa=3, wc=2)
    seg = next(s for s in find_segments(g) if set(s.producers) == {"A", "C"})
    rows = _producer_rows(seg, (1, 0, 2))
    assert rows["A"] == (1, 0, 2)
    assert rows["C"] == (0,)  # the lowest slot, 3, survives as a placeholder


def test_producer_rows_in_output_mode_keep_each_producer_to_its_own_filters():
    # A and C are summed, so they share one band, but each keeps only the
    # filters its own output mask retains, in the band's order
    g, _ = add_join_fixture()
    seg = next(s for s in find_segments(g) if set(s.producers) == {"A", "C"})
    own = resolve_masks(seg, {"A": (0, 1, 2), "C": (1, 2, 3)}, "output").slots
    rows = _producer_rows(seg, (0, 2, 1, 3), own)
    assert rows == {"A": (0, 2, 1), "C": (2, 1, 3)}


def test_zero_copy_search_finds_layout_solver_missed():
    g, _ = fan_fixture(n_channels=6, consumer_ids=("B", "C", "D", "E", "F"))
    seg = next(s for s in find_segments(g) if s.producers == ("A",))
    retained = resolve_masks(seg, {
        "B": (0, 1, 2), "C": (1, 2, 3, 4), "D": (3, 4, 5),
        "E": (2, 3, 4), "F": (1, 2, 4),
    }, "input").slots
    found = find_zero_copy_order(seg, retained, seg.band_reads)
    assert found == (0, 1, 2, 4, 3, 5)
    for want in retained.values():
        assert contiguous(found, want)


def test_zero_copy_search_exhausts_impossible_case():
    g, _ = fan_fixture(n_channels=4, consumer_ids=("B", "C", "D"))
    seg = next(s for s in find_segments(g) if s.producers == ("A",))
    retained = resolve_masks(seg, {"B": (0, 2, 3), "C": (1, 2, 3), "D": (0, 1)}, "input").slots
    assert find_zero_copy_order(seg, retained, seg.band_reads) is None


def test_zero_copy_search_has_no_pattern_cap():
    # one private channel per consumer: nine distinct membership groups
    ids = tuple(f"c{i}" for i in range(9))
    g, _ = fan_fixture(n_channels=9, consumer_ids=ids)
    seg = next(s for s in find_segments(g) if s.producers == ("A",))
    masks = {cid: (i,) for i, cid in enumerate(ids)}
    found = find_zero_copy_order(seg, resolve_masks(seg, masks, "input").slots, seg.band_reads)
    assert found == tuple(range(9))
    assert plan_export(g, seg, found, masks).stats.copied == 0


def test_zero_copy_search_respects_locks():
    g, _ = fan_fixture()
    seg = next(s for s in find_segments(g) if s.producers == ("in",))
    assert seg.lock_reason == "a producer is the model input"
    assert find_zero_copy_order(seg, {"A": frozenset({0, 1})}, {"A": (0,)}) is None


def test_largest_c1p_order_refuses_a_locked_segment():
    # a ValidationError naming the segment, like every refusal of a locked
    # segment; it is a ValueError too
    g, _ = fan_fixture()
    seg = next(s for s in find_segments(g) if s.producers == ("in",))
    with pytest.raises(ValidationError) as exc:
        largest_c1p_order(seg, {"A": frozenset({0, 1})}, {"A": (0,)})
    assert exc.value.diagnostics == [
        "in: a locked segment takes no channel order (a producer is the model input)"]
    assert isinstance(exc.value, ValueError)


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
    retained = resolve_masks(seg, masks, "input").slots
    found = find_zero_copy_order(seg, retained, seg.band_reads)
    exists = zero_copy_exists(g, seg, retained)
    assert (found is not None) == exists


def window_masks(rng, n_consumers, channels=64, permute=True):
    """Each consumer keeps a window of 8-24 channels, under one random
    relabelling of the channels (or none)."""
    label = rng.permutation(channels) if permute else np.arange(channels)
    masks = {}
    for i in range(n_consumers):
        width = int(rng.integers(8, 25))
        start = int(rng.integers(0, channels - width + 1))
        masks[f"c{i:02d}"] = tuple(sorted(int(x) for x in label[start:start + width]))
    return masks


def export_fan(masks, channels=64):
    graph, weights = fan_fixture(n_channels=channels, consumer_ids=tuple(sorted(masks)))
    return export_model(graph, weights, masks)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=2, max_value=16))
def test_permuted_windows_export_without_copies(seed, n_consumers):
    masks = window_masks(np.random.default_rng(seed), n_consumers)
    assert export_fan(masks).totals.copied == 0


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=2, max_value=16))
def test_unpermuted_windows_keep_the_identity_layout(seed, n_consumers):
    masks = window_masks(np.random.default_rng(seed), n_consumers, permute=False)
    result = export_fan(masks)
    plan = next(p for p in result.plans if p.segment == "A")
    assert plan.producer_orders["A"] == tuple(sorted(set().union(*masks.values())))
    assert result.totals.copied == 0


@pytest.mark.parametrize("n_consumers", [8, 12, 16])
def test_interval_fan_out_probe_copies_nothing(n_consumers):
    # copy-free as given, yet the path search alone copies 22-200 channels
    for seed in range(10):
        masks = window_masks(np.random.default_rng(seed), n_consumers, permute=False)
        assert export_fan(masks).totals.copied == 0, seed


def test_c1p_core_agrees_with_brute_force():
    rng = np.random.default_rng(0)
    outcomes = Counter()
    for _ in range(1500):
        n = int(rng.integers(1, 8))
        sizes = rng.integers(1, n + 1, int(rng.integers(1, 7)))
        sets = [frozenset(int(x) for x in rng.choice(n, int(k), replace=False)) for k in sizes]
        found = _c1p_order(sets, range(n))
        assert (found is None) == (oracle_c1p(sets, range(n)) is None), sets
        if found is not None:
            assert sorted(found) == list(range(n)) and all(contiguous(found, s) for s in sets)
        outcomes[found is not None] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 100


def test_c1p_core_returns_a_working_ascending_order_unchanged():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 64))
        bounds = np.sort(rng.integers(0, n, (int(rng.integers(1, 30)), 2)))
        intervals = [frozenset(range(a, b + 1)) for a, b in bounds.tolist()]
        assert _c1p_order(intervals, range(n)) == list(range(n))
        label = rng.permutation(n)
        relabelled = [frozenset(int(label[x]) for x in s) for s in intervals]
        found = _c1p_order(relabelled, range(n))
        assert all(contiguous(found, s) for s in relabelled)


def one_set_layout(block, universe):
    """The documented layout of at most one set: the loose slots ascending,
    with the set's slots as one ascending block placed by its smallest slot."""
    loose = sorted(set(universe) - block)
    first = min(block, default=max(universe) + 1)
    return [x for x in loose if x < first] + sorted(block) + [x for x in loose if x > first]


def test_c1p_core_lays_out_one_set_directly(monkeypatch):
    rng = np.random.default_rng(2)
    general = []
    overlap_components = ordering._overlap_components
    monkeypatch.setattr(ordering, "_overlap_components",
                        lambda family: general.append(family) or overlap_components(family))
    for _ in range(600):
        n = int(rng.integers(1, 65))
        universe = [int(x) for x in rng.choice(100, n, replace=False)]
        block = frozenset(int(x) for x in rng.choice(universe, int(rng.integers(0, n + 1)),
                                                     replace=False))
        # repeats and empty sets leave one set, or none
        sets = [block] * int(rng.integers(1, 3)) + [frozenset()] * int(rng.integers(0, 2))
        found = _c1p_order(sets, universe)
        assert sorted(found) == sorted(universe)
        assert not block or contiguous(found, block)
        assert found == one_set_layout(block, universe)
        if n <= 6:
            assert oracle_c1p(sets, universe) is not None
        assert not general
        # with the universe added as a second set the general path agrees
        if block and block != set(universe):
            assert _c1p_order([block, frozenset(universe)], universe) == found
            assert general and general.pop() is not None


def test_c1p_core_takes_the_general_path_for_an_anchored_band(monkeypatch):
    # one set kept across a band's right end: with the two sentinels it is a
    # family of three, and the set must end the band
    calls = []
    overlap_components = ordering._overlap_components
    monkeypatch.setattr(ordering, "_overlap_components",
                        lambda family: calls.append(family) or overlap_components(family))
    channel_space = 8
    universe = frozenset({0, 2, 3, 5, 6})
    want = frozenset({0, 5})
    left, right = -1, channel_space
    sets = [want | {right}, universe | {left}, universe | {right}]
    found = _c1p_order(sets, universe | {left, right})
    assert len(calls) == 1
    assert found == [left, 2, 3, 6, 0, 5, right]
    assert all(contiguous(found, s) for s in sets)


def concat_reads_fixture(widths, reads, seed=0):
    """Producers p0, p1, ... of the given widths; consumer ci reads the
    concatenation of the producers listed in ``reads[i]``, in that order."""
    rows = [("in", INPUT, 3, 3)] + [(f"p{i}", MIX, 3, w) for i, w in enumerate(widths)]
    edges = [("in", f"p{i}") for i in range(len(widths))]
    for i, read in enumerate(reads):
        width = sum(widths[j] for j in read)
        rows += [(f"k{i}", CONCAT if len(read) > 1 else PASS, width, width),
                 (f"c{i}", MIX, width, 2)]
        edges += [(f"p{j}", f"k{i}") for j in read] + [(f"k{i}", f"c{i}")]
    rows += [("j", ADD, 2, 2), ("out", OUTPUT, 2, 2)]
    edges += [(f"c{i}", "j") for i in range(len(reads))] + [("j", "out")]
    return build_model(rows, edges, seed=seed)


def check_against_oracle(graph, seg, masks, outcomes):
    retained = resolve_masks(seg, masks, "input").slots
    found = find_zero_copy_order(seg, retained, seg.band_reads)
    assert (found is not None) == zero_copy_exists(graph, seg, retained), masks
    if found is not None:
        assert plan_export(graph, seg, found, masks).stats.copied == 0, masks
    outcomes[found is not None] += 1
    return retained


READS = [[(0, 1), (0, 1)], [(0, 1), (1, 0)], [(0, 1, 2), (2, 1)], [(0, 1, 2), (1,), (2, 0)]]


def test_zero_copy_search_agrees_with_oracle_across_concat_bands():
    rng = np.random.default_rng(0)
    outcomes, straddling = Counter(), 0
    for case in range(1200):
        reads = READS[case % len(READS)]
        widths = [int(w) for w in rng.integers(1, 4, 1 + max(max(r) for r in reads))]
        graph, _ = concat_reads_fixture(widths, reads)
        seg = next(s for s in find_segments(graph) if s.producers[0] == "p0")
        masks = {}
        for c, vec in seg.consumer_slots.items():
            if rng.random() < 0.8:
                masks[c] = tuple(sorted(int(x) for x in rng.choice(
                    len(vec), int(rng.integers(1, len(vec) + 1)), replace=False)))
        retained = check_against_oracle(graph, seg, masks, outcomes)
        straddling += any(sum(not want.isdisjoint(b.slots) for b in seg.bands) > 1
                          for want in retained.values())
    assert outcomes[True] > 500 and outcomes[False] > 50 and straddling > 500


def test_zero_copy_search_agrees_with_oracle_on_random_dags():
    outcomes = Counter()
    for seed in range(1500):
        graph, _ = random_dag(seed)
        rng = np.random.default_rng(seed)
        for seg in find_segments(graph):
            if seg.lock_reason or not seg.consumers:
                continue
            masks = {c: tuple(sorted(int(x) for x in rng.choice(
                         len(vec), int(rng.integers(1, len(vec) + 1)), replace=False)))
                     for c, vec in seg.consumer_slots.items()}
            if len(set().union(*resolve_masks(seg, masks, "input").slots.values())) <= 8:
                check_against_oracle(graph, seg, masks, outcomes)
    assert outcomes[True] > 100 and outcomes[False] > 20
