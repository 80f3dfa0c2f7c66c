"""The input-mode fallback where no copy-free layout exists: the largest
consecutive-ones subset of consumers slices, everyone else gathers.

The path search (``decompose_paths`` + ``order_channels``), which input
mode ran here before, stays in ``src/`` for output mode and serves as the
comparison.
"""

import logging
import time
from collections import Counter

import numpy as np
import pytest

from helpers import (
    dense_block,
    fan_fixture,
    fan_masks,
    oracle_max_c1p_subset,
    random_dag,
)
from reslice import find_segments
from reslice.ordering import find_zero_copy_order, largest_c1p_order, order_channels
from reslice.path_search import decompose_paths
from reslice.pipeline import plan_model
from reslice.planner import copy_report, plan_baseline, plan_export
from reslice.reorder_graph import build_reorder_graph, retained_slots


def fan_segment(n_consumers, channels=64):
    graph, _ = fan_fixture(channels, tuple(f"c{i:02d}" for i in range(n_consumers)))
    return graph, next(s for s in find_segments(graph) if s.producers == ("A",))


def path_search_copies(graph, segment, masks):
    rg = build_reorder_graph(segment, masks)
    return plan_export(graph, segment, order_channels(rg, decompose_paths(rg)),
                       (), masks).stats.copied


def best_of_three(fn):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_zero_copy_search_tests_a_subset_against_the_full_kept_universe():
    # y03 reads x0 | y01 | y02 (4 + 2 + 2 columns) and keeps the last of
    # x0, the first of y01 and the first of y02, so it slices only if y01
    # keeps nothing else; the transition t keeps all of y01
    graph, masks = dense_block(3, stem=4, growth=2)
    masks.update(y03=(3, 4, 6), t=tuple(range(10)))
    segment = next(s for s in find_segments(graph) if s.producers[0] == "x0")
    retained = retained_slots(segment, masks)
    kept = frozenset().union(*retained.values())
    alone = {"y03": retained["y03"]}
    assert find_zero_copy_order(segment, alone) is not None
    assert find_zero_copy_order(segment, alone, kept) is None
    order = find_zero_copy_order(segment, {"y01": retained["y01"]}, kept)
    assert sorted(order) == sorted(kept)


def test_subset_refuses_a_locked_segment():
    graph, _ = fan_fixture()
    segment = next(s for s in find_segments(graph) if s.producers == ("in",))
    with pytest.raises(ValueError, match="model input"):
        largest_c1p_order(segment, {"A": frozenset({0, 1})})


def test_subset_against_the_exhaustive_optimum():
    """Random fans of 5 channels and 3-10 consumers where no copy-free
    layout exists (147 of 300 seeds). Every consumer the subset chooses
    slices, none copies more than under baseline, and the chosen retained
    size reaches the exhaustive optimum on 141 of the 147: the gap is 8
    channels in all, spread over 6 instances."""
    cases, short, gap = 0, 0, 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        graph, segment = fan_segment(int(rng.integers(3, 11)), channels=5)
        masks = {c: tuple(sorted(int(x) for x in rng.choice(5, int(rng.integers(1, 6)),
                                                              replace=False)))
                 for c in segment.consumers}
        retained = retained_slots(segment, masks)
        if find_zero_copy_order(segment, retained) is not None:
            continue
        order, chosen = largest_c1p_order(segment, retained)
        plan = plan_export(graph, segment, order, (), masks)
        access = {a.consumer: a for a in plan.consumers}
        assert all(access[c].mode == "slice" for c in chosen), seed
        baseline = {a.consumer: len(a.perm) if a.mode == "gather" else 0
                    for a in plan_baseline(graph, segment, masks).consumers}
        for c, a in access.items():
            assert (len(a.perm) if a.mode == "gather" else 0) <= baseline[c], (seed, c)
        found = sum(len(retained[c]) for c in chosen)
        best = oracle_max_c1p_subset(retained)
        assert found <= best
        cases, short, gap = cases + 1, short + (found < best), gap + best - found
    assert cases == 147 and short <= 6 and gap <= 8


# (mask kind, consumers): 12 seeds each where no copy-free layout exists.
# The path search needs 22-33 s for 12 sparse fans of 31 consumers, so
# those stay out.
BUCKETS = [("mixed", 6), ("mixed", 12), ("mixed", 20), ("mixed", 31),
           ("sparse", 6), ("sparse", 12), ("l2", 6), ("l2", 12), ("l2", 20)]


def test_subset_copies_no_more_than_the_path_search_on_fans():
    """One 64-channel producer, 12 failing instances per bucket. Copied
    channels, path search -> subset: mixed 863 -> 595 (n = 6), 1,976 ->
    1,570 (12), 3,968 -> 2,840 (20), 6,705 -> 4,425 (31); sparse 36 -> 36
    (6), 57 -> 57 (12); L2-like 1,824, 4,560 and 8,208 both ways. One
    instance in 108 copies more than the path search (mixed, n = 12)."""
    losses = Counter()
    for kind, n in BUCKETS:
        graph, segment = fan_segment(n)
        ours = theirs = cases = seed = 0
        while cases < 12:
            masks = fan_masks(np.random.default_rng(seed), n, kind)
            seed += 1
            retained = retained_slots(segment, masks)
            if find_zero_copy_order(segment, retained) is not None:
                continue
            order, _ = largest_c1p_order(segment, retained)
            copied = plan_export(graph, segment, order, (), masks).stats.copied
            reference = path_search_copies(graph, segment, masks)
            ours, theirs, cases = ours + copied, theirs + reference, cases + 1
            losses[kind, n] += copied > reference
        assert ours <= theirs, (kind, n, ours, theirs)
    assert sum(losses.values()) <= 1, losses


def test_subset_never_copies_more_than_the_path_search_on_random_dags():
    """3,000 ``random_dag`` seeds with random masks: 94 unlocked segments
    have no copy-free layout; the path search copies 570 channels there and
    the subset 339, better on 53 and worse on none."""
    cases = better = 0
    for seed in range(3000):
        graph, _ = random_dag(seed)
        rng = np.random.default_rng(seed)
        for segment in find_segments(graph):
            if segment.lock_reason or not segment.consumers:
                continue
            masks = {c: tuple(sorted(int(x) for x in rng.choice(
                         len(vec), int(rng.integers(1, len(vec) + 1)), replace=False)))
                     for c, vec in segment.consumer_slots.items()}
            retained = retained_slots(segment, masks)
            if find_zero_copy_order(segment, retained) is not None:
                continue
            order, _ = largest_c1p_order(segment, retained)
            copied = plan_export(graph, segment, order, (), masks).stats.copied
            reference = path_search_copies(graph, segment, masks)
            assert copied <= reference, seed
            cases, better = cases + 1, better + (copied < reference)
    assert cases > 80 and better > 40


def test_dense_block_plans_fast_and_copies_less_than_baseline():
    """DenseNet-BC dense block 3 (24 layers, 256 in, growth 32): the subset
    slices y01 and y02 and copies 9,265 of 9,590 reads in about 0.035 s;
    the path search copied all 9,590 in 2.8 s."""
    graph, masks = dense_block(24)
    elapsed, (plans, _) = best_of_three(lambda: plan_model(graph, masks))
    baseline, _ = plan_model(graph, masks, strategy="baseline")
    assert copy_report(plans).copied == 9265 < copy_report(baseline).copied == 9590
    assert elapsed < 0.35


def test_sparse_fan_of_31_consumers_plans_fast():
    """Three kept channels per consumer: about 0.055 s per plan, where the
    path search takes 2-3 s."""
    graph, segment = fan_segment(31)
    masks = fan_masks(np.random.default_rng(2), 31, "sparse")
    assert find_zero_copy_order(segment, retained_slots(segment, masks)) is None
    elapsed, (plans, _) = best_of_three(lambda: plan_model(graph, masks))
    baseline, _ = plan_model(graph, masks, strategy="baseline")
    assert copy_report(plans).copied < copy_report(baseline).copied
    assert elapsed < 0.55


def test_fallback_logs_one_info_record_per_segment(caplog):
    # the path search's greedy WARNING no longer fires in input mode
    graph, segment = fan_segment(31)
    masks = fan_masks(np.random.default_rng(0), 31, "mixed")
    retained = retained_slots(segment, masks)
    assert find_zero_copy_order(segment, retained) is None
    _, chosen = largest_c1p_order(segment, retained)
    with caplog.at_level(logging.INFO):
        plan_model(graph, masks)
    records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    assert records == [("reslice.ordering", "INFO",
                        f"segment A: rule c1p-subset, {len(chosen)} consumers chosen, "
                        f"{31 - len(chosen)} rejected")]
