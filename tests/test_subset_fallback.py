"""The fallback where no copy-free layout exists: the largest
consecutive-ones subset of layers slices, everyone else gathers. Input
mode lays out consumers, output mode producers, by the same rule.

The path search (``decompose_paths`` + ``order_channels``), which both
modes ran here before, stays in ``reslice.path_search`` as the comparison;
export no longer runs it.
"""

import logging
import time
from collections import Counter

import numpy as np
import pytest

from helpers import (
    add_join_fixture,
    dense_block,
    fan_fixture,
    fan_masks,
    oracle_max_c1p_subset,
    random_dag,
)
from reslice import find_segments, make_masks, ordering, score_channels
from reslice.ordering import find_zero_copy_order, largest_c1p_order
from reslice.path_search import (build_reorder_graph, decompose_paths, order_channels,
                                 reorder_graph_from_sets)
from reslice.pipeline import plan_model
from reslice.planner import copy_report, plan_export, plan_export_output
from reslice.segments import resolve_masks


def fan_segment(n_consumers, channels=64):
    graph, _ = fan_fixture(channels, tuple(f"c{i:02d}" for i in range(n_consumers)))
    return graph, next(s for s in find_segments(graph) if s.producers == ("A",))


def path_search_copies(graph, segment, masks):
    rg = build_reorder_graph(segment, masks)
    return plan_export(graph, segment, order_channels(rg, decompose_paths(rg)),
                       masks).stats.copied


def path_search_output_copies(graph, segment, masks):
    rg = reorder_graph_from_sets(resolve_masks(segment, masks, "output").slots, segment.channel_space)
    return plan_export_output(graph, segment, order_channels(rg, decompose_paths(rg)),
                              masks).stats.copied


def failing_fan_masks(segment, n, kind, count=12):
    """The masks of the first ``count`` seeds under which the fan has no
    copy-free layout."""
    seed = 0
    while count:
        masks = fan_masks(np.random.default_rng(seed), n, kind)
        seed += 1
        if find_zero_copy_order(segment, resolve_masks(segment, masks, "input").slots,
                                segment.band_reads) is None:
            count -= 1
            yield masks


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
    retained = resolve_masks(segment, masks, "input").slots
    kept = frozenset().union(*retained.values())
    alone, reads = {"y03": retained["y03"]}, segment.band_reads
    assert find_zero_copy_order(segment, alone, reads) is not None
    assert find_zero_copy_order(segment, alone, reads, kept) is None
    order = find_zero_copy_order(segment, {"y01": retained["y01"]}, reads, kept)
    assert sorted(order) == sorted(kept)


def test_subset_refuses_a_locked_segment():
    graph, _ = fan_fixture()
    segment = next(s for s in find_segments(graph) if s.producers == ("in",))
    with pytest.raises(ValueError, match="model input"):
        largest_c1p_order(segment, {"A": frozenset({0, 1})}, {"A": (0,)})


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
        retained = resolve_masks(segment, masks, "input").slots
        if find_zero_copy_order(segment, retained, segment.band_reads) is not None:
            continue
        order, chosen = largest_c1p_order(segment, retained, segment.band_reads)
        plan = plan_export(graph, segment, order, masks)
        access = {a.consumer: a for a in plan.consumers}
        assert all(access[c].mode == "slice" for c in chosen), seed
        baseline_plans, _ = plan_model(graph, masks, strategy="baseline")
        baseline = {a.consumer: a.width if a.mode == "gather" else 0
                    for p in baseline_plans if p.segment == segment.id for a in p.consumers}
        for c, a in access.items():
            assert (a.width if a.mode == "gather" else 0) <= baseline[c], (seed, c)
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
        ours = theirs = 0
        for masks in failing_fan_masks(segment, n, kind):
            retained = resolve_masks(segment, masks, "input").slots
            order, _ = largest_c1p_order(segment, retained, segment.band_reads)
            copied = plan_export(graph, segment, order, masks).stats.copied
            reference = path_search_copies(graph, segment, masks)
            ours, theirs = ours + copied, theirs + reference
            losses[kind, n] += copied > reference
        assert ours <= theirs, (kind, n, ours, theirs)
    assert sum(losses.values()) <= 1, losses


def test_output_mode_add_join_copies_what_input_mode_fan_copies():
    """The rule is shared: n producers summed by one add, each keeping what
    consumer i of the fan keeps, lay out their filters as the fan lays out
    its consumers, so output mode copies what input mode copies on every
    instance of every bucket above."""
    for kind, n in BUCKETS:
        fan, segment = fan_segment(n)
        join, _ = add_join_fixture(64, tuple(f"c{i:02d}" for i in range(n)))
        for masks in failing_fan_masks(segment, n, kind):
            [fan_plan], _ = plan_model(fan, masks)
            [join_plan], _ = plan_model(join, masks, mode="output")
            assert join_plan.stats == fan_plan.stats, (kind, n, masks)


def test_output_mode_copies_no_more_than_the_path_search_on_random_dags():
    """600 ``random_dag`` seeds, bias-free, with random output masks at 40%
    sparsity (``make_masks``): 668 pruned segments, 475 of them with more
    than one producer. The rule copies 0 channels where the path search
    copies 23; it is better on 9 segments and worse on none (on 1,500
    seeds: 1,658 segments, 0 against 70 copied, better on 29)."""
    segments = joins = ours = theirs = 0
    for seed in range(600):
        graph, weights = random_dag(seed, bias_free=True)
        scores = score_channels(graph, weights, "random", side="output", seed=seed)
        masks = make_masks(graph, scores, 0.4, "unconstrained", side="output")
        plans, _ = plan_model(graph, masks, mode="output")
        by_id = {s.id: s for s in find_segments(graph)}
        for plan in plans:
            segment = by_id[plan.segment]
            reference = path_search_output_copies(graph, segment, masks)
            assert plan.stats.copied <= reference, seed
            segments, joins = segments + 1, joins + (len(segment.producers) > 1)
            ours, theirs = ours + plan.stats.copied, theirs + reference
    assert (segments, joins, ours, theirs) == (668, 475, 0, 23)


def test_sparse_add_join_of_20_producers_plans_fast():
    """Three kept filters per producer: about 0.018 s per plan, copying 18
    of 60 filters, bounded at 10 times that. The path search takes about
    7 s on this join (its exact search runs just under ``EXACT_NODE_CAP``)
    and copies 15."""
    ids = tuple(f"c{i:02d}" for i in range(20))
    graph, _ = add_join_fixture(64, ids)
    masks = fan_masks(np.random.default_rng(2), 20, "sparse")
    segment = next(s for s in find_segments(graph) if s.producers == ids)
    assert find_zero_copy_order(segment, resolve_masks(segment, masks, "output").slots,
                                {p: (0,) for p in ids}) is None
    elapsed, (plans, _) = best_of_three(lambda: plan_model(graph, masks, mode="output"))
    baseline, _ = plan_model(graph, masks, mode="output", strategy="baseline")
    assert copy_report(plans).copied < copy_report(baseline).copied
    assert elapsed < 0.2


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
            retained = resolve_masks(segment, masks, "input").slots
            if find_zero_copy_order(segment, retained, segment.band_reads) is not None:
                continue
            order, _ = largest_c1p_order(segment, retained, segment.band_reads)
            copied = plan_export(graph, segment, order, masks).stats.copied
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
    assert find_zero_copy_order(segment, resolve_masks(segment, masks, "input").slots,
                                segment.band_reads) is None
    elapsed, (plans, _) = best_of_three(lambda: plan_model(graph, masks))
    baseline, _ = plan_model(graph, masks, strategy="baseline")
    assert copy_report(plans).copied < copy_report(baseline).copied
    assert elapsed < 0.55


def test_fallback_logs_one_info_record_per_segment(caplog):
    # the path search's greedy WARNING no longer fires in either mode; the
    # record counts layers, consumers in input mode and producers in output
    ids = tuple(f"c{i:02d}" for i in range(31))
    masks = fan_masks(np.random.default_rng(0), 31, "mixed")
    graph, segment = fan_segment(31)
    retained = resolve_masks(segment, masks, "input").slots
    assert find_zero_copy_order(segment, retained, segment.band_reads) is None
    _, chosen = largest_c1p_order(segment, retained, segment.band_reads)
    join, _ = add_join_fixture(64, ids)
    for model, mode, seg_id in ((graph, "input", "A"), (join, "output", "c00")):
        caplog.clear()
        with caplog.at_level(logging.INFO):
            plan_model(model, masks, mode=mode)
        records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
        assert records == [("reslice.ordering", "INFO",
                            f"segment {seg_id}: rule c1p-subset, {len(chosen)} layers chosen, "
                            f"{31 - len(chosen)} rejected")]


def test_subset_search_of_a_128_consumer_fan_stops_at_its_test_cap(caplog, monkeypatch):
    """Mixed masks: about 0.25 s per plan, bounded at 10 times that, with
    2,454 of 2,637 reads copied. Without the cap the swaps ran 7,974 layout
    tests over 3-4 s and copied 1,331."""
    graph, segment = fan_segment(128)
    masks = fan_masks(np.random.default_rng(1), 128, "mixed")
    elapsed, (plans, _) = best_of_three(lambda: plan_model(graph, masks))
    assert copy_report(plans).copied == 2454
    assert elapsed < 2.5
    tests = []
    real = ordering.find_zero_copy_order
    monkeypatch.setattr(ordering, "find_zero_copy_order", lambda *a: tests.append(1) or real(*a))
    retained = resolve_masks(segment, masks, "input").slots
    with caplog.at_level(logging.INFO):
        _, chosen = largest_c1p_order(segment, retained, segment.band_reads)
    # the cap's tests and the final layout
    assert len(tests) == ordering.MAX_C1P_TESTS + 1
    assert [r.getMessage() for r in caplog.records] == [
        f"segment A: rule c1p-subset, {len(chosen)} layers chosen, {128 - len(chosen)} "
        f"rejected, stopped after {ordering.MAX_C1P_TESTS} layout tests"]
