"""Release gate: seven criteria, one test and one pass line each.

Channel indices print one-based in the comments to match the narrative
figures; code stays zero-based throughout.
"""

import time

from helpers import (brute_force_mrap, build_model, fan_fixture, random_dag,
                     random_retained_sets, residual_block_fixture,
                     single_branch_fixture, zero_copy_exists)
from reslice.graph import save_model
from reslice.interp import check_equivalence
from reslice.masks import make_masks, score_channels
from reslice.path_search import (Path, build_reorder_graph, decompose_paths, order_channels,
                                 reorder_graph_from_sets, solve_mrap)
from reslice.pipeline import export_model, plan_model
from reslice.planner import copy_report, plan_export
from reslice.segments import find_segments, retained_slots

SPARSITIES = (0.1, 0.3, 0.5)
N_RANDOM_MODELS = 100


def seg(graph, producers):
    return next(s for s in find_segments(graph) if set(s.producers) == set(producers))


def access(plan, consumer):
    return next(a for a in plan.consumers if a.consumer == consumer)


def input_masks(graph, weights, sparsity, mode="unconstrained"):
    scores = score_channels(graph, weights.tensors, "l2")
    return make_masks(graph, scores, sparsity, mode)


def test_criterion_1_worked_examples():
    t0 = time.monotonic()

    # two disjoint masks [1,3] and [2,4]: order [1,3,2,4], zero copies
    g, _ = fan_fixture(4, ("B", "C"))
    s = seg(g, {"A"})
    masks = {"B": (0, 2), "C": (1, 3)}
    rg = build_reorder_graph(s, masks)
    order = order_channels(rg, decompose_paths(rg))
    assert order == (0, 2, 1, 3)
    assert plan_export(g, s, order, masks).stats.copied == 0

    # masks [1,3] and [2,3] on three channels: order [1,3,2]; the second
    # consumer reads channels (2,3) as the reversed window (3,2)
    g, _ = fan_fixture(3, ("B", "D"))
    s = seg(g, {"A"})
    masks = {"B": (0, 2), "D": (1, 2)}
    rg = build_reorder_graph(s, masks)
    order = order_channels(rg, decompose_paths(rg))
    assert order == (0, 2, 1)
    plan = plan_export(g, s, order, masks)
    d = access(plan, "D")
    assert (d.mode, d.start, d.length, d.perm) == ("slice", 1, 2, (2, 1))
    assert plan.stats.copied == 0

    # triangle B{1,2} D{2,3,4} E{1,4,5}: best path [D,E] with reward 5,
    # the leftover [B] follows in the decomposition
    rg = reorder_graph_from_sets(
        {"B": {0, 1}, "D": {1, 2, 3}, "E": {0, 3, 4}}, 5)
    best = solve_mrap(rg)
    assert (best.nodes, best.reward) == (("D", "E"), 5)
    paths = decompose_paths(rg)
    assert [(p.nodes, p.reward) for p in paths] == [(("D", "E"), 5), (("B",), 2)]

    # mutually exclusive trio: the best path keeps [B,C] and excludes D
    rg = reorder_graph_from_sets(
        {"B": {0, 2, 3}, "C": {1, 2, 3}, "D": {0, 1}}, 4)
    best = solve_mrap(rg)
    assert best.nodes == ("B", "C")
    assert "D" not in best.nodes

    # subset-entangled five-consumer instance: emitting along the stated
    # path with B absorbed as a covered parent yields [1,2,3,5,4,6]
    rg = reorder_graph_from_sets(
        {"A": {0, 1, 2}, "B": {1, 2, 3, 4}, "C": {3, 4, 5},
         "D": {2, 3, 4}, "E": {1, 2, 4}}, 6)
    order = order_channels(rg, [Path(("A", "D", "E", "C"), 0, ("B",))])
    assert order == (0, 1, 2, 4, 3, 5)

    # three consumers over four channels: producer order [1,3,4,2]; C reads
    # the slice (3,4,2); D's channels stay apart and must be gathered
    g, _ = fan_fixture(4, ("B", "C", "D"))
    s = seg(g, {"A"})
    masks = {"B": (0, 2, 3), "C": (1, 2, 3), "D": (0, 3)}
    rg = build_reorder_graph(s, masks)
    order = order_channels(rg, [Path(("B", "C"), 4), Path(("D",), 2)])
    assert order == (0, 2, 3, 1)
    plan = plan_export(g, s, order, masks)
    assert plan.producer_orders["A"] == (0, 2, 3, 1)
    c = access(plan, "C")
    assert (c.mode, c.start, c.length, c.perm) == ("slice", 1, 3, (2, 3, 1))
    assert access(plan, "D").mode == "gather"

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"worked examples took {elapsed:.2f}s"
    print(f"criterion 1 worked examples: PASS ({elapsed:.2f}s < 1s)")


def test_criterion_2_path_search_optimality():
    t0 = time.monotonic()
    for seed in range(200):
        retained, channels = random_retained_sets(seed)
        rg = reorder_graph_from_sets(dict(retained), channels)
        assert solve_mrap(rg).reward == brute_force_mrap(rg).reward, seed
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"optimality sweep took {elapsed:.2f}s"
    print(f"criterion 2 exact path search on 200 graphs: PASS ({elapsed:.2f}s < 30s)")


def test_criterion_3_functional_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(N_RANDOM_MODELS):
        graph, weights = random_dag(seed)
        for sparsity in SPARSITIES:
            masks = input_masks(graph, weights, sparsity)
            for strategy in ("reorder", "baseline"):
                result = export_model(graph, weights, masks, strategy=strategy)
                report = check_equivalence(graph, weights, masks,
                                           result.graph, result.weights)
                assert report.passed, (seed, sparsity, strategy)
                worst = max(worst, report.max_deviation)

        # output pruning on bias-free models
        graph, weights = random_dag(seed, bias_free=True)
        scores = score_channels(graph, weights.tensors, "l2", side="output")
        for sparsity in SPARSITIES:
            masks = make_masks(graph, scores, sparsity, "unconstrained", side="output")
            result = export_model(graph, weights, masks, mode="output")
            report = check_equivalence(graph, weights, masks, result.graph,
                                       result.weights, mask_side="output")
            assert report.passed, (seed, sparsity, "output")
            worst = max(worst, report.max_deviation)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.2f}s"
    print(f"criterion 3 equivalence on {N_RANDOM_MODELS} models x "
          f"{SPARSITIES}: PASS (max deviation {worst:.2e} <= 1e-9, "
          f"{elapsed:.2f}s < 60s)")


def test_criterion_4_copy_dominance():
    t0 = time.monotonic()
    oracle_hits = 0
    for seed in range(N_RANDOM_MODELS):
        graph, weights = random_dag(seed)
        segments = find_segments(graph)
        for sparsity in SPARSITIES:
            masks = input_masks(graph, weights, sparsity)
            reorder, _ = plan_model(graph, masks, strategy="reorder")
            baseline, _ = plan_model(graph, masks, strategy="baseline")
            assert copy_report(reorder).copied <= copy_report(baseline).copied, \
                (seed, sparsity)

            by_id = {p.segment: p for p in reorder}
            for segment in segments:
                plan = by_id.get(segment.id)
                if (plan is None or plan.strategy != "reorder"
                        or segment.lock_reason
                        or len(segment.consumers) > 6
                        or segment.channel_space > 8):
                    continue
                if zero_copy_exists(graph, segment, retained_slots(segment, masks)):
                    oracle_hits += 1
                    assert plan.stats.copied == 0, (seed, sparsity, segment.id)
    elapsed = time.monotonic() - t0
    assert oracle_hits > 100, "oracle clause barely exercised"
    print(f"criterion 4 copy dominance: PASS (zero-copy oracle agreed on "
          f"{oracle_hits} segments, {elapsed:.2f}s)")


def test_criterion_5_constrained_mode_copies_nothing():
    t0 = time.monotonic()
    for seed in range(N_RANDOM_MODELS):
        graph, weights = random_dag(seed)
        for sparsity in SPARSITIES:
            masks = input_masks(graph, weights, sparsity, mode="constrained")
            result = export_model(graph, weights, masks, strategy="constrained")
            assert result.totals.copied == 0, (seed, sparsity)
            report = check_equivalence(graph, weights, masks,
                                       result.graph, result.weights)
            assert report.passed, (seed, sparsity)
    elapsed = time.monotonic() - t0
    print(f"criterion 5 constrained mode: PASS (0 copies everywhere, "
          f"{elapsed:.2f}s)")


def test_criterion_6_segment_extraction():
    from helpers import oracle_segments

    t0 = time.monotonic()
    g, _ = single_branch_fixture()
    got = {(frozenset(s.producers), frozenset(s.consumers))
           for s in find_segments(g)}
    assert got == {
        (frozenset({"in"}), frozenset({"A"})),
        (frozenset({"A"}), frozenset({"B"})),
        (frozenset({"B"}), frozenset()),
    }

    g, _ = residual_block_fixture()
    got = {(frozenset(s.producers), frozenset(s.consumers))
           for s in find_segments(g)}
    assert got == {
        (frozenset({"in"}), frozenset({"A", "C"})),
        (frozenset({"A", "C"}), frozenset({"B", "D"})),
        (frozenset({"B", "D"}), frozenset()),
    }

    for seed in range(100):
        g, _ = random_dag(seed)
        got = [(frozenset(s.producers), frozenset(s.consumers))
               for s in find_segments(g)]
        want = [(frozenset(p), frozenset(c)) for p, c in oracle_segments(g)]
        assert len(got) == len(want) and set(got) == set(want), seed
    elapsed = time.monotonic() - t0
    print(f"criterion 6 segment extraction: PASS (fixtures exact, 100 random "
          f"models match the closure oracle, {elapsed:.2f}s)")


def test_criterion_7_determinism(tmp_path):
    from reslice.cli import main

    t0 = time.monotonic()
    graph, weights = residual_block_fixture()
    model, wfile = tmp_path / "m.json", tmp_path / "w.json"
    save_model(graph, weights, model, wfile)

    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        masks = d / "masks.json"
        assert main(["prune", "--model", str(model), "--weights", str(wfile),
                     "--heuristic", "random", "--seed", "9",
                     "--sparsity", "0.4", "--out", str(masks)]) == 0
        assert main(["export", "--model", str(model), "--weights", str(wfile),
                     "--masks", str(masks),
                     "--out-prefix", str(d / "pruned")]) == 0
        outputs.append([
            masks.read_bytes(),
            (d / "pruned.plan.json").read_bytes(),
            (d / "pruned.model.json").read_bytes(),
            (d / "pruned.weights.json").read_bytes(),
        ])
    assert outputs[0] == outputs[1]
    elapsed = time.monotonic() - t0
    print(f"criterion 7 determinism: PASS (byte-identical masks, plan and "
          f"model files, {elapsed:.2f}s)")
