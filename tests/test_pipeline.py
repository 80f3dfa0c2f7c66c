"""Whole-model export pipeline."""

import numpy as np
import pytest

from helpers import (INPUT, MIX, OUTPUT, PASS, build_model, duplicate_read_fixture,
                     fan_fixture, random_dag, residual_block_fixture)
from reslice.graph import LayerKind, ValidationError
from reslice.interp import check_equivalence
from reslice.masks import make_masks, score_channels
from reslice.path_search import build_reorder_graph, decompose_paths, order_channels
from reslice.pipeline import export_model, plan_model
from reslice.planner import copy_report, plan_export
from reslice.segments import find_segments


def test_plan_model_validates_arguments():
    graph, _ = residual_block_fixture()
    with pytest.raises(ValidationError):
        plan_model(graph, {}, mode="sideways")
    with pytest.raises(ValidationError):
        plan_model(graph, {}, strategy="magic")
    with pytest.raises(ValidationError):
        plan_model(graph, {}, mode="output", strategy="constrained")
    with pytest.raises(ValidationError):
        plan_model(graph, {"B": (0, 9)})
    with pytest.raises(ValidationError):
        plan_model(graph, {"nosuch": (0,)})


@pytest.mark.parametrize("retained", [(0.5, 1), (1.0, 2.0), ("1", 2), (True, 2)],
                         ids=["half", "whole_float", "string", "bool"])
def test_a_non_integer_mask_index_is_a_validation_error(retained):
    # none of these may be truncated, compared with ints or sorted as text
    graph, weights = fan_fixture()
    with pytest.raises(ValidationError) as exc:
        export_model(graph, weights, {"B": retained})
    assert exc.value.diagnostics == [f"B: mask index {retained[0]!r} is not an integer"]


def test_numpy_integer_mask_indices_are_valid():
    graph, weights = fan_fixture()
    masks = {"B": (np.int64(0), np.int32(2))}
    result = export_model(graph, weights, masks)
    assert result.plans == export_model(graph, weights, {"B": (0, 2)}).plans


def test_unpruned_segments_are_skipped():
    graph, _ = residual_block_fixture()
    plans, fallbacks = plan_model(graph, {"B": (0, 2)})
    assert [p.segment for p in plans] == ["A"]
    assert fallbacks == []
    # a full-width mask prunes nothing
    plans, _ = plan_model(graph, {"B": (0, 1, 2, 3)})
    assert plans == []


@pytest.mark.parametrize("mode, masks", [("input", {"B": (0, 1, 2, 2)}),
                                         ("output", {"A": (0, 1, 2, 2)})])
def test_a_repeated_mask_index_counts_once(mode, masks):
    # three distinct channels of four: the segment is pruned and planned
    graph, weights = residual_block_fixture()
    result = export_model(graph, weights, masks, mode=mode)
    assert [p.segment for p in result.plans] == ["A"]
    report = check_equivalence(graph, weights, masks, result.graph, result.weights,
                               mask_side=mode)
    assert report.passed


def test_residual_export_end_to_end():
    graph, weights = residual_block_fixture()
    masks = {"B": (0, 2), "D": (1, 2)}
    result = export_model(graph, weights, masks)
    assert result.fallbacks == ()
    assert result.totals == copy_report(result.plans)
    assert result.totals.copied == 0
    # slot 3 is retained by nobody: both producers shrink to 3 filters
    assert result.graph.layer("A").out_channels == 3
    assert result.graph.layer("C").out_channels == 3
    report = check_equivalence(graph, weights, masks, result.graph, result.weights)
    assert report.passed


def test_export_is_pure():
    graph, weights = residual_block_fixture()
    before = {lid: arr.copy() for lid, arr in weights.tensors.items()}
    export_model(graph, weights, {"B": (0, 2), "D": (1, 2)})
    assert len(graph.layers) == 9
    for lid, arr in before.items():
        assert np.array_equal(weights[lid], arr)


def test_zero_copy_rescue_beats_the_path_order():
    # five overlapping masks whose best path decomposition still copies,
    # although a copy-free layout exists; the exhaustive search must find it
    graph, weights = fan_fixture(6, ("v", "w", "x", "y", "z"))
    masks = {"v": (0, 1, 2), "w": (1, 2, 3, 4), "x": (3, 4, 5),
             "y": (2, 3, 4), "z": (1, 2, 4)}
    segment = next(s for s in find_segments(graph) if s.producers == ("A",))
    rg = build_reorder_graph(segment, masks)
    raw = plan_export(graph, segment, order_channels(rg, decompose_paths(rg)), masks)
    assert raw.stats.copied > 0

    result = export_model(graph, weights, masks)
    plan = next(p for p in result.plans if p.segment == "A")
    assert plan.stats.copied == 0
    assert plan.producer_orders["A"] == (0, 1, 2, 4, 3, 5)
    report = check_equivalence(graph, weights, masks, result.graph, result.weights)
    assert report.passed


@pytest.mark.parametrize("strategy", ["reorder", "baseline", "constrained"])
def test_an_ill_formed_segment_exports_under_every_strategy(strategy):
    # the segment keeps its layout, as any locked segment does, and its plan
    # carries the strategy asked for
    graph, weights = duplicate_read_fixture()
    masks = {"X": (0, 2)}
    result = export_model(graph, weights, masks, strategy=strategy)
    assert [(p.segment, p.strategy) for p in result.plans] == [("f", strategy)]
    assert result.fallbacks == ()
    report = check_equivalence(graph, weights, masks, result.graph, result.weights)
    assert report.passed


def test_two_segments_export_sequentially():
    graph, weights = build_model(
        [("in", INPUT, 4, 4), ("A", MIX, 4, 4), ("r", PASS, 4, 4),
         ("B", MIX, 4, 4), ("r2", PASS, 4, 4), ("C", MIX, 4, 2),
         ("out", OUTPUT, 2, 2)],
        [("in", "A"), ("A", "r"), ("r", "B"), ("B", "r2"), ("r2", "C"),
         ("C", "out")])
    masks = {"B": (0, 3), "C": (1, 2)}
    result = export_model(graph, weights, masks)
    assert sorted(p.segment for p in result.plans) == ["A", "B"]
    assert result.totals.copied == 0
    assert result.graph.layer("A").out_channels == 2
    assert result.graph.layer("B").in_channels == 2
    assert result.graph.layer("B").out_channels == 2
    assert result.graph.layer("C").in_channels == 2
    report = check_equivalence(graph, weights, masks, result.graph, result.weights)
    assert report.passed


def test_output_mode_pipeline():
    graph, weights = residual_block_fixture()
    masks = {"A": (0, 2, 3), "C": (0, 1, 3)}
    result = export_model(graph, weights, masks, mode="output")
    assert result.totals.copied == 0
    assert result.graph.layer("A").out_channels == 3
    report = check_equivalence(graph, weights, masks, result.graph,
                               result.weights, mask_side="output")
    assert report.passed

    base = export_model(graph, weights, masks, mode="output", strategy="baseline")
    assert base.totals.copied == 6
    ids = {l.id for l in base.graph.layers}
    assert {"A.restore", "C.restore"} <= ids
    report = check_equivalence(graph, weights, masks, base.graph,
                               base.weights, mask_side="output")
    assert report.passed


EXPORTS = [("input", "reorder"), ("input", "baseline"), ("input", "constrained"),
           ("output", "reorder"), ("output", "baseline")]


def test_exported_models_export_again():
    # an export holds slice and gather reads (and zero-filling gathers in
    # output baseline); they lock their segments, and a second export under
    # every mode and strategy must still apply and stay equivalent
    repacked = zero_filled = renamed = 0
    for seed in range(25):
        for mode, strategy in EXPORTS:
            graph, weights = random_dag(seed, bias_free=mode == "output")
            scores = score_channels(graph, weights.tensors, "l2", side=mode)
            masks = make_masks(graph, scores, 0.4, "unconstrained", side=mode)
            first = export_model(graph, weights, masks, mode, strategy)
            segments = find_segments(first.graph)
            repacked += any(first.graph.layer(u).kind in (LayerKind.SLICE, LayerKind.GATHER)
                            for s in segments for u in s.interior)
            zero_filled += any(-1 in l.params for l in first.graph.layers
                               if l.kind is LayerKind.GATHER)
            for mode2, strategy2 in EXPORTS:
                scores = score_channels(first.graph, first.weights.tensors, "l2", side=mode2)
                masks = make_masks(first.graph, scores, 0.3, "unconstrained", side=mode2)
                second = export_model(first.graph, first.weights, masks, mode2, strategy2)
                renamed += any(l.id.endswith("_2") for l in second.graph.layers)
                report = check_equivalence(first.graph, first.weights, masks, second.graph,
                                           second.weights, mask_side=mode2)
                assert report.passed, (seed, mode, strategy, mode2, strategy2)
    assert repacked > 25 and zero_filled > 10 and renamed > 10
