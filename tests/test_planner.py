"""Export planning: per-segment rewrite plans and their execution."""

import dataclasses
import json

import numpy as np
import pytest

import reslice.planner
from helpers import (ADD, CONCAT, INPUT, MIX, OUTPUT, PASS, add_join_fixture, build_model,
                     duplicate_read_fixture, fan_fixture, per_channel_interior_fixture,
                     ramp_weights, random_dag, read_columns, residual_block_fixture,
                     single_branch_fixture, stacked_joins_fixture)
from reslice.graph import LayerKind, ModelFormatError, ModelGraph, ValidationError, graph_to_dict
from reslice.interp import check_equivalence
from reslice.masks import make_masks, score_channels
from reslice.pipeline import export_model, plan_model
from reslice.path_search import build_reorder_graph, decompose_paths, order_channels
from reslice.planner import (ConsumerAccess, CopyStats, SegmentPlan, apply_plan, copy_report,
                             load_plans, plan_export, plan_export_output, plan_from_dict,
                             plan_to_dict, save_plans)
from reslice.segments import find_segments


def seg(graph, producers):
    for s in find_segments(graph):
        if set(s.producers) == set(producers):
            return s
    raise AssertionError(f"no segment with producers {producers}")


def access(plan, consumer):
    return next(a for a in plan.consumers if a.consumer == consumer)


def planned(graph, masks, strategy, producers=("A",)):
    """The plan ``plan_model`` makes under ``strategy`` for the segment of
    ``producers``."""
    plans, _ = plan_model(graph, masks, strategy=strategy)
    return next(p for p in plans if set(p.producers) == set(producers))


# --------------------------------------------------------------------------
# reordered export
# --------------------------------------------------------------------------

def test_reordered_fan_accesses():
    # three consumers on one 4-channel producer; the interleaving order
    # keeps two of them contiguous and leaves the third paying a gather
    graph, _ = fan_fixture(4, ("B", "C", "D"))
    s = seg(graph, {"A"})
    masks = {"B": (0, 2, 3), "C": (1, 2, 3), "D": (0, 3)}
    plan = plan_export(graph, s, (0, 2, 3, 1), masks)

    assert plan.mode == "input"
    assert plan.strategy == "reorder"
    assert plan.producer_orders["A"] == (0, 2, 3, 1)

    b = access(plan, "B")
    assert (b.mode, b.start, b.length) == ("slice", 0, 3)
    c = access(plan, "C")
    assert (c.mode, c.start, c.length) == ("slice", 1, 3)
    d = access(plan, "D")
    assert (d.mode, d.columns) == ("gather", (0, 3))
    assert read_columns(graph, plan) == {"B": (0, 2, 3), "C": (2, 3, 1), "D": (0, 3)}
    assert plan.stats == CopyStats(8, 2)


def test_reversed_slice_window():
    # two overlapping masks on a 3-channel space; the winning layout puts the
    # shared channel in the middle, so one consumer reads its slice reversed
    graph, _ = fan_fixture(3, ("B", "D"))
    s = seg(graph, {"A"})
    masks = {"B": (0, 2), "D": (1, 2)}
    rg = build_reorder_graph(s, masks)
    order = order_channels(rg, decompose_paths(rg))
    assert order == (0, 2, 1)

    plan = plan_export(graph, s, order, masks)
    b = access(plan, "B")
    assert (b.mode, b.start, b.length) == ("slice", 0, 2)
    d = access(plan, "D")
    assert (d.mode, d.start, d.length) == ("slice", 1, 2)
    assert read_columns(graph, plan) == {"B": (0, 2), "D": (2, 1)}
    assert plan.stats.copied == 0


def test_identity_plan_when_nothing_pruned():
    graph, weights = fan_fixture(4, ("B", "D"))
    s = seg(graph, {"A"})
    plan = plan_export(graph, s, (0, 1, 2, 3), {})
    assert plan.producer_orders["A"] == (0, 1, 2, 3)
    for a in plan.consumers:
        assert (a.mode, a.start, a.length) == ("slice", 0, 4)
    assert plan.stats == CopyStats(8, 0)

    new_graph, new_weights = apply_plan([plan], graph, weights)
    # whole-tensor slices are elided: the model comes back unchanged
    assert [l.id for l in new_graph.layers] == [l.id for l in graph.layers]
    assert sorted(new_graph.edges) == sorted(graph.edges)
    for lid, arr in weights.tensors.items():
        assert np.array_equal(new_weights[lid], arr)


def test_order_must_cover_retained():
    graph, _ = fan_fixture(4, ("B", "D"))
    s = seg(graph, {"A"})
    masks = {"B": (0, 1), "D": (2, 3)}
    with pytest.raises(ValidationError):
        plan_export(graph, s, (0, 1, 2), masks)


def test_locked_segment_forces_gathers():
    # the model input cannot be permuted: identity layout, pruned readers gather
    graph, _ = single_branch_fixture()
    s = seg(graph, {"in"})
    assert s.lock_reason == "a producer is the model input"
    plan = plan_export(graph, s, None, {"A": (0, 2)})
    assert plan.producer_orders["in"] == (0, 1, 2, 3)
    a = access(plan, "A")
    assert (a.mode, a.columns) == ("gather", (0, 2))
    assert plan.stats == CopyStats(2, 2)
    new_graph, _ = apply_plan([plan], graph, ramp_weights(graph))
    assert new_graph.layer("A.read").params == (0, 2)


@pytest.mark.parametrize("strategy", ["reorder", "baseline", "constrained"])
def test_locked_segment_takes_no_order(strategy):
    # the pipeline gives a locked segment no order; one given anyway is an error
    graph, _ = single_branch_fixture()
    s = seg(graph, {"in"})
    with pytest.raises(ValidationError, match="an order is given for a locked segment"):
        plan_export(graph, s, (0, 1, 2, 3), {"A": (0, 2)}, strategy)


@pytest.mark.parametrize("strategy", ["reorder", "baseline", "constrained"])
def test_ill_formed_segment_keeps_its_layout(strategy):
    # the concat reader X sees every channel twice; like any locked segment
    # the segment takes no order, and X gathers
    graph, weights = duplicate_read_fixture()
    masks = {"X": (0, 2)}
    plan = planned(graph, masks, strategy, producers=("f", "g"))
    assert plan.strategy == strategy
    assert plan.producer_orders == {"f": (0, 1), "g": (0, 1)}
    if strategy == "constrained":
        assert access(plan, "X").mode == "slice" and plan.zero_columns == {"X": (1, 3)}
    else:
        assert access(plan, "X") == ConsumerAccess("X", "gather", columns=(0, 2))
    new_graph, new_weights = apply_plan([plan], graph, weights)
    assert check_equivalence(graph, weights, masks, new_graph, new_weights).passed


# --------------------------------------------------------------------------
# baseline and constrained export
# --------------------------------------------------------------------------

def test_baseline_divergent_masks_gather():
    graph, _ = fan_fixture(4, ("B", "D"))
    plan = planned(graph, {"B": (0, 1), "D": (1, 2)}, "baseline")
    assert plan.strategy == "baseline"
    assert plan.producer_orders["A"] == (0, 1, 2, 3)
    b = access(plan, "B")
    assert (b.mode, b.columns) == ("gather", (0, 1))
    d = access(plan, "D")
    assert (d.mode, d.columns) == ("gather", (1, 2))
    assert plan.stats == CopyStats(4, 4)
    new_graph, _ = apply_plan([plan], graph, ramp_weights(graph))
    assert new_graph.layer("D.read").params == (1, 2)


def test_baseline_agreeing_masks_drop():
    graph, _ = fan_fixture(4, ("B", "D"))
    plan = planned(graph, {"B": (0, 1), "D": (0, 1)}, "baseline")
    assert plan.producer_orders["A"] == (0, 1)
    for a in plan.consumers:
        assert (a.mode, a.start, a.length) == ("slice", 0, 2)
    assert read_columns(graph, plan) == {"B": (0, 1), "D": (0, 1)}
    assert plan.stats == CopyStats(4, 0)


def test_baseline_single_consumer_drops():
    graph, _ = single_branch_fixture()
    plan = planned(graph, {"B": (1, 3)}, "baseline")
    assert plan.producer_orders["A"] == (1, 3)
    b = access(plan, "B")
    assert (b.mode, b.start, b.length) == ("slice", 0, 2)
    assert read_columns(graph, plan) == {"B": (1, 3)}
    assert plan.stats.copied == 0


def test_reorder_beats_baseline_on_mutual_exclusion():
    # three masks that cannot all be contiguous at once: reordering still
    # saves two consumers while the baseline copies for all three
    graph, _ = fan_fixture(4, ("B", "C", "D"))
    s = seg(graph, {"A"})
    masks = {"B": (0, 2, 3), "C": (1, 2, 3), "D": (0, 1)}
    rg = build_reorder_graph(s, masks)
    order = order_channels(rg, decompose_paths(rg))
    reordered = plan_export(graph, s, order, masks)
    baseline = planned(graph, masks, "baseline")
    assert baseline.stats == CopyStats(8, 8)
    assert reordered.stats == CopyStats(8, 2)
    assert access(reordered, "B").mode == "slice"
    assert access(reordered, "C").mode == "slice"
    assert access(reordered, "D").mode == "gather"


def test_constrained_zeroes_columns():
    graph, weights = fan_fixture(4, ("B", "D"))
    masks = {"B": (0, 1), "D": (1, 2)}
    plan = planned(graph, masks, "constrained")
    assert plan.strategy == "constrained"
    # slot 3 is pruned by everyone and drops; the rest keep their places
    assert plan.producer_orders["A"] == (0, 1, 2)
    assert plan.zero_columns == {"B": (2,), "D": (0,)}
    for a in plan.consumers:
        assert (a.mode, a.start, a.length) == ("slice", 0, 3)
    assert read_columns(graph, plan) == {"B": (0, 1, -1), "D": (-1, 1, 2)}
    assert plan.stats == CopyStats(4, 0)

    new_graph, new_weights = apply_plan([plan], graph, weights)
    report = check_equivalence(graph, weights, masks, new_graph, new_weights, seed=3)
    assert report.passed


def test_apply_refuses_zero_columns_on_a_gathering_consumer():
    # a gather copies every column it reads, so zeroing some would leave it
    # copying more than it reads; the planner never writes such a plan
    graph, weights = fan_fixture(4, ("B", "D"))
    plan = planned(graph, {"B": (0, 1), "D": (1, 2)}, "constrained")
    gather = ConsumerAccess("B", "gather", columns=(0, 1, 2))
    with pytest.raises(ValidationError) as exc:
        dataclasses.replace(plan, consumers=(gather, access(plan, "D")))
    assert exc.value.diagnostics == ["B: a gathering consumer zeroes columns"]


@pytest.mark.parametrize("c_rows", [(1, 0, 2, 3), (0, 1, 2)], ids=["swapped", "shorter"])
def test_apply_refuses_add_operands_in_different_orders(c_rows):
    # A and C are summed by the add j, so they form one band: channel i of
    # A meets channel i of C. Rows of C in another order than A's would sum
    # filters that do not belong together.
    graph, weights = add_join_fixture()
    plan = SegmentPlan("A", "input", "reorder", ("A", "C"), ("j",),
                       {"A": (1, 0, 2, 3), "C": (1, 0, 2, 3)},
                       (ConsumerAccess("B", "slice", length=4),), {}, (), None)
    new_graph, new_weights = apply_plan([plan], graph, weights)
    assert check_equivalence(graph, weights, {}, new_graph, new_weights).passed
    bad = dataclasses.replace(plan, producer_orders={"A": (0, 1, 2, 3), "C": c_rows})
    with pytest.raises(ValidationError) as exc:
        apply_plan([bad], graph, weights)
    assert exc.value.diagnostics == ["j: summed operands take different channel orders"]


@pytest.mark.parametrize("kind, params", [(LayerKind.SLICE, (1, 2)), (LayerKind.GATHER, (3, 0))])
def test_apply_refuses_moving_a_producer_above_an_interior_selection(kind, params):
    # s picks A's channels by position, so the segment keeps its layout: a
    # plan that moved A's rows would change what s picks
    graph, weights = build_model(
        [("in", INPUT, 4, 4), ("A", MIX, 4, 4), ("s", kind, 4, 2, params),
         ("B", MIX, 2, 2), ("out", OUTPUT, 2, 2)],
        [("in", "A"), ("A", "s"), ("s", "B"), ("B", "out")])
    (plan,), _ = plan_model(graph, {"B": (1,)})
    assert plan.producer_orders == {"A": (0, 1, 2, 3)}
    new_graph, new_weights = apply_plan([plan], graph, weights)
    assert check_equivalence(graph, weights, {"B": (1,)}, new_graph, new_weights).passed
    moved = dataclasses.replace(plan, producer_orders={"A": (1, 0, 2, 3)})
    with pytest.raises(ValidationError) as exc:
        apply_plan([moved], graph, weights)
    assert exc.value.diagnostics == [
        "s: selects channels by position, but a producer upstream of it moves"]


def test_constrained_keeps_a_channel_read_twice_in_place():
    # B reads A's two channels twice through a concat, so the layout stays
    # fixed: every column keeps its place and only the pruned one is zeroed
    graph, weights = build_model(
        [("in", INPUT, 2, 2), ("A", MIX, 2, 2), ("j", CONCAT, 4, 4),
         ("B", MIX, 4, 2), ("out", OUTPUT, 2, 2)],
        [("in", "A"), ("A", "j"), ("A", "j"), ("j", "B"), ("B", "out")])
    masks = {"B": (0, 1, 3)}
    plan = planned(graph, masks, "constrained")
    assert plan.producer_orders == {"A": (0, 1)}
    assert access(plan, "B") == ConsumerAccess("B", "slice", start=0, length=4)
    assert read_columns(graph, plan) == {"B": (0, 1, -1, 3)}
    assert plan.zero_columns == {"B": (2,)}
    assert plan.stats == CopyStats(3, 0)

    result = export_model(graph, weights, masks, strategy="constrained")
    report = check_equivalence(graph, weights, masks, result.graph, result.weights, seed=3)
    assert report.passed, report.max_deviation


# --------------------------------------------------------------------------
# applying plans
# --------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["reorder", "baseline", "constrained"])
def test_input_planners_reject_an_empty_consumer_mask(strategy):
    # ``plan_model`` refuses an empty mask first; the planner checks it too
    graph, _ = fan_fixture(4, ("B", "D"))
    order = None if strategy == "baseline" else (0, 1, 2, 3)
    with pytest.raises(ValidationError, match="B: mask keeps no channel"):
        plan_export(graph, seg(graph, {"A"}), order, {"B": (), "D": (0, 1)}, strategy)


def test_apply_reorders_weights_and_inserts_reads():
    graph, weights = fan_fixture(4, ("B", "C", "D"))
    s = seg(graph, {"A"})
    masks = {"B": (0, 2, 3), "C": (1, 2, 3), "D": (0, 3)}
    plan = plan_export(graph, s, (0, 2, 3, 1), masks)
    new_graph, new_weights = apply_plan([plan], graph, weights)

    assert np.array_equal(new_weights["A"], weights["A"][[0, 2, 3, 1], :])
    assert np.array_equal(new_weights["B"], weights["B"][:, [0, 2, 3]])
    assert np.array_equal(new_weights["C"], weights["C"][:, [2, 3, 1]])
    assert np.array_equal(new_weights["D"], weights["D"][:, [0, 3]])

    reads = {l.id: l for l in new_graph.layers if l.id.endswith(".read")}
    assert reads["B.read"].kind is LayerKind.SLICE
    assert reads["B.read"].params == (0, 3)
    assert reads["C.read"].params == (1, 3)
    assert reads["D.read"].kind is LayerKind.GATHER
    assert reads["D.read"].params == (0, 2)
    # each read node takes its consumer's edge in place; its own input edge
    # and the node itself go at the end, in consumer order
    assert [l.id for l in new_graph.layers] == [
        "in", "A", "r", "B", "C", "D", "j", "out", "B.read", "C.read", "D.read"]
    assert new_graph.edges == (
        ("in", "A"), ("A", "r"), ("B.read", "B"), ("C.read", "C"), ("D.read", "D"),
        ("B", "j"), ("C", "j"), ("D", "j"), ("j", "out"),
        ("r", "B.read"), ("r", "C.read"), ("r", "D.read"))

    report = check_equivalence(graph, weights, masks, new_graph, new_weights, seed=7)
    assert report.passed


def test_apply_is_pure():
    graph, weights = fan_fixture(4, ("B", "D"))
    before = {lid: arr.copy() for lid, arr in weights.tensors.items()}
    layers_before = list(graph.layers)
    edges_before = list(graph.edges)
    s = seg(graph, {"A"})
    reordered = plan_export(graph, s, (2, 0, 3, 1), {"B": (0, 2), "D": (1, 3)})
    # every slot is retained by someone, so the constrained consumers keep
    # their column order and their pruned columns are zeroed in place
    constrained = plan_export(graph, s, (0, 1, 2, 3), {"B": (0, 1, 2), "D": (1, 2, 3)},
                              "constrained")
    assert read_columns(graph, constrained) == {"B": (0, 1, 2, -1), "D": (-1, 1, 2, 3)}
    assert constrained.zero_columns == {"B": (3,), "D": (0,)}
    for plan in (reordered, constrained):
        _, out = apply_plan([plan], graph, weights)
        assert list(graph.layers) == layers_before
        assert list(graph.edges) == edges_before
        for lid, arr in before.items():
            assert np.array_equal(weights[lid], arr)
    assert not out["B"][:, 3].any() and not out["D"][:, 0].any()


def apply_one_at_a_time(plans, graph, weights):
    for plan in plans:
        graph, weights = apply_plan([plan], graph, weights)
    return graph, weights


@pytest.mark.parametrize("mode,strategy", [
    ("input", "reorder"), ("input", "baseline"), ("input", "constrained"),
    ("output", "reorder"), ("output", "baseline")])
def test_one_pass_apply_matches_plan_by_plan(mode, strategy):
    multi = 0
    for seed in range(40):
        graph, weights = random_dag(seed, bias_free=mode == "output")
        scores = score_channels(graph, weights.tensors, "l2", side=mode)
        masks = make_masks(graph, scores, 0.4, "unconstrained", side=mode)
        plans, _ = plan_model(graph, masks, mode, strategy)
        multi += len(plans) > 1
        one_graph, one_weights = apply_plan(plans, graph, weights)
        ref_graph, ref_weights = apply_one_at_a_time(plans, graph, weights)
        assert graph_to_dict(one_graph) == graph_to_dict(ref_graph), seed
        assert list(one_weights.tensors) == list(ref_weights.tensors), seed
        for lid, arr in ref_weights.tensors.items():
            assert np.array_equal(one_weights[lid], arr), (seed, lid)
    assert multi >= 10


def test_one_pass_apply_frees_removed_join_ids():
    # the first segment's join is named like the shared-run add the second
    # segment's rewrite creates; once removed, its id is free again
    graph, weights = build_model(
        [("in", INPUT, 4, 4), ("A", MIX, 4, 4), ("C", MIX, 4, 4),
         ("j.run1", ADD, 4, 4), ("r1", PASS, 4, 4), ("B", MIX, 4, 4),
         ("D", MIX, 4, 4), ("j", ADD, 4, 4), ("r2", PASS, 4, 4),
         ("E", MIX, 4, 2), ("out", OUTPUT, 2, 2)],
        [("in", "A"), ("in", "C"), ("A", "j.run1"), ("C", "j.run1"),
         ("j.run1", "r1"), ("r1", "B"), ("r1", "D"), ("B", "j"), ("D", "j"),
         ("j", "r2"), ("r2", "E"), ("E", "out")])
    masks = {"A": (0, 2, 3), "C": (0, 1, 3), "B": (0, 2, 3), "D": (0, 1, 3)}
    plans, _ = plan_model(graph, masks, "output")
    assert [p.segment for p in plans] == ["A", "B"]
    one_graph, _ = apply_plan(plans, graph, weights)
    ref_graph, _ = apply_one_at_a_time(plans, graph, weights)
    assert graph_to_dict(one_graph) == graph_to_dict(ref_graph)
    assert one_graph.predecessors("j.run1") == ("j.run1.B", "j.run1.D")


def chain_model(blocks, width=8):
    rows = [("in", INPUT, width, width)]
    edges = []
    cur = "in"
    for i in range(blocks):
        rows += [(f"m{i}", MIX, width, width), (f"r{i}", PASS, width, width)]
        edges += [(cur, f"m{i}"), (f"m{i}", f"r{i}")]
        cur = f"r{i}"
    rows.append(("out", OUTPUT, width, width))
    edges.append((cur, "out"))
    return build_model(rows, edges)


def test_export_validates_once_whatever_the_depth(monkeypatch):
    calls = {"validate": 0, "graphs": 0}
    real_validate, real_init = reslice.planner.validate, ModelGraph.__init__

    def counting_validate(*args, **kwargs):
        calls["validate"] += 1
        return real_validate(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["graphs"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(reslice.planner, "validate", counting_validate)
    monkeypatch.setattr(ModelGraph, "__init__", counting_init)
    graphs_built = []
    for blocks in (50, 100):
        graph, weights = chain_model(blocks)
        # every mix but the first (it reads the model input) keeps 5 of 8
        masks = {f"m{i}": (0, 2, 3, 5, 7) for i in range(1, blocks)}
        calls.update(validate=0, graphs=0)
        result = export_model(graph, weights, masks)
        assert len(result.plans) == blocks - 1
        assert calls["validate"] == 1
        graphs_built.append(calls["graphs"])
    assert graphs_built[0] == graphs_built[1]


# --------------------------------------------------------------------------
# output-side pruning
# --------------------------------------------------------------------------

def test_output_reorder_rewrites_residual_join():
    # A drops filter 1, C drops filter 2. The consecutive-ones layout of
    # {0, 2, 3} and {0, 1, 3} turned so its first part starts lowest:
    # unique-C channel 1, the shared run 0, 3, then unique-A channel 2; the
    # add is rebuilt run by run
    graph, weights = residual_block_fixture()
    masks = {"A": (0, 2, 3), "C": (0, 1, 3)}
    [plan], _ = plan_model(graph, masks, mode="output")

    assert plan.mode == "output"
    assert plan.producer_orders == {"A": (0, 3, 2), "C": (1, 0, 3)}
    assert plan.stats == CopyStats(6, 0)

    assert plan.join.runs == ({"C": (0, 1)}, {"A": (0, 2), "C": (1, 2)}, {"A": (2, 1)})
    for c in ("B", "D"):
        a = access(plan, c)
        assert (a.mode, a.start, a.length) == ("slice", 0, 4)
    assert read_columns(graph, plan) == {"B": (1, 0, 3, 2), "D": (1, 0, 3, 2)}

    new_graph, new_weights = apply_plan([plan], graph, weights)
    assert [l.id for l in new_graph.layers] == [
        "in", "A", "C", "r", "B", "D", "j2", "out",
        "j.run0.C", "j.run1.A", "j.run1.C", "j.run1", "j.run2.A", "j.joined"]
    assert new_graph.edges == (
        ("in", "A"), ("in", "C"), ("j.joined", "r"), ("r", "B"), ("r", "D"),
        ("B", "j2"), ("D", "j2"), ("j2", "out"),
        ("C", "j.run0.C"), ("A", "j.run1.A"), ("C", "j.run1.C"),
        ("j.run1.A", "j.run1"), ("j.run1.C", "j.run1"), ("A", "j.run2.A"),
        ("j.run0.C", "j.joined"), ("j.run1", "j.joined"), ("j.run2.A", "j.joined"))
    report = check_equivalence(graph, weights, masks, new_graph, new_weights,
                               seed=11, mask_side="output")
    assert report.passed


def test_an_output_mode_plan_that_gathers_is_refused_where_it_is_built():
    # consumer B's slice turned into a gather would apply and pass the
    # equivalence check, yet copy_report would read copied=0: the copy
    # count of an output-mode plan reads its producers only
    graph, _ = residual_block_fixture()
    [plan], _ = plan_model(graph, {"A": (0, 2, 3), "C": (0, 1, 3)}, mode="output")
    gather = ConsumerAccess("B", "gather", columns=(0, 1, 2, 3))
    with pytest.raises(ValidationError) as exc:
        dataclasses.replace(plan, consumers=(gather, access(plan, "D")))
    assert exc.value.diagnostics == ["an output-mode plan gathers or zeroes columns"]
    with pytest.raises(ValidationError) as exc:
        dataclasses.replace(plan, mode="input", strategy="reorder")
    assert exc.value.diagnostics == ["an input-mode plan restores a width or rebuilds a join"]


@pytest.mark.parametrize("order", [(1, 0, 3, 3, 2), (1, 0, 3), (1, 0, 3, 2, 2), (0, 1, 2, 3, 4)],
                         ids=["twice", "missing", "twice_in_full", "extra"])
def test_output_order_must_list_each_kept_channel_once(order):
    graph, _ = residual_block_fixture()
    masks = {"A": (0, 2, 3), "C": (0, 1, 3)}
    with pytest.raises(ValidationError) as exc:
        plan_export_output(graph, seg(graph, {"A", "C"}), order, masks)
    assert exc.value.diagnostics == ["A: order does not list each kept channel once"]


def test_output_identity_masks_keep_join():
    graph, weights = residual_block_fixture()
    s = seg(graph, {"A", "C"})
    masks = {"A": (0, 2, 3), "C": (0, 2, 3)}
    plan = plan_export_output(graph, s, (0, 2, 3), masks)
    assert plan.producer_orders == {"A": (0, 2, 3), "C": (0, 2, 3)}
    assert plan.join.runs == ({"A": (0, 3), "C": (0, 3)},)
    assert plan.stats.copied == 0

    # the one run sums both whole operands, so the add itself stays
    new_graph, new_weights = apply_plan([plan], graph, weights)
    assert new_graph.layer("j").out_channels == 3
    assert len(new_graph.layers) == len(graph.layers)
    report = check_equivalence(graph, weights, masks, new_graph, new_weights,
                               seed=13, mask_side="output")
    assert report.passed


def test_output_baseline_infill():
    graph, weights = single_branch_fixture()
    s = seg(graph, {"A"})
    plan = plan_export_output(graph, s, None, {"A": (0, 2, 3)})
    assert plan.strategy == "baseline"
    assert plan.producer_orders["A"] == (0, 2, 3)
    assert plan.infill == ("A",)
    assert plan.consumers == ()
    assert plan.stats == CopyStats(3, 3)

    new_graph, new_weights = apply_plan([plan], graph, weights)
    restore = new_graph.layer("A.restore")
    assert restore.kind is LayerKind.GATHER
    assert restore.params == (0, -1, 1, 2)
    report = check_equivalence(graph, weights, {"A": (0, 2, 3)}, new_graph,
                               new_weights, seed=17, mask_side="output")
    assert report.passed


@pytest.mark.parametrize("planner, masks, message", [
    (lambda g, s, m: plan_export(g, s, (0, 1, 2, 3), m), {"B": ()},
     "B: mask keeps no channel"),
    (lambda g, s, m: plan_export_output(g, s, (0, 1, 2, 3), m), {"A": ()},
     "A: output mask keeps no channel"),
    (lambda g, s, m: plan_export_output(g, s, None, m), {"A": ()},
     "A: output mask keeps no channel"),
], ids=["plan_export", "plan_export_output", "plan_output_baseline"])
def test_every_planner_refuses_an_empty_mask(planner, masks, message):
    # a mask keeps at least one channel; no planner keeps a stand-in filter
    graph, _ = single_branch_fixture()
    with pytest.raises(ValidationError) as exc:
        planner(graph, seg(graph, {"A"}), masks)
    assert exc.value.diagnostics == [message]


@pytest.mark.parametrize("model, reason", [
    (per_channel_interior_fixture, "per-channel layer p inside an output-pruned segment"),
    (stacked_joins_fixture, "more than one join between producers"),
], ids=["per-channel-interior", "stacked-joins"])
def test_output_segment_it_cannot_rewrite_gets_the_baseline_infill(model, reason):
    # the segment is not locked, but output mode cannot rewrite it: reorder
    # gives it no order, so it gets the baseline infill, and an order given
    # to the planner is refused
    graph, weights = model()
    s = next(s for s in find_segments(graph) if "A" in s.producers)
    masks = {"A": (0, 2)}
    assert s.lock_reason is None and s.output_lock_reason.startswith(reason)
    assert s.join is None and s.join_operands == {}
    (plan,), fallbacks = plan_model(graph, masks, "output", "reorder")
    assert fallbacks == ["A"]
    assert plan == plan_export_output(graph, s, None, masks)
    with pytest.raises(ValidationError) as exc:
        plan_export_output(graph, s, (0, 2), masks)
    assert exc.value.diagnostics == [f"A: an order is given for an output-locked segment "
                                     f"({s.output_lock_reason})"]
    assert plan.strategy == "baseline" and plan.infill == ("A",)
    new_graph, new_weights = apply_plan([plan], graph, weights)
    assert new_graph.layer("A.restore").params == (0, -1, 1, -1)[:graph.layer("A").out_channels]
    assert check_equivalence(graph, weights, masks, new_graph, new_weights,
                             mask_side="output").passed


def test_output_locked_segment():
    graph, _ = single_branch_fixture()
    s = seg(graph, {"in"})
    # the model input cannot drop channels: with no order the layout stays,
    # and an order is refused as plan_export refuses one
    assert s.output_lock_reason == s.lock_reason == "a producer is the model input"
    plan = plan_export_output(graph, s, None, {"in": (0, 1)})
    assert plan.strategy == "baseline" and plan.infill == ("in",)
    with pytest.raises(ValidationError) as exc:
        plan_export_output(graph, s, (0, 1), {"in": (0, 1)})
    assert exc.value.diagnostics == ["in: an order is given for an output-locked segment "
                                     "(a producer is the model input)"]


# --------------------------------------------------------------------------
# stats and plan files
# --------------------------------------------------------------------------

def test_copy_stats_bounds():
    with pytest.raises(ValidationError):
        CopyStats(2, 3)
    with pytest.raises(ValidationError):
        CopyStats(2, -1)
    with pytest.raises(ValidationError):
        CopyStats(-1, 0)
    assert CopyStats(0, 0).copied_fraction == 0.0
    assert CopyStats(8, 2).copied_fraction == 0.25


def test_copy_report_sums():
    graph, _ = fan_fixture(4, ("B", "C", "D"))
    s = seg(graph, {"A"})
    masks = {"B": (0, 2, 3), "C": (1, 2, 3), "D": (0, 3)}
    a = plan_export(graph, s, (0, 2, 3, 1), masks)
    b = planned(graph, masks, "baseline")
    totals = copy_report([a, b])
    assert totals.total_reads == a.stats.total_reads + b.stats.total_reads
    assert totals.copied == a.stats.copied + b.stats.copied


def sample_plans():
    graph, _ = residual_block_fixture()
    out = [plan_export_output(graph, seg(graph, {"A", "C"}), (1, 0, 3, 2),
                              {"A": (0, 2, 3), "C": (0, 1, 3)})]
    fan, _ = fan_fixture(4, ("B", "C", "D"))
    s = seg(fan, {"A"})
    masks = {"B": (0, 2, 3), "C": (1, 2, 3), "D": (0, 3)}
    out.append(plan_export(fan, s, (0, 2, 3, 1), masks))
    out.append(planned(fan, masks, "constrained"))
    return out


def test_plan_file_round_trip(tmp_path):
    # the sample plans come from two models and all plan a segment "A", so
    # each goes to a file of its own; the plans of one export share a file
    graph, weights = random_dag(1)
    files = [[plan] for plan in sample_plans()]
    for mode in ("input", "output"):
        masks = make_masks(graph, score_channels(graph, weights, "l2", side=mode), 0.5,
                           "unconstrained", side=mode)
        files.append(list(export_model(graph, weights, masks, mode=mode).plans))
    assert [len(plans) for plans in files] == [1, 1, 1, 3, 2]
    for i, plans in enumerate(files):
        path = tmp_path / f"plans{i}.json"
        save_plans(plans, path)
        loaded = load_plans(path)
        assert sorted(loaded, key=lambda p: p.segment) == \
            sorted(plans, key=lambda p: p.segment)

        again = tmp_path / f"again{i}.json"
        save_plans(loaded, again)
        assert path.read_bytes() == again.read_bytes()
    save_plans(sample_plans(), tmp_path / "mixed.json")
    with pytest.raises(ModelFormatError, match="two records share segment 'A'"):
        load_plans(tmp_path / "mixed.json")


def test_plan_dict_round_trip():
    for plan in sample_plans():
        assert plan_from_dict(plan_to_dict(plan)) == plan


def test_plan_file_rejects_bad_input(tmp_path):
    plans = sample_plans()
    path = tmp_path / "plans.json"
    save_plans(plans, path)
    obj = json.loads(path.read_text())
    obj["version"] = 9
    (tmp_path / "v9.json").write_text(json.dumps(obj))
    with pytest.raises(ModelFormatError):
        load_plans(tmp_path / "v9.json")
    (tmp_path / "broken.json").write_text('{"version": 1, "segments": [{"mode": "x"}]}')
    with pytest.raises(ModelFormatError):
        load_plans(tmp_path / "broken.json")
    # a mode or strategy outside the known names
    record = obj["segments"][0]
    for key, value in (("mode", 5), ("mode", "sideways"), ("strategy", ["x"]),
                       ("strategy", "magic")):
        with pytest.raises(ModelFormatError):
            plan_from_dict({**record, key: value})
