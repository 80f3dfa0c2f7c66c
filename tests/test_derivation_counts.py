"""Each per-segment derivation of an export runs once per segment.

A 100-block chain is exported and the derivations are counted, not timed:
a derivation that comes back a second time would double its count long
before it showed in a timing. Per segment the pipeline walks the graph
once, builds the slot space once (joining raw ids into classes only where
an add join identifies slots), decides once whether output mode can
rewrite it (tracing its join's operands there and nowhere else) and
resolves the masks once for ordering and planning, which share one
derivation of the retained slot sets. Slot vectors are propagated only to
build the slot space: planning and applying a plan share one walk of old
channel indices, which runs at most once for each.
Output mode orders no segment it cannot rewrite.
"""

from __future__ import annotations

import sys
from functools import cached_property

import pytest

from helpers import (ADD, INPUT, MIX, OUTPUT, PASS, per_channel_interior_fixture, ramp_weights,
                     stacked_joins_fixture)
from reslice import Layer, ModelGraph, export_model, find_segments
from reslice import ordering, pipeline, planner, segments
from reslice.graph import LayerKind
from reslice.masks import make_masks, score_channels

WIDTH = 16


def residual_chain(blocks: int = 100) -> tuple[ModelGraph, dict[str, tuple[int, ...]]]:
    """in -> [mix -> relu] x ``blocks`` -> out, with every tenth block's
    mix summed with its input before the relu. Every mix after the first
    keeps 10 of its 16 input columns, in a pattern that moves per block."""
    layers = [Layer("in", INPUT, WIDTH, WIDTH)]
    edges = []
    masks = {}
    x = "in"
    for i in range(blocks):
        m, r = f"m{i:03d}", f"r{i:03d}"
        layers.append(Layer(m, MIX, WIDTH, WIDTH))
        edges.append((x, m))
        y = m
        if i % 10 == 9:
            y = f"a{i:03d}"
            layers.append(Layer(y, ADD, WIDTH, WIDTH))
            edges += [(m, y), (x, y)]
        layers.append(Layer(r, PASS, WIDTH, WIDTH))
        edges.append((y, r))
        if i:
            masks[m] = tuple(c for c in range(WIDTH) if (7 * c + i) % WIDTH < 10)
        x = r
    layers.append(Layer("out", OUTPUT, WIDTH, WIDTH))
    edges.append((x, "out"))
    return ModelGraph(layers, edges), masks


def _count(monkeypatch, counts, owner, name, key=None, calls=None):
    """Count calls of ``owner.name`` in ``counts[key]``, by default
    ``counts["module.name"]``; append each call's arguments to ``calls``."""
    key = key or f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
    counts[key] = 0
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        if calls is not None:
            calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("mode, strategy", [("input", "reorder"), ("input", "baseline"),
                                            ("input", "constrained"), ("output", "reorder"),
                                            ("output", "baseline")])
def test_export_derives_each_segment_once(monkeypatch, mode, strategy):
    graph, masks = residual_chain()
    weights = ramp_weights(graph)
    if mode == "output":
        masks = make_masks(graph, score_channels(graph, weights, "l2", side="output"), 0.4,
                           "unconstrained", side="output")
    found = find_segments(graph)
    joined = sum(any(graph.layer(u).kind is LayerKind.ADD for u in s.interior) for s in found)
    assert len(found) > 90 and joined == 10

    counts = {}
    for module, name in ((segments, "_walk"), (segments, "_build_segment"),
                         (planner, "_old_channels")):
        _count(monkeypatch, counts, module, name)
    # the module that asks for each output-mode join trace
    callers = []
    output_join = segments._output_join

    def traced(*args):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return output_join(*args)
    monkeypatch.setattr(segments, "_output_join", traced)
    built = {}
    _count(monkeypatch, built, segments.Retained, "__init__", "Retained")
    _count(monkeypatch, counts, segments, "_join_roots")
    # each evaluation of Retained.slots, the retained slot sets
    derive_slots = segments.Retained.slots.func
    evaluated = []

    def slots(retained):
        evaluated.append(retained)
        return derive_slots(retained)
    counted_slots = cached_property(slots)
    counted_slots.__set_name__(segments.Retained, "slots")
    monkeypatch.setattr(segments.Retained, "slots", counted_slots)

    result = export_model(graph, weights, masks, mode=mode, strategy=strategy)
    assert len(result.plans) > 40

    assert counts["segments._walk"] == counts["segments._build_segment"] == len(found)
    # one loop of _build_segment builds each slot space, and nothing else
    # propagates slot vectors; the planner and the applier each walk a plan
    # at most once
    assert not hasattr(segments, "propagate_vectors")
    assert not hasattr(planner, "propagate_vectors")
    assert counts["planner._old_channels"] <= 2 * len(result.plans)
    # the join trace runs at most once per segment, during segmentation,
    # in either mode: the planner reads what the segment records
    assert len(callers) <= len(found) and set(callers) == {"reslice.segments"}
    assert not hasattr(planner, "_trace_join_operands")
    assert built["Retained"] == len(found)  # masks resolved once per segment
    # ordering and planning share one derivation of a plan's slot sets
    assert len(evaluated) <= len(result.plans)
    # raw ids are joined into classes only where an add join identifies slots
    assert counts["segments._join_roots"] == joined


def output_pruned_residual_chain():
    graph, _ = residual_chain(30)
    return graph, ramp_weights(graph)


@pytest.mark.parametrize("model", [per_channel_interior_fixture, stacked_joins_fixture,
                                   output_pruned_residual_chain])
def test_output_reorder_orders_no_output_locked_segment(monkeypatch, model):
    # every channel mix drops its odd filters, so the segments output mode
    # cannot rewrite are planned too; they get the baseline infill without
    # a channel order being computed first
    graph, weights = model()
    masks = {l.id: tuple(range(0, l.out_channels, 2)) for l in graph.layers if l.kind is MIX}
    found = find_segments(graph)
    locked = {s.id for s in found if s.output_lock_reason}

    counts, calls = {}, []
    for name in ("find_zero_copy_order", "largest_c1p_order"):
        _count(monkeypatch, counts, pipeline, name, calls=calls)
    result = export_model(graph, weights, masks, mode="output", strategy="reorder")

    planned = {p.segment for p in result.plans}
    assert planned & locked and set(result.fallbacks) == planned & locked
    ordered = {args[0].id for args in calls}
    assert ordered == planned - locked


def test_one_set_bands_skip_the_overlap_components(monkeypatch):
    # a band holding at most one set is laid out directly; only families of
    # two or more sets (here the bands an add join shares) build overlap
    # components
    graph, masks = residual_chain()
    families = []
    c1p_order = ordering._c1p_order

    def recorded(sets, universe):
        sets = list(sets)
        families.append(set(filter(None, sets)))
        return c1p_order(sets, universe)
    monkeypatch.setattr(ordering, "_c1p_order", recorded)
    counts = {}
    _count(monkeypatch, counts, ordering, "_overlap_components")

    export_model(graph, ramp_weights(graph), masks, mode="input", strategy="reorder")
    one_set = sum(len(family) <= 1 for family in families)
    assert one_set >= 80
    assert 0 < counts["ordering._overlap_components"] == len(families) - one_set
