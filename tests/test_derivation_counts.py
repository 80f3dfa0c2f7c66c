"""Each per-segment derivation of an export runs once per segment.

A 100-block chain is exported and the derivations are counted, not timed:
a derivation that comes back a second time would double its count long
before it showed in a timing. Per segment the pipeline walks the graph
once, builds the slot space once (a union-find only where an add join
identifies slots) and resolves the masks once for ordering and planning.
"""

from __future__ import annotations

import pytest

from helpers import ADD, INPUT, MIX, OUTPUT, PASS, ramp_weights
from reslice import Layer, ModelGraph, export_model, find_segments
from reslice import planner, segments
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


def _count(monkeypatch, counts, owner, name, key=None):
    """Count calls of ``owner.name`` in ``counts[key]``, by default
    ``counts["module.name"]``."""
    key = key or f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
    counts[key] = 0
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
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
                         (segments, "propagate_vectors"), (planner, "propagate_vectors"),
                         (planner, "output_refusal")):
        _count(monkeypatch, counts, module, name)
    built = {}
    for cls in (segments.Retained, segments._UnionFind):
        _count(monkeypatch, built, cls, "__init__", cls.__name__)

    result = export_model(graph, weights, masks, mode=mode, strategy=strategy)
    assert len(result.plans) > 40

    assert counts["segments._walk"] == counts["segments._build_segment"] == len(found)
    # one propagation builds each slot space; planning propagates a new
    # layout at most once per plan
    assert counts["segments.propagate_vectors"] == len(found)
    assert counts["planner.propagate_vectors"] <= len(result.plans)
    # output mode asks why it cannot drop filters at most once per plan
    assert counts["planner.output_refusal"] <= (len(result.plans) if mode == "output" else 0)
    assert built["Retained"] == len(found)  # masks resolved once per segment
    assert built["_UnionFind"] == joined  # only where an add join identifies slots
