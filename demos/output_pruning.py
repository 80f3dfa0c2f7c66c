#!/usr/bin/env python3
"""Output-side pruning: producers drop their own filters.

When the branches of a residual add prune different filters, the add no
longer lines up. The exporter orders the kept filters by the same
consecutive-ones rule as input mode and rebuilds the add from runs:
channels unique to one branch, channels both keep (still summed),
channels unique to the other. The baseline alternative keeps the topology
and re-inflates each producer with a zero-filling gather instead.
"""

import numpy as np

from reslice.graph import Layer, LayerKind, ModelGraph, WeightStore
from reslice.interp import check_equivalence
from reslice.pipeline import export_model

K = LayerKind


def residual_block(width=4, seed=0):
    rng = np.random.default_rng(seed)
    layers = [
        Layer("in", K.INPUT, width, width),
        Layer("A", K.CHANNEL_MIX, width, width),
        Layer("C", K.CHANNEL_MIX, width, width),
        Layer("j", K.ADD, width, width),
        Layer("r", K.PASS_THROUGH, width, width),
        Layer("B", K.CHANNEL_MIX, width, 2),
        Layer("D", K.CHANNEL_MIX, width, 2),
        Layer("j2", K.ADD, 2, 2),
        Layer("out", K.OUTPUT, 2, 2),
    ]
    edges = [("in", "A"), ("in", "C"), ("A", "j"), ("C", "j"), ("j", "r"),
             ("r", "B"), ("r", "D"), ("B", "j2"), ("D", "j2"), ("j2", "out")]
    weights = WeightStore({
        l.id: rng.standard_normal((l.out_channels, l.in_channels))
        for l in layers if l.kind is K.CHANNEL_MIX})
    return ModelGraph(layers, edges), weights


def main():
    graph, weights = residual_block()
    masks = {"A": (0, 2, 3), "C": (0, 1, 3)}  # A drops filter 1, C drops 2
    print("output masks (retained filters):", masks)

    print("\nreordered export: the add becomes runs of constant producer sets")
    result = export_model(graph, weights, masks, mode="output")
    plan = next(p for p in result.plans if p.join is not None)
    for prod, rows in sorted(plan.producer_orders.items()):
        print(f"   {prod}: keeps filters {rows}")
    for run in plan.join.runs:
        windows = {p: f"[{s}:{s + n}]" for p, (s, n) in sorted(run.items())}
        print(f"   run {'+'.join(sorted(run)):<4} windows {windows}")
    print(f"   copied: {result.totals.copied}")
    layer_ids = [l.id for l in result.graph.layers]
    print(f"   rebuilt join nodes: {[i for i in layer_ids if i.startswith('j.')]}")
    report = check_equivalence(graph, weights, masks, result.graph,
                               result.weights, mask_side="output")
    print(f"   max deviation {report.max_deviation:.3e} "
          f"-> {'OK' if report.passed else 'MISMATCH'}")

    print("\nbaseline export: drop filters, restore width with a zero-fill gather")
    base = export_model(graph, weights, masks, mode="output", strategy="baseline")
    for plan in base.plans:
        for prod in plan.infill:
            params = base.graph.layer(f"{prod}.restore").params
            print(f"   {prod}: gather params {params} (-1 fills zero)")
    print(f"   copied: {base.totals.copied}")
    report = check_equivalence(graph, weights, masks, base.graph,
                               base.weights, mask_side="output")
    print(f"   max deviation {report.max_deviation:.3e} "
          f"-> {'OK' if report.passed else 'MISMATCH'}")


if __name__ == "__main__":
    main()
