#!/usr/bin/env python3
"""Walk one residual block through the whole export, stage by stage.

Two branches A and C are summed, and three consumers B, D and E read the
sum with different pruning masks. Dropping channels naively would force
every consumer to gather. Each pair of masks shares a channel, so no
order of the shared space makes all three contiguous; reordering it lets
two of them read slices, and only the third gathers.
"""

import numpy as np

from reslice.graph import Layer, LayerKind, ModelGraph, WeightStore
from reslice.interp import check_equivalence
from reslice.ordering import find_zero_copy_order, largest_c1p_order
from reslice.pipeline import export_model
from reslice.segments import find_segments, resolve_masks

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
        Layer("E", K.CHANNEL_MIX, width, 2),
        Layer("j2", K.ADD, 2, 2),
        Layer("out", K.OUTPUT, 2, 2),
    ]
    edges = [("in", "A"), ("in", "C"), ("A", "j"), ("C", "j"), ("j", "r"),
             ("r", "B"), ("r", "D"), ("r", "E"),
             ("B", "j2"), ("D", "j2"), ("E", "j2"), ("j2", "out")]
    weights = WeightStore({
        l.id: rng.standard_normal((l.out_channels, l.in_channels))
        for l in layers if l.kind is K.CHANNEL_MIX})
    return ModelGraph(layers, edges), weights


def main():
    graph, weights = residual_block()
    masks = {"B": (0, 2), "D": (1, 2), "E": (0, 1)}
    print("masks (retained input channels):", masks)

    print("\n1. segments")
    segments = find_segments(graph)
    for s in segments:
        print(f"   producers={s.producers} interior={s.interior} "
              f"consumers={s.consumers}")
    block = next(s for s in segments if set(s.producers) == {"A", "C"})

    print("\n2. copy-free layout (consecutive-ones test per band)")
    retained = resolve_masks(block, masks, "input").slots
    found = find_zero_copy_order(block, retained, block.band_reads)
    print(f"   order {found}" if found is not None else
          "   none: no order makes every consumer's channels contiguous")

    print("\n3. largest subset of consumers that can all slice (export runs this")
    print("   only when step 2 finds no layout)")
    ranked = sorted(retained, key=lambda c: (-len(retained[c]), c))
    print("   candidates by retained size, then name:",
          ", ".join(f"{c} {sorted(retained[c])}" for c in ranked))
    order, chosen = largest_c1p_order(block, retained, block.band_reads)
    print(f"   chosen {chosen}; the others gather")
    print(f"   order {order} (slots no consumer retains are dropped)")

    print("\n4. export")
    result = export_model(graph, weights, masks)
    plan = next(p for p in result.plans if p.segment == block.id)
    for prod, rows in sorted(plan.producer_orders.items()):
        print(f"   {prod}: keeps filters {rows} of {graph.layer(prod).out_channels}")
    for a in plan.consumers:
        if a.mode == "slice":
            print(f"   {a.consumer}: slice [{a.start}:{a.start + a.length}]")
        else:
            print(f"   {a.consumer}: gather original columns {a.columns}")
    print(f"   copied channels: {result.totals.copied} of {result.totals.total_reads}")

    print("\n5. numerical check against the masked original")
    report = check_equivalence(graph, weights, masks, result.graph, result.weights)
    print(f"   max deviation {report.max_deviation:.3e} "
          f"(tolerance {report.tol:g}) -> {'OK' if report.passed else 'MISMATCH'}")


if __name__ == "__main__":
    main()
