"""Weight-magnitude channel masks.

Scores rank channels per layer. One rule prunes every mask: groups of
(layer, channel) pairs go whole, cheapest first, while the pair budget
covers the group and pruning it empties no layer and no producer band.
The mask modes differ only in their groups. Unconstrained masks prune each
pair alone, toward one budget over all layers or one per layer.
Constrained masks prune a shared slot's pairs together, so every reader of
a channel agrees, which keeps even the baseline exporter copy-free. They
prune no slot of a locked segment, whose layout export keeps: its readers
keep every column.
"""

from __future__ import annotations

from math import floor
from typing import Mapping

import numpy as np

from reslice.graph import (MODE_INPUT, MODE_OUTPUT, MODES, ChannelMask, LayerKind, ModelGraph,
                           ValidationError)
from reslice.segments import Segment, find_segments

HEURISTICS = ("l1", "l2", "lamp", "random")
MODE_UNCONSTRAINED = "unconstrained"
MODE_CONSTRAINED = "constrained"
SCOPE_GLOBAL = "global"
SCOPE_PER_LAYER = "per-layer"

# Per-layer channel importance, one nonnegative scalar per prunable channel.
ChannelScore = dict[str, np.ndarray]


def _lamp(squared: np.ndarray) -> np.ndarray:
    # Each norm divided by the suffix sum of all norms at or above it
    # (ascending sort, index tiebreak), so duplicates still rank apart.
    order = sorted(range(len(squared)), key=lambda i: (squared[i], i))
    out = np.zeros(len(squared))
    suffix = float(np.sum(squared))
    for i in order:
        out[i] = squared[i] / suffix if suffix > 0 else 0.0
        suffix -= squared[i]
    return out


def score_channels(graph: ModelGraph, weights: Mapping[str, np.ndarray],
                   heuristic: str, side: str = MODE_INPUT, seed: int = 0) -> ChannelScore:
    """Score every channel of every matrix layer.

    Input side scores columns (what the layer reads), output side scores rows
    (what it produces). ``seed`` only affects the random heuristic.
    """
    if heuristic not in HEURISTICS:
        raise ValidationError([f"unknown heuristic {heuristic!r}, expected one of {HEURISTICS}"])
    if side not in MODES:
        raise ValidationError([f"unknown side {side!r}"])
    rng = np.random.default_rng(seed)
    scores: ChannelScore = {}
    for lid in sorted(l.id for l in graph.layers if l.kind is LayerKind.CHANNEL_MIX):
        mat = np.asarray(weights[lid], dtype=np.float64)
        axis = 1 if side == MODE_OUTPUT else 0
        if heuristic == "l1":
            scores[lid] = np.sum(np.abs(mat), axis=axis)
        elif heuristic == "l2":
            scores[lid] = np.sqrt(np.sum(mat * mat, axis=axis))
        elif heuristic == "lamp":
            scores[lid] = _lamp(np.sum(mat * mat, axis=axis))
        else:
            scores[lid] = rng.uniform(size=mat.shape[1 - axis])
    return scores


# A group of (layer, channel) pairs pruned together: its score, its
# tie-break key, its pairs and the producer band it takes a slot of, if any.
Group = tuple[float, tuple, list[tuple[str, int]], tuple | None]


def _prune(groups: list[Group], budget: int, left: dict) -> set[tuple[str, int]]:
    # Cheapest group first, ties broken by key. A group goes whole if the
    # budget covers it and it takes no layer's or band's last channel;
    # ``left`` counts the channels each layer and band still holds.
    pruned: set[tuple[str, int]] = set()
    for _score, _key, pairs, band in sorted(groups):
        holders = [lid for lid, _ in pairs] + ([band] if band else [])
        if len(pairs) > budget or any(left[h] <= 1 for h in holders):
            continue
        for h in holders:
            left[h] -= 1
        pruned.update(pairs)
        budget -= len(pairs)
    return pruned


def _slot_groups(scores: ChannelScore, segments: list[Segment]) -> tuple[list[Group], dict]:
    # One group per shared slot of an unlocked segment, read by every reader
    # of the slot and scored by the sum of their scores, and the slot count
    # of each producer band. Bands of two segments may cover the same slot
    # indices, so a band is keyed by its segment too.
    groups: list[Group] = []
    bands: dict[tuple[str, tuple[int, ...]], int] = {}
    for seg in segments:
        if seg.lock_reason:
            continue
        readers: dict[int, list[tuple[str, int]]] = {}
        for c in seg.consumers:
            for local, slot in enumerate(seg.consumer_slots[c] if c in scores else ()):
                readers.setdefault(slot, []).append((c, local))
        for band in seg.bands:
            bands[(seg.id, band.slots)] = len(band.slots)
            groups += [(sum(float(scores[c][local]) for c, local in readers[slot]),
                        (seg.id, slot), readers[slot], (seg.id, band.slots))
                       for slot in band.slots if slot in readers]
    return groups, bands


def make_masks(graph: ModelGraph, scores: ChannelScore, sparsity: float,
               mode: str, side: str = MODE_INPUT,
               scope: str = SCOPE_GLOBAL) -> ChannelMask:
    """Retained-channel masks pruning roughly ``sparsity`` of scored pairs.

    Every mask keeps at least one channel. Unconstrained masks prune single
    pairs, toward a budget over all layers (global scope) or one per layer
    (per-layer scope). Constrained masks take the global scope only and
    prune whole slots of the graph's segments (``find_segments``), found
    here, but none of a locked one, whose readers count toward ``sparsity``
    all the same. Output-side masks silently skip the producers of every
    segment whose filters output mode cannot drop
    (``Segment.output_lock_reason``: locked layouts, stacked joins,
    per-channel offsets, a producer feeding the join twice), so no pruned
    producer is left to the baseline infill's gather. Each layer's scores
    must number its channels on ``side``, else ValidationError.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValidationError([f"sparsity must be in [0, 1), got {sparsity}"])
    if mode not in (MODE_UNCONSTRAINED, MODE_CONSTRAINED):
        raise ValidationError([f"unknown mask mode {mode!r}"])
    if side not in MODES:
        raise ValidationError([f"unknown side {side!r}"])
    if scope not in (SCOPE_GLOBAL, SCOPE_PER_LAYER):
        raise ValidationError([f"unknown scope {scope!r}"])
    if mode == MODE_CONSTRAINED and side != MODE_INPUT:
        raise ValidationError(["constrained masks are defined for the input side only"])
    if mode == MODE_CONSTRAINED and scope != SCOPE_GLOBAL:
        raise ValidationError(["constrained masks take the global scope only"])
    segments = find_segments(graph) if mode == MODE_CONSTRAINED or side == MODE_OUTPUT else []
    skip = {p for seg in segments if side == MODE_OUTPUT and seg.output_lock_reason
            for p in seg.producers}
    width = {}  # the layers' widths on ``side``, which the scores must match
    for lid in sorted(set(scores) - skip):
        if lid not in graph:
            raise ValidationError([f"scores name unknown layer {lid!r}"])
        layer = graph.layer(lid)
        width[lid] = layer.in_channels if side == MODE_INPUT else layer.out_channels
        if len(scores[lid]) != width[lid]:
            raise ValidationError([f"{lid}: {len(scores[lid])} scores for {width[lid]} "
                                   f"{side}-side channels"])
    left = dict(width)
    pruned: set[tuple[str, int]] = set()
    # one budget over every layer, or one per layer
    for lids in [[lid] for lid in width] if scope == SCOPE_PER_LAYER else [list(width)]:
        if mode == MODE_CONSTRAINED:
            groups, bands = _slot_groups(scores, segments)
            left.update(bands)
        else:
            groups = [(float(scores[lid][ch]), (lid, ch), [(lid, ch)], None)
                      for lid in lids for ch in range(width[lid])]
        pruned |= _prune(groups, floor(sparsity * sum(width[lid] for lid in lids)), left)
    return {lid: tuple(ch for ch in range(n) if (lid, ch) not in pruned)
            for lid, n in width.items()}


def achieved_sparsity(scores: ChannelScore, masks: ChannelMask) -> float:
    """Fraction of scored (layer, channel) pairs actually pruned."""
    total = sum(len(v) for v in scores.values())
    kept = sum(len(masks.get(lid, range(len(v)))) for lid, v in scores.items())
    return (total - kept) / total if total else 0.0
