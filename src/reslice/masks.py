"""Weight-magnitude channel masks.

Scores rank channels per layer; masks prune the globally lowest-scored
fraction of (layer, channel) pairs. Unconstrained masks are independent per
consumer. Constrained masks prune whole shared slots so every reader of a
channel agrees, which keeps even the baseline exporter copy-free. They prune
no slot of a locked segment, whose layout export keeps: its readers keep
every column.
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


def _targets(graph: ModelGraph, scores: ChannelScore, side: str) -> list[str]:
    if side == MODE_OUTPUT:
        # skip the producers of segments whose filters output mode cannot drop
        skip = {p for seg in find_segments(graph) if seg.output_lock_reason
                for p in seg.producers}
        return [lid for lid in sorted(scores) if lid not in skip]
    return sorted(scores)


def _prune_greedy(pairs: list[tuple[float, str, int]], budget: int,
                  width: Mapping[str, int]) -> dict[str, set[int]]:
    # Ascending score order; never empty a layer completely.
    pruned: dict[str, set[int]] = {}
    for _score, lid, ch in sorted(pairs):
        if budget <= 0:
            break
        if len(pruned.get(lid, ())) >= width[lid] - 1:
            continue
        pruned.setdefault(lid, set()).add(ch)
        budget -= 1
    return pruned


def _unconstrained(scores: ChannelScore, targets: list[str], sparsity: float,
                   scope: str) -> ChannelMask:
    width = {lid: len(scores[lid]) for lid in targets}
    if scope == SCOPE_PER_LAYER:
        pruned: dict[str, set[int]] = {}
        for lid in targets:
            per = [(float(scores[lid][ch]), lid, ch) for ch in range(width[lid])]
            pruned.update(_prune_greedy(per, floor(sparsity * width[lid]), width))
    else:
        pairs = [(float(scores[lid][ch]), lid, ch)
                 for lid in targets for ch in range(width[lid])]
        pruned = _prune_greedy(pairs, floor(sparsity * len(pairs)), width)
    return {lid: tuple(ch for ch in range(width[lid]) if ch not in pruned.get(lid, ()))
            for lid in targets}


def _constrained(scores: ChannelScore, segments: list[Segment],
                 sparsity: float) -> ChannelMask:
    # Shared slots are scored by summing every reader's score for the slot,
    # then pruned greedily (cheapest slot first) toward the global pair
    # budget. A slot is kept if dropping it would empty any reader's mask or
    # any producer band. A locked segment keeps its layout, so its readers
    # keep every column, though their pairs still count toward the budget.
    readers: dict[tuple[str, int], list[tuple[str, int]]] = {}
    # bands of two segments may cover the same slot indices, so a band's
    # budget is keyed by its segment too
    slot_band: dict[tuple[str, int], tuple[str, tuple[int, ...]]] = {}
    band_left: dict[tuple[str, tuple[int, ...]], int] = {}
    for seg in segments:
        if seg.lock_reason:
            continue
        for c in seg.consumers:
            if c not in scores:
                continue
            for local, slot in enumerate(seg.consumer_slots[c]):
                readers.setdefault((seg.id, slot), []).append((c, local))
        for band in seg.bands:
            band_left[(seg.id, band.slots)] = len(band.slots)
            for slot in band.slots:
                slot_band[(seg.id, slot)] = (seg.id, band.slots)

    total = sum(len(scores[c]) for seg in segments for c in seg.consumers if c in scores)
    budget = floor(sparsity * total)
    ranked = sorted((sum(float(scores[c][local]) for c, local in pair_list), seg_id, slot)
                    for (seg_id, slot), pair_list in readers.items())

    left = {c: len(scores[c]) for seg in segments for c in seg.consumers if c in scores}
    pruned: dict[str, set[int]] = {}
    for _, seg_id, slot in ranked:
        pair_list = readers[(seg_id, slot)]
        band = slot_band[(seg_id, slot)]
        if len(pair_list) > budget:
            continue
        if band_left[band] <= 1 or any(left[c] <= 1 for c, _ in pair_list):
            continue
        for c, local in pair_list:
            pruned.setdefault(c, set()).add(local)
            left[c] -= 1
        band_left[band] -= 1
        budget -= len(pair_list)
    return {c: tuple(ch for ch in range(len(scores[c])) if ch not in pruned.get(c, ()))
            for seg in segments for c in seg.consumers if c in scores}


def make_masks(graph: ModelGraph, scores: ChannelScore, sparsity: float,
               mode: str, side: str = MODE_INPUT,
               scope: str = SCOPE_GLOBAL) -> ChannelMask:
    """Retained-channel masks pruning roughly ``sparsity`` of scored pairs.

    Every mask keeps at least one channel. Constrained masks prune whole
    slots of the graph's segments (``find_segments``), found here, but none
    of a locked one, whose readers count toward ``sparsity`` all the same.
    Output-side masks silently skip the producers of every segment whose
    filters output mode cannot drop (``Segment.output_lock_reason``: locked
    layouts, stacked joins, per-channel offsets, a producer feeding the
    join twice), so no pruned producer is left to the baseline infill's gather.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValidationError([f"sparsity must be in [0, 1), got {sparsity}"])
    if mode not in (MODE_UNCONSTRAINED, MODE_CONSTRAINED):
        raise ValidationError([f"unknown mask mode {mode!r}"])
    if side not in MODES:
        raise ValidationError([f"unknown side {side!r}"])
    if scope not in (SCOPE_GLOBAL, SCOPE_PER_LAYER):
        raise ValidationError([f"unknown scope {scope!r}"])
    if mode == MODE_CONSTRAINED:
        if side != MODE_INPUT:
            raise ValidationError(["constrained masks are defined for the input side only"])
        return _constrained(scores, find_segments(graph), sparsity)
    return _unconstrained(scores, _targets(graph, scores, side), sparsity, scope)


def achieved_sparsity(scores: ChannelScore, masks: ChannelMask) -> float:
    """Fraction of scored (layer, channel) pairs actually pruned."""
    total = sum(len(v) for v in scores.values())
    kept = sum(len(masks.get(lid, range(len(v)))) for lid, v in scores.items())
    return (total - kept) / total if total else 0.0
