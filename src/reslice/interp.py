"""Reference interpreter: channel-exact execution and equivalence checking.

Activations are one scalar per channel (batch/spatial dimensions collapsed;
every rewrite in this package acts purely on channel indices, so this is
enough to prove equivalence). A batch of activation vectors runs as the
columns of one matrix. Masks simulate pruning on the original model:
input-side masks zero a consumer's input channels right before its matrix,
output-side masks zero a producer's output channels right after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reslice.graph import (MODE_INPUT, MODE_OUTPUT, MODES, ChannelMask, LayerKind, ModelGraph,
                           ValidationError, WeightStore)

DEFAULT_TOLERANCE = 1e-9
DEFAULT_TRIALS = 8


def _mask_vector(width: int, retained) -> np.ndarray:
    vec = np.zeros(width)
    vec[list(retained)] = 1.0
    return vec


def _single(graph: ModelGraph, kind: LayerKind) -> str:
    ids = [l.id for l in graph.layers if l.kind is kind]
    if len(ids) != 1:
        raise ValidationError(
            [f"interpreter needs exactly one {kind.value} layer, found {len(ids)}"])
    return ids[0]


def run(graph: ModelGraph, weights: WeightStore, input_vector,
        masks: ChannelMask | None = None, mask_side: str = MODE_INPUT) -> np.ndarray:
    """Evaluate the model on one activation vector of shape ``(C,)``, or on
    a batch of them as the columns of a ``(C, T)`` matrix.

    Requires exactly one input and one output layer. ``masks`` simulates
    pruning without changing any shapes, on the ``mask_side`` ("input" or
    "output") of each channel mix it names.
    """
    if mask_side not in MODES:
        raise ValidationError([f"unknown side {mask_side!r}"])
    x_in = np.asarray(input_vector, dtype=np.float64)
    input_id = _single(graph, LayerKind.INPUT)
    output_id = _single(graph, LayerKind.OUTPUT)
    width = graph.layer(input_id).in_channels
    if x_in.ndim not in (1, 2) or x_in.shape[0] != width:
        raise ValidationError([f"input shape {x_in.shape} != ({width},) or ({width}, T)"])
    masks = masks or {}
    # per-channel vectors broadcast over the batch columns
    column = (slice(None),) + (None,) * (x_in.ndim - 1)

    values: dict[str, np.ndarray] = {}
    for lid in graph.topological_order():
        layer = graph.layer(lid)
        ins = [values[p] for p in graph.predecessors(lid)]
        if layer.kind is LayerKind.INPUT:
            out = x_in
        elif layer.kind is LayerKind.CHANNEL_MIX:
            x = ins[0]
            if mask_side == MODE_INPUT and lid in masks:
                x = x * _mask_vector(len(x), masks[lid])[column]
            out = weights[lid] @ x
            if mask_side == MODE_OUTPUT and lid in masks:
                out = out * _mask_vector(len(out), masks[lid])[column]
        elif layer.kind is LayerKind.ADD:
            out = np.sum(ins, axis=0)
        elif layer.kind is LayerKind.CONCAT:
            out = np.concatenate(ins)
        elif layer.kind is LayerKind.PASS_THROUGH:
            out = np.maximum(0.0, ins[0])
        elif layer.kind is LayerKind.PER_CHANNEL:
            out = ins[0] + weights[lid][column]
        elif layer.kind is LayerKind.SLICE:
            start, length = layer.params
            out = ins[0][start:start + length]
        elif layer.kind is LayerKind.GATHER:
            # index -1 picks the appended zero row
            x = ins[0]
            out = np.concatenate([x, np.zeros((1,) + x.shape[1:])])[list(layer.params)]
        else:  # OUTPUT
            out = ins[0]
        if out.shape[0] != layer.out_channels:
            raise ValidationError(
                [f"{lid}: produced {out.shape[0]} channels, expected {layer.out_channels}"])
        values[lid] = out
    return values[output_id]


@dataclass(frozen=True)
class EquivalenceReport:
    trials: int
    tol: float
    max_deviation: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol


def check_equivalence(
    original_graph: ModelGraph, original_weights: WeightStore, masks: ChannelMask | None,
    exported_graph: ModelGraph, exported_weights: WeightStore,
    trials: int = DEFAULT_TRIALS, tol: float = DEFAULT_TOLERANCE,
    seed: int = 0, mask_side: str = MODE_INPUT,
) -> EquivalenceReport:
    """Max relative deviation between the mask-simulated original and the
    exported model over ``trials`` (at least 1) random standard-normal inputs."""
    if trials < 1:
        raise ValidationError([f"trials must be at least 1, got {trials}"])
    in_a = graph_width(original_graph, LayerKind.INPUT)
    in_b = graph_width(exported_graph, LayerKind.INPUT)
    out_a = graph_width(original_graph, LayerKind.OUTPUT)
    out_b = graph_width(exported_graph, LayerKind.OUTPUT)
    if in_a != in_b or out_a != out_b:
        raise ValidationError(
            [f"model boundaries disagree: input {in_a} vs {in_b}, output {out_a} vs {out_b}"])
    # row t is the t-th of ``trials`` sequential ``standard_normal(in_a)`` draws
    x = np.random.default_rng(seed).standard_normal((trials, in_a)).T
    a = run(original_graph, original_weights, x, masks, mask_side)
    b = run(exported_graph, exported_weights, x)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    worst = float(np.max(np.abs(a - b) / scale, initial=0.0))
    return EquivalenceReport(trials=trials, tol=tol, max_deviation=worst)


def graph_width(graph: ModelGraph, kind: LayerKind) -> int:
    """Channel count of the single input or output layer."""
    return graph.layer(_single(graph, kind)).out_channels
