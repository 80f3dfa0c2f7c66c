"""Computation-graph IR: typed layers, weights, masks, and their file formats.

The IR is channel-exact and spatially collapsed: a "convolution" is just a
matrix mapping input channels to output channels, because every transform
this package performs acts purely on channel indices. Batch and spatial
dimensions would ride along unchanged.

All container types are immutable after construction and safe to share.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

MODEL_FILE_VERSION = 1
WEIGHTS_FILE_VERSION = 1
MASKS_FILE_VERSION = 1


class ModelFormatError(ValueError):
    """A model/weights/masks file does not follow the documented schema."""


class ValidationError(ValueError):
    """A graph or weight store violates an IR invariant.

    Carries the full diagnostic list produced by :func:`validate`.
    """

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class LayerKind(str, Enum):
    # channel-mixing: the only kind whose in/out channel counts may differ
    CHANNEL_MIX = "channel_mix"
    # elementwise sum of >=2 equal-width inputs
    ADD = "add"
    # channel concatenation of >=2 inputs
    CONCAT = "concat"
    # width-preserving, channel-independent op (activation, pooling, ...)
    PASS_THROUGH = "pass_through"
    # width-preserving op with one learned scalar per channel (bias, scale)
    PER_CHANNEL = "per_channel"
    INPUT = "input"
    OUTPUT = "output"
    # export-only kinds: contiguous view / explicit channel copy
    SLICE = "slice"
    GATHER = "gather"


# kinds that sit between producers and consumers inside a segment
INTERIOR_KINDS = frozenset(
    {LayerKind.ADD, LayerKind.CONCAT, LayerKind.PASS_THROUGH, LayerKind.PER_CHANNEL,
     LayerKind.SLICE, LayerKind.GATHER}
)


@dataclass(frozen=True)
class Layer:
    """One graph node.

    ``params`` is only used by the export-only kinds: ``(start, length)``
    for SLICE, a tuple of source channel indices for GATHER where ``-1``
    means "fill with zero".
    """

    id: str
    kind: LayerKind
    in_channels: int
    out_channels: int
    params: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ModelGraph:
    """A validated DAG of layers. ``edges`` are (src, dst) pairs; the order
    of a node's incoming edges is meaningful (concat order, add operands).

    The topological order is computed on first use and cached, not built in
    the constructor, so a cyclic graph still constructs and ``validate`` can
    report the cycle."""

    layers: tuple[Layer, ...]
    edges: tuple[tuple[str, str], ...]
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False)
    _preds: dict = field(init=False, repr=False, compare=False, hash=False)
    _succs: dict = field(init=False, repr=False, compare=False, hash=False)
    _order: tuple | None = field(init=False, repr=False, compare=False, hash=False)
    _rank: dict | None = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, layers: Iterable[Layer], edges: Iterable[tuple[str, str]]):
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "edges", tuple((str(s), str(d)) for s, d in edges))
        by_id = {}
        for layer in self.layers:
            if layer.id in by_id:
                raise ValidationError([f"duplicate layer id {layer.id!r}"])
            by_id[layer.id] = layer
        preds: dict[str, list[str]] = {l.id: [] for l in self.layers}
        succs: dict[str, list[str]] = {l.id: [] for l in self.layers}
        for src, dst in self.edges:
            if src not in by_id or dst not in by_id:
                raise ValidationError([f"edge ({src!r}, {dst!r}) references unknown layer"])
            preds[dst].append(src)
            succs[src].append(dst)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_preds", preds)
        object.__setattr__(self, "_succs", succs)
        object.__setattr__(self, "_order", None)
        object.__setattr__(self, "_rank", None)

    def layer(self, layer_id: str) -> Layer:
        try:
            return self._by_id[layer_id]
        except KeyError:
            raise KeyError(f"unknown layer id {layer_id!r}") from None

    def __contains__(self, layer_id: str) -> bool:
        return layer_id in self._by_id

    def predecessors(self, layer_id: str) -> tuple[str, ...]:
        """Incoming sources in edge-file order (meaningful for CONCAT/ADD)."""
        return tuple(self._preds[layer_id])

    def successors(self, layer_id: str) -> tuple[str, ...]:
        return tuple(self._succs[layer_id])

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm; ties broken by layer file order (deterministic).

        Computed once per graph; later calls return the same tuple."""
        if self._order is None:
            self._sort()
        return self._order

    def topological_rank(self, layer_id: str) -> int:
        """Position of ``layer_id`` in :meth:`topological_order`."""
        if self._rank is None:
            self._sort()
        return self._rank[layer_id]

    def _sort(self) -> None:
        indeg = [len(self._preds[l.id]) for l in self.layers]
        position = {l.id: i for i, l in enumerate(self.layers)}
        # a heap keyed by file position pops the same layer as a ready list
        # kept sorted by file position
        ready = [i for i, d in enumerate(indeg) if d == 0]
        out: list[str] = []
        while ready:
            lid = self.layers[heapq.heappop(ready)].id
            out.append(lid)
            for nxt in self._succs[lid]:
                i = position[nxt]
                indeg[i] -= 1
                if indeg[i] == 0:
                    heapq.heappush(ready, i)
        if len(out) != len(self.layers):
            raise ValidationError(["graph contains a cycle"])
        object.__setattr__(self, "_order", tuple(out))
        object.__setattr__(self, "_rank", {lid: i for i, lid in enumerate(out)})


@dataclass
class WeightStore:
    """Layer id -> tensor. CHANNEL_MIX holds (out_channels, in_channels)
    matrices, PER_CHANNEL holds (channels,) vectors. Float64 throughout."""

    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def __getitem__(self, layer_id: str) -> np.ndarray:
        return self.tensors[layer_id]

    def __setitem__(self, layer_id: str, value: np.ndarray) -> None:
        self.tensors[layer_id] = np.asarray(value, dtype=np.float64)

    def __contains__(self, layer_id: str) -> bool:
        return layer_id in self.tensors

    def copy(self) -> "WeightStore":
        return WeightStore({k: v.copy() for k, v in self.tensors.items()})


# consumer (or producer, in output-pruning mode) id -> sorted retained indices
ChannelMask = dict[str, tuple[int, ...]]


def normalize_mask(mask: Iterable[int]) -> tuple[int, ...]:
    """Sorted, de-duplicated tuple of channel indices."""
    return tuple(sorted(set(int(i) for i in mask)))


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

_EXACTLY_ONE_PRED = frozenset(
    {LayerKind.CHANNEL_MIX, LayerKind.PASS_THROUGH, LayerKind.PER_CHANNEL,
     LayerKind.OUTPUT, LayerKind.SLICE, LayerKind.GATHER}
)


def validate(graph: ModelGraph, weights: WeightStore | None = None) -> list[str]:
    """Return all invariant violations as diagnostics (empty list = valid)."""
    diags: list[str] = []

    try:
        graph.topological_order()
    except ValidationError as exc:
        diags.extend(exc.diagnostics)

    for layer in graph.layers:
        preds = graph.predecessors(layer.id)
        pred_layers = [graph.layer(p) for p in preds]
        if layer.in_channels < 1 or layer.out_channels < 1:
            diags.append(f"{layer.id}: channel counts must be >= 1")

        if layer.kind is LayerKind.INPUT:
            if preds:
                diags.append(f"{layer.id}: input layer cannot have predecessors")
            if layer.in_channels != layer.out_channels:
                diags.append(f"{layer.id}: input layer carries one channel count")
            continue

        if not preds:
            diags.append(f"{layer.id}: non-input layer has no predecessor")
            continue

        if layer.kind is LayerKind.ADD:
            if len(preds) < 2:
                diags.append(f"{layer.id}: add requires >= 2 predecessors")
            widths = {p.out_channels for p in pred_layers}
            if len(widths) > 1:
                diags.append(f"{layer.id}: add inputs have mismatched channel counts {sorted(widths)}")
            elif widths and layer.in_channels != widths.pop():
                diags.append(f"{layer.id}: add in_channels does not match its inputs")
        elif layer.kind is LayerKind.CONCAT:
            if len(preds) < 2:
                diags.append(f"{layer.id}: concat requires >= 2 predecessors")
            total = sum(p.out_channels for p in pred_layers)
            if layer.in_channels != total:
                diags.append(f"{layer.id}: concat in_channels {layer.in_channels} != sum of inputs {total}")
        elif layer.kind in _EXACTLY_ONE_PRED:
            if len(preds) != 1:
                diags.append(f"{layer.id}: {layer.kind.value} requires exactly 1 predecessor")
            elif pred_layers[0].out_channels != layer.in_channels:
                diags.append(
                    f"{layer.id}: in_channels {layer.in_channels} != "
                    f"producer {preds[0]} out_channels {pred_layers[0].out_channels}"
                )

        if layer.kind in (LayerKind.ADD, LayerKind.PASS_THROUGH, LayerKind.PER_CHANNEL,
                          LayerKind.CONCAT, LayerKind.OUTPUT):
            if layer.in_channels != layer.out_channels:
                diags.append(f"{layer.id}: {layer.kind.value} cannot change channel count")

        if layer.kind is LayerKind.SLICE:
            if layer.params is None or len(layer.params) != 2:
                diags.append(f"{layer.id}: slice needs params (start, length)")
            else:
                start, length = layer.params
                if length != layer.out_channels:
                    diags.append(f"{layer.id}: slice length {length} != out_channels")
                if not (0 <= start and start + length <= layer.in_channels):
                    diags.append(f"{layer.id}: slice range [{start}, {start + length}) out of bounds")
        elif layer.kind is LayerKind.GATHER:
            if layer.params is None:
                diags.append(f"{layer.id}: gather needs source index params")
            else:
                if len(layer.params) != layer.out_channels:
                    diags.append(f"{layer.id}: gather index count != out_channels")
                if any(i < -1 or i >= layer.in_channels for i in layer.params):
                    diags.append(f"{layer.id}: gather index out of range")
        elif layer.params is not None:
            diags.append(f"{layer.id}: params only allowed on slice/gather layers")

    if weights is not None:
        for layer in graph.layers:
            if layer.kind is LayerKind.CHANNEL_MIX:
                if layer.id not in weights:
                    diags.append(f"{layer.id}: missing weight matrix")
                else:
                    shape = weights[layer.id].shape
                    want = (layer.out_channels, layer.in_channels)
                    if shape != want:
                        diags.append(f"{layer.id}: weight shape {shape} != {want}")
            elif layer.kind is LayerKind.PER_CHANNEL:
                if layer.id not in weights:
                    diags.append(f"{layer.id}: missing per-channel vector")
                else:
                    shape = weights[layer.id].shape
                    if shape != (layer.out_channels,):
                        diags.append(f"{layer.id}: vector shape {shape} != ({layer.out_channels},)")
            elif layer.id in weights.tensors:
                diags.append(f"{layer.id}: {layer.kind.value} layer cannot carry weights")

    return diags


def validate_masks(graph: ModelGraph, masks: Mapping[str, Iterable[int]],
                   side: str = "input") -> list[str]:
    """Check mask indices against layer channel counts.

    ``side`` selects which channel space the indices live in: ``input``
    masks index a consumer's input columns, ``output`` masks index a
    producer's output filters.
    """
    diags: list[str] = []
    for layer_id, retained in masks.items():
        if layer_id not in graph:
            diags.append(f"mask references unknown layer {layer_id!r}")
            continue
        layer = graph.layer(layer_id)
        if layer.kind is not LayerKind.CHANNEL_MIX:
            diags.append(f"{layer_id}: masks only apply to channel-mixing layers")
            continue
        space = layer.in_channels if side == "input" else layer.out_channels
        retained = list(retained)
        if not retained:
            diags.append(f"{layer_id}: mask retains no channels")
        if any(not (0 <= int(i) < space) for i in retained):
            diags.append(f"{layer_id}: mask index out of [0, {space})")
    return diags


# --------------------------------------------------------------------------
# file formats (deterministic structured text)
# --------------------------------------------------------------------------

def _dump_json(obj, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json(path: str | Path) -> dict:
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    return obj


def read_int(value) -> int:
    """``value`` as an int. A float, bool, string or null where a file must
    hold an integer raises ModelFormatError instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ModelFormatError(f"expected an integer, got {value!r}")
    return int(value)


def _expect_version(obj: dict, path, want: int) -> None:
    if obj.get("version") != want:
        raise ModelFormatError(f"{path}: unsupported version {obj.get('version')!r} (want {want})")


def graph_to_dict(graph: ModelGraph) -> dict:
    layers = []
    for layer in graph.layers:
        rec: dict = {
            "id": layer.id,
            "kind": layer.kind.value,
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
        }
        if layer.params is not None:
            rec["params"] = list(layer.params)
        layers.append(rec)
    return {
        "version": MODEL_FILE_VERSION,
        "layers": layers,
        "edges": [list(e) for e in graph.edges],
    }


def graph_from_dict(obj: dict, source: str = "<memory>") -> ModelGraph:
    _expect_version(obj, source, MODEL_FILE_VERSION)
    if not isinstance(obj.get("layers"), list) or not isinstance(obj.get("edges"), list):
        raise ModelFormatError(f"{source}: need 'layers' and 'edges' lists")
    layers = []
    for rec in obj["layers"]:
        try:
            kind = LayerKind(rec["kind"])
            params = tuple(read_int(p) for p in rec["params"]) if "params" in rec else None
            layers.append(Layer(str(rec["id"]), kind, read_int(rec["in_channels"]),
                                read_int(rec["out_channels"]), params))
        except (KeyError, ValueError, TypeError) as exc:
            raise ModelFormatError(f"{source}: bad layer record {rec!r} ({exc})") from exc
    edges = []
    for rec in obj["edges"]:
        if not (isinstance(rec, list) and len(rec) == 2):
            raise ModelFormatError(f"{source}: bad edge record {rec!r}")
        edges.append((str(rec[0]), str(rec[1])))
    try:
        return ModelGraph(layers, edges)
    except ValidationError as exc:
        raise ModelFormatError(f"{source}: {exc}") from exc


def weights_to_dict(weights: WeightStore) -> dict:
    tensors = {}
    for layer_id, tensor in weights.tensors.items():
        tensors[layer_id] = {
            "shape": list(tensor.shape),
            "data": [float(x) for x in tensor.reshape(-1)],
        }
    return {"version": WEIGHTS_FILE_VERSION, "tensors": tensors}


def weights_from_dict(obj: dict, source: str = "<memory>") -> WeightStore:
    _expect_version(obj, source, WEIGHTS_FILE_VERSION)
    tensors_obj = obj.get("tensors")
    if not isinstance(tensors_obj, dict):
        raise ModelFormatError(f"{source}: need a 'tensors' object")
    store = WeightStore()
    for layer_id, rec in tensors_obj.items():
        try:
            shape = tuple(read_int(s) for s in rec["shape"])
            data = np.asarray(rec["data"], dtype=np.float64).reshape(shape)
        except (KeyError, ValueError, TypeError) as exc:
            raise ModelFormatError(f"{source}: bad tensor for {layer_id!r} ({exc})") from exc
        store[str(layer_id)] = data
    return store


def save_model(graph: ModelGraph, weights: WeightStore,
               model_file: str | Path, weights_file: str | Path) -> None:
    _dump_json(graph_to_dict(graph), model_file)
    _dump_json(weights_to_dict(weights), weights_file)


def load_model(model_file: str | Path, weights_file: str | Path) -> tuple[ModelGraph, WeightStore]:
    """Load and validate a model + weights pair.

    Raises ModelFormatError on schema problems and ValidationError when the
    parsed graph/weights violate IR invariants.
    """
    graph = graph_from_dict(_load_json(model_file), str(model_file))
    weights = weights_from_dict(_load_json(weights_file), str(weights_file))
    diags = validate(graph, weights)
    if diags:
        raise ValidationError(diags)
    return graph, weights


def save_masks(masks: Mapping[str, Iterable[int]], path: str | Path) -> None:
    retained = {layer_id: [int(i) for i in normalize_mask(idx)] for layer_id, idx in masks.items()}
    _dump_json({"version": MASKS_FILE_VERSION, "retained": retained}, path)


def load_masks(path: str | Path) -> ChannelMask:
    obj = _load_json(path)
    _expect_version(obj, path, MASKS_FILE_VERSION)
    retained_obj = obj.get("retained")
    if not isinstance(retained_obj, dict):
        raise ModelFormatError(f"{path}: need a 'retained' object")
    masks: ChannelMask = {}
    for layer_id, idx in retained_obj.items():
        try:
            if not isinstance(idx, list):
                raise ModelFormatError("must be a list")
            masks[str(layer_id)] = normalize_mask(read_int(i) for i in idx)
        except ModelFormatError as exc:
            raise ModelFormatError(f"{path}: retained[{layer_id!r}] {exc}") from None
    return masks
