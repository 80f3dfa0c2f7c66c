"""Computation-graph IR: typed layers, weights, masks, and their file formats.

The IR is channel-exact and spatially collapsed: a "convolution" is just a
matrix mapping input channels to output channels, because every transform
this package performs acts purely on channel indices. Batch and spatial
dimensions would ride along unchanged.

All container types are immutable after construction and safe to share.
"""

from __future__ import annotations

import base64
import binascii
import heapq
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
import orjson

MODEL_FILE_VERSION = 1
# save_model writes version 2; version 1 ("data" lists of numbers) still loads
WEIGHTS_FILE_VERSION = 2
MASKS_FILE_VERSION = 1

# the side of each channel mix a mask indexes: its input columns or its filters
MODE_INPUT = "input"
MODE_OUTPUT = "output"
MODES = (MODE_INPUT, MODE_OUTPUT)


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
        object.__setattr__(self, "edges", tuple((s, d) for s, d in edges))
        by_id = {}
        for layer in self.layers:
            if not isinstance(layer.id, str):
                raise ValidationError([f"layer id {layer.id!r} is not a string"])
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
        object.__setattr__(self, "_preds", {k: tuple(v) for k, v in preds.items()})
        object.__setattr__(self, "_succs", {k: tuple(v) for k, v in succs.items()})
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
        return self._preds[layer_id]

    def successors(self, layer_id: str) -> tuple[str, ...]:
        return self._succs[layer_id]

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
    """Sorted, de-duplicated tuple of channel indices. An index that is not
    an integer raises ValidationError instead of being truncated."""
    mask = list(mask)
    if not set(map(type, mask)) <= {int}:
        bad = [i for i in mask if not _is_int(i)]
        if bad:
            raise ValidationError([f"mask index {bad[0]!r} is not an integer"])
        mask = map(int, mask)
    return tuple(sorted(set(mask)))


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
        diags += [f"weights hold a tensor for unknown layer {layer_id!r}"
                  for layer_id in weights.tensors if layer_id not in graph]

    return diags


def validate_masks(graph: ModelGraph, masks: Mapping[str, Iterable[int]],
                   side: str = MODE_INPUT) -> list[str]:
    """Check mask indices against layer channel counts.

    ``side`` selects which channel space the indices live in: ``input``
    masks index a consumer's input columns, ``output`` masks index a
    producer's output filters. Any other side raises ValidationError.
    """
    if side not in MODES:
        raise ValidationError([f"unknown side {side!r}"])
    diags: list[str] = []
    for layer_id, retained in masks.items():
        if layer_id not in graph:
            diags.append(f"mask references unknown layer {layer_id!r}")
            continue
        layer = graph.layer(layer_id)
        if layer.kind is not LayerKind.CHANNEL_MIX:
            diags.append(f"{layer_id}: masks only apply to channel-mixing layers")
            continue
        space = layer.in_channels if side == MODE_INPUT else layer.out_channels
        retained = list(retained)
        if not retained:
            diags.append(f"{layer_id}: mask retains no channels")
            continue
        bad = [] if set(map(type, retained)) <= {int} else [
            i for i in retained if not _is_int(i)]
        if bad:
            diags.append(f"{layer_id}: mask index {bad[0]!r} is not an integer")
        elif min(retained) < 0 or max(retained) >= space:
            diags.append(f"{layer_id}: mask index out of [0, {space})")
    return diags


# --------------------------------------------------------------------------
# file formats (deterministic structured text)
# --------------------------------------------------------------------------

# The one C encoder that writes every value and key: sorted keys, "," and
# ":" separators, ASCII output, NaN and infinities allowed
# (``JSONEncoder.encode`` would build a new one per call). It has no
# circular-reference markers: a reused markers dict keeps the ids that an
# error leaves in it. The writer's values are trees built afresh.
# Arguments: markers, default, string encoder, indent, key separator, item
# separator, sort_keys, skipkeys, allow_nan.
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ":", ",", True, False, True)


def _write_json(emit, value, depth: int) -> None:
    """Emit ``value`` as compact JSON in ASCII bytes, except that at depths
    0 and 1 a non-empty list or object puts each element on its own line.
    A ``bytes`` value, a base64 payload, goes verbatim between quotes:
    base64 needs no escaping. So an object holding one is written key by
    key; any other value the C encoder writes whole. A key the writer
    writes itself that is not a string raises ValidationError."""
    if type(value) is bytes:
        emit(b'"')
        emit(value)
        emit(b'"')
        return
    is_dict = isinstance(value, dict)
    lines = depth < 2 and bool(value) and (is_dict or isinstance(value, list))
    if not (lines or is_dict and bytes in map(type, value.values())):
        emit("".join(_encode(value, 0)).encode("ascii"))
        return
    if is_dict:
        bad = [key for key in value if not isinstance(key, str)]
        if bad:
            raise ValidationError([f"cannot write key {bad[0]!r}: keys must be strings"])
    emit(b"{" if is_dict else b"[")
    for i, key in enumerate(sorted(value) if is_dict else range(len(value))):
        if lines:
            emit(b",\n" if i else b"\n")
        elif i:
            emit(b",")
        if is_dict:
            emit("".join(_encode(key, 0)).encode("ascii") + b":")
        _write_json(emit, value[key], depth + 1)
    emit((b"\n" if lines else b"") + (b"}" if is_dict else b"]"))


def _file_pieces(obj: dict) -> list[bytes]:
    """The bytes of the file that holds ``obj``, in the pieces the writer
    emits: one line per top-level key and per element of a top-level list
    or object. Unlike ``json.dumps(indent=...)`` this keeps CPython's C
    encoder. Every file is written as these bytes, and ``saves_as``
    compares exported files with them."""
    pieces: list[bytes] = []
    _write_json(pieces.append, obj, 0)
    pieces.append(b"\n")
    return pieces


def _dump_json(obj: dict, path: str | Path) -> None:
    """Write ``obj`` as :func:`_file_pieces` lays it out. The pieces are
    collected before the file is opened, so a value the writer refuses
    leaves no file behind, and written to it one by one instead of being
    joined into the file's text."""
    pieces = _file_pieces(obj)
    with open(path, "wb") as f:
        f.writelines(pieces)


def _holds(data: bytes, pieces: list[bytes]) -> bool:
    """Whether ``data`` is exactly ``pieces`` joined, compared in place."""
    pos = 0
    for piece in pieces:
        if not data.startswith(piece, pos):
            return False
        pos += len(piece)
    return pos == len(data)


# orjson's first call reserves a buffer of about 8 MiB. Made while or after
# a large file is read, that call puts the buffer at the top of the heap and
# glibc cannot hand the freed memory below it back, so make it now.
orjson.loads("0.5")

# The stdlib's C scanner. Not json.scanner.py_make_scanner: its number
# pattern takes non-ASCII digits, so it would read [1١] as [11].
_scan_json = json.scanner.c_make_scanner(json.JSONDecoder())


def _scan_floats(s: str, idx: int):
    """Scan the JSON value at ``s[idx]``. An array of floats comes back as
    a float64 array read by one orjson call, whose correctly rounded reader
    gives the same doubles as ``float``; one pass checks its types and one
    converts it. Every other value goes to the C scanner. An array with no
    ``.``, ``e`` or ``E`` up to its first ``]`` holds no decimal and goes
    there without an orjson call, which would read an integer beyond 64
    bits as a float. So does an array that orjson refuses up to its first
    ``]`` (a nested one, NaN, Infinity, a value beyond float64) or that
    holds anything but floats."""
    if s.startswith("[", idx):
        end = s.find("]", idx) + 1
        if s.find(".", idx, end) >= 0 or s.find("e", idx, end) >= 0 or s.find("E", idx, end) >= 0:
            try:
                values = orjson.loads(s[idx:end])
            except orjson.JSONDecodeError:
                pass
            else:
                if list(map(type, values)).count(float) == len(values):
                    return np.fromiter(values, np.float64, len(values)), end
    return _scan_json(s, idx)


def _tensor_record(pairs: list) -> dict:
    """A record's object, built as soon as it is parsed: a float64 array
    stays one only as the record's ``data``, the rest become lists again."""
    return {key: value.tolist() if key != "data" and type(value) is np.ndarray else value
            for key, value in pairs}


def _objects(scan_value, pairs_hook=None):
    """A scanner that parses an object at Python level, scanning its values
    with ``scan_value``, and hands every other value to the C scanner."""
    def scan(s: str, idx: int):
        if s.startswith("{", idx):
            return json.decoder.JSONObject((s, idx + 1), True, scan_value, None, pairs_hook)
        return _scan_json(s, idx)
    return scan


class _WeightsDecoder(json.JSONDecoder):
    """Decodes a weights file to the same value as ``json.loads``, except
    that each tensor record's all-float ``data`` list arrives as a float64
    array. Only objects down to a record's depth (the top object,
    ``tensors``, the records) are parsed at Python level; anything deeper
    goes to the C scanner whole, so Python recursion stays three objects
    deep."""

    def __init__(self):
        super().__init__()
        self.scan_once = _objects(_objects(_objects(_scan_floats, _tensor_record)))


def _load_json(path: str | Path, decoder: type[json.JSONDecoder] | None = None) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        obj = json.loads(text, cls=decoder)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise ModelFormatError(f"{path}: JSON nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    return obj


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def read_int(value) -> int:
    """``value`` as an int. A float, bool, string or null where a file must
    hold an integer raises ModelFormatError instead of being truncated."""
    if not _is_int(value):
        raise ModelFormatError(f"expected an integer, got {value!r}")
    return int(value)


def read_str(value) -> str:
    """``value`` as a str. A number, bool, null, list or object where a
    file must hold a layer id raises ModelFormatError instead of being
    turned into its text."""
    if not isinstance(value, str):
        raise ModelFormatError(f"expected a string, got {value!r}")
    return value


def read_ints(values) -> tuple[int, ...]:
    """A list of integers as a tuple; each element is checked as by
    :func:`read_int`."""
    if not isinstance(values, list):
        raise ModelFormatError(f"expected a list of integers, got {values!r}")
    if set(map(type, values)) <= {int}:
        return tuple(values)
    return tuple(read_int(v) for v in values)


def _expect_version(obj: dict, path, *want: int) -> int:
    """The file's version, which must be an integer and one of ``want``
    (``true`` and ``1.0`` equal 1 in Python, so both are checked)."""
    version = obj.get("version")
    if not _is_int(version) or version not in want:
        wanted = " or ".join(str(w) for w in want)
        raise ModelFormatError(f"{path}: unsupported version {version!r} (want {wanted})")
    return version


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
            params = read_ints(rec["params"]) if "params" in rec else None
            layers.append(Layer(read_str(rec["id"]), kind, read_int(rec["in_channels"]),
                                read_int(rec["out_channels"]), params))
        except (KeyError, ValueError, TypeError) as exc:
            raise ModelFormatError(f"{source}: bad layer record {rec!r} ({exc})") from exc
    edges = []
    for rec in obj["edges"]:
        if not (isinstance(rec, list) and len(rec) == 2):
            raise ModelFormatError(f"{source}: bad edge record {rec!r}")
        try:
            edges.append((read_str(rec[0]), read_str(rec[1])))
        except ModelFormatError as exc:
            raise ModelFormatError(f"{source}: bad edge record {rec!r} ({exc})") from None
    try:
        return ModelGraph(layers, edges)
    except ValidationError as exc:
        raise ModelFormatError(f"{source}: {exc}") from exc


def _weights_file(weights: WeightStore) -> dict:
    """The version-2 weights file as the writer takes it: each tensor's
    C-order little-endian float64 bytes as base64 ``bytes``, encoded
    straight from the array's buffer when it already holds them."""
    tensors = {}
    for layer_id, tensor in weights.tensors.items():
        raw = np.ascontiguousarray(tensor, dtype="<f8")
        tensors[layer_id] = {"shape": list(tensor.shape),
                             "f64le": binascii.b2a_base64(raw, newline=False)}
    return {"version": WEIGHTS_FILE_VERSION, "tensors": tensors}


def _decode_tensor(rec: dict, version: int) -> np.ndarray:
    shape = read_ints(rec["shape"])
    if version == 1:
        data = rec["data"]
        # a list is checked, since numpy would read true as 1.0 and "1.5" as
        # 1.5; null passes on to the finiteness check as NaN
        if not (type(data) is np.ndarray and data.dtype == np.float64):
            if not isinstance(data, list) or not set(map(type, data)) <= {float, int, type(None)}:
                raise ValueError("'data' must be a list of numbers")
            data = np.asarray(data, dtype=np.float64)
        return data.reshape(shape)
    raw = base64.b64decode(rec["f64le"], validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)} payload bytes for shape {list(shape)}")
    # frombuffer over bytes is read-only; the copy owns writable memory
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def weights_from_dict(obj: dict, source: str = "<memory>") -> WeightStore:
    """Read weights file version 1 or 2. Non-finite values are rejected.
    A version-1 record's ``data`` is a list of numbers, or a float64 array
    as the weights-file reader gives it."""
    version = _expect_version(obj, source, 1, 2)
    tensors_obj = obj.get("tensors")
    if not isinstance(tensors_obj, dict):
        raise ModelFormatError(f"{source}: need a 'tensors' object")
    store = WeightStore()
    for layer_id, rec in tensors_obj.items():
        try:
            data = _decode_tensor(rec, version)
        except (KeyError, ValueError, TypeError) as exc:
            raise ModelFormatError(f"{source}: bad tensor for {layer_id!r} ({exc})") from exc
        except OverflowError:  # an integer beyond float64's range: infinite, like 1e999
            data = np.array(np.inf)
        if not np.isfinite(data).all():
            raise ModelFormatError(f"{source}: tensor {layer_id!r} holds a non-finite value")
        store[str(layer_id)] = data
    return store


def save_model(graph: ModelGraph, weights: WeightStore,
               model_file: str | Path, weights_file: str | Path) -> None:
    """Write the model file and weights file version 2. A layer id in
    ``weights`` that is not a string raises ValidationError before either
    file is written, since the weights file is written first."""
    _dump_json(_weights_file(weights), weights_file)
    _dump_json(graph_to_dict(graph), model_file)


def saves_as(graph: ModelGraph, weights: WeightStore,
             model_data: bytes, weights_data: bytes) -> bool:
    """Whether :func:`save_model` writes ``graph`` and ``weights`` as
    exactly ``model_data`` and ``weights_data``. Then loading those files
    gives back the same graph and bit-identical weights (base64 float64
    round-trips exactly), so neither file needs parsing. The model is
    compared first: the weights are encoded only when it matches."""
    return (_holds(model_data, _file_pieces(graph_to_dict(graph)))
            and _holds(weights_data, _file_pieces(_weights_file(weights))))


def load_model(model_file: str | Path, weights_file: str | Path) -> tuple[ModelGraph, WeightStore]:
    """Load and validate a model + weights pair.

    Raises ModelFormatError on schema problems and ValidationError when the
    parsed graph/weights violate IR invariants.
    """
    graph = graph_from_dict(_load_json(model_file), str(model_file))
    weights = weights_from_dict(_load_json(weights_file, _WeightsDecoder), str(weights_file))
    diags = validate(graph, weights)
    if diags:
        raise ValidationError(diags)
    return graph, weights


def save_masks(masks: Mapping[str, Iterable[int]], path: str | Path) -> None:
    retained = {layer_id: list(normalize_mask(idx)) for layer_id, idx in masks.items()}
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
            masks[str(layer_id)] = tuple(sorted(set(read_ints(idx))))
        except ModelFormatError as exc:
            raise ModelFormatError(f"{path}: retained[{layer_id!r}] {exc}") from None
    return masks
