"""A numpy executor for reslice models on float32 N x C x H x W batches.

Each node's output buffer is allocated once, when the executor is built,
and every pass writes into it with ``out=``, so a pass allocates nothing
and its time does not depend on the state of the memory allocator.

A SLICE node is a numpy view of its source (no bytes move); a GATHER node
is an ``np.take`` copy. That is the inference-time cost the export
compiler tries to remove, so the profiled pass counts the bytes gathers
write and times each kind of node.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Executor:
    """Runs one model on one fixed input batch.

    ``nodes`` are ``(id, kind, out_channels, params, preds)`` tuples with
    kind as in the model file format; ``weights`` maps channel-mix ids to
    (out, in) matrices and per-channel ids to vectors.
    """

    def __init__(self, nodes, weights, batch: np.ndarray):
        n, _, h, w = batch.shape
        by_id = {node[0]: node for node in nodes}
        self.values: dict[str, np.ndarray] = {}
        self.ops: list[tuple[str, object]] = []
        self.output = None
        for lid in _topological(nodes):
            _, kind, cout, params, preds = by_id[lid]
            ins = [self.values[p] for p in preds]
            if kind == "input":
                self.values[lid] = batch
                continue
            if kind == "output":
                self.output = ins[0]
                continue
            if kind == "slice":
                start, length = params
                self.values[lid] = ins[0][:, start:start + length]
                continue
            buf = np.empty((n, cout, h, w), dtype=np.float32)
            self.values[lid] = buf
            self.ops.append((kind, _op(kind, ins, buf, weights.get(lid), params)))
        if self.output is None:
            raise ValueError("model has no output layer")

    def run(self) -> np.ndarray:
        for _, op in self.ops:
            op()
        return self.output

    def run_profiled(self) -> tuple[dict[str, float], int]:
        """One pass timing each node. Returns (seconds per kind, bytes
        written by gathers)."""
        seconds: dict[str, float] = defaultdict(float)
        gathered = 0
        clock = time.perf_counter
        for kind, op in self.ops:
            t0 = clock()
            out = op()
            seconds[kind] += clock() - t0
            if kind == "gather":
                gathered += out.nbytes
        return dict(seconds), gathered


def _op(kind: str, ins: list[np.ndarray], buf: np.ndarray, weight, params):
    n, cout, h, w = buf.shape
    if kind == "channel_mix":
        mat = np.ascontiguousarray(weight, dtype=np.float32)
        src = ins[0].reshape(n, ins[0].shape[1], h * w)
        dst = buf.reshape(n, cout, h * w)
        if not (np.shares_memory(src, ins[0]) and np.shares_memory(dst, buf)):
            raise ValueError("a channel slice could not be reshaped as a view")

        def mix():
            np.matmul(mat, src, out=dst)
            return buf
        return mix
    if kind == "pass_through":
        return lambda: np.maximum(ins[0], 0.0, out=buf)
    if kind == "per_channel":
        vec = np.asarray(weight, dtype=np.float32).reshape(1, cout, 1, 1)
        return lambda: np.add(ins[0], vec, out=buf)
    if kind == "add":
        def add():
            np.add(ins[0], ins[1], out=buf)
            for extra in ins[2:]:
                np.add(buf, extra, out=buf)
            return buf
        return add
    if kind == "concat":
        return lambda: np.concatenate(ins, axis=1, out=buf)
    if kind == "gather":
        index = np.asarray(params, dtype=np.intp)
        zero = np.flatnonzero(index < 0)
        if zero.size == 0:
            # indices are in range by construction; "clip" avoids the
            # buffered copy numpy makes under the default mode="raise"
            return lambda: np.take(ins[0], index, axis=1, out=buf, mode="clip")

        def gather_with_zeros():
            np.take(ins[0], index, axis=1, out=buf, mode="clip")
            buf[:, zero] = 0.0
            return buf
        return gather_with_zeros
    raise ValueError(f"executor cannot run a {kind!r} layer")


def _topological(nodes) -> list[str]:
    """Kahn's algorithm in file order, independent of reslice's own."""
    indeg = {node[0]: len(node[4]) for node in nodes}
    succs: dict[str, list[str]] = defaultdict(list)
    for lid, _, _, _, preds in nodes:
        for p in preds:
            succs[p].append(lid)
    ready = [lid for lid, d in indeg.items() if d == 0]
    order = []
    while ready:
        lid = ready.pop()
        order.append(lid)
        for s in succs[lid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != len(nodes):
        raise ValueError("model graph has a cycle")
    return order


def nodes_from_graph(graph) -> list:
    """Executor nodes of a reslice ModelGraph."""
    return [(l.id, l.kind.value, l.out_channels, l.params, graph.predecessors(l.id))
            for l in graph.layers]


def masked_original(workload) -> tuple[list, dict]:
    """Executor nodes and weights of the workload's original model with
    every masked consumer's pruned input columns zeroed."""
    preds: dict[str, list[str]] = defaultdict(list)
    for src, dst in workload.edges:
        preds[dst].append(src)
    nodes = [(lid, kind, cout, None, tuple(preds[lid]))
             for lid, kind, _, cout in workload.layers]
    weights = {}
    for lid, w in workload.weights.items():
        if lid in workload.masks:
            keep = np.zeros(w.shape[1])
            keep[workload.masks[lid]] = 1.0
            w = w * keep
        weights[lid] = w
    return nodes, weights
