"""Shared fixtures, random generators, independent oracles, a writer of
version-1 weights files and an oracle of the layout every file is written in.

The oracles deliberately re-derive results through different algorithms
than the library (plain reachability + union-find for segments, a
depth-first search for the classes an add join identifies, raw
permutation enumeration for zero-copy and consecutive-ones orders, every
consumer subset for the largest consecutive-ones subset, a
re-sorted ready list for topological order, a branch-and-bound DFS that
expands every state and an enumeration of every ordered node subset for
maximum-reward paths, and a greedy search that scores whole sequences with
``path_reward`` and ``is_valid_path`` where the library reads bitmasks) so
agreement means something.
"""

from __future__ import annotations

import base64
import json
import pathlib
from itertools import permutations, product

import numpy as np

from reslice import Layer, LayerKind, ModelGraph, WeightStore
from reslice.graph import INTERIOR_KINDS
from reslice.path_search import Path, ReorderGraph
from reslice.planner import apply_plan
from reslice.segments import Segment

MIX = LayerKind.CHANNEL_MIX
PASS = LayerKind.PASS_THROUGH
ADD = LayerKind.ADD
CONCAT = LayerKind.CONCAT
PER = LayerKind.PER_CHANNEL
INPUT = LayerKind.INPUT
OUTPUT = LayerKind.OUTPUT

BRUTE_FORCE_NODE_CAP = 10


def build_model(rows, edges, seed=0):
    """rows: (id, kind, in_channels, out_channels); weights auto-filled."""
    rng = np.random.default_rng(seed)
    layers = [Layer(*row) for row in rows]
    graph = ModelGraph(layers, list(edges))
    tensors = {}
    for layer in layers:
        if layer.kind is MIX:
            tensors[layer.id] = rng.standard_normal((layer.out_channels, layer.in_channels))
        elif layer.kind is PER:
            tensors[layer.id] = rng.standard_normal(layer.out_channels)
    return graph, WeightStore(tensors)


def save_weights_v1(weights: WeightStore, path) -> None:
    """Write ``weights`` as a version-1 weights file (a JSON list of numbers
    per tensor), the format of the benchmark's inputs and of files written
    before version 2. ``save_model`` writes only version 2."""
    tensors = {lid: {"shape": list(t.shape), "data": t.reshape(-1).tolist()}
               for lid, t in weights.tensors.items()}
    pathlib.Path(path).write_text(
        json.dumps({"version": 1, "tensors": tensors}, indent=2, sort_keys=True) + "\n")


def oracle_file_bytes(obj) -> bytes:
    """The documented layout of every file reslice writes, built with
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))``: ``{``, one
    line per top-level key in sorted order, where a non-empty top-level list
    or object puts each element on its own line, then ``}`` and a newline."""
    def dumps(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    def lay(value, depth: int) -> str:
        if depth == 2 or not isinstance(value, (dict, list)) or not value:
            return dumps(value)
        if isinstance(value, dict):
            lines = [f"{dumps(key)}:{lay(value[key], depth + 1)}" for key in sorted(value)]
            return "{\n" + ",\n".join(lines) + "\n}"
        return "[\n" + ",\n".join(lay(v, depth + 1) for v in value) + "\n]"
    return (lay(obj, 0) + "\n").encode("ascii")


def oracle_weights_dict(weights: WeightStore) -> dict:
    """The value of a version-2 weights file: each tensor's C-order
    little-endian float64 bytes, base64-encoded by ``base64.b64encode``."""
    return {"version": 2, "tensors": {
        lid: {"shape": list(t.shape),
              "f64le": base64.b64encode(np.asarray(t, dtype="<f8").tobytes(order="C")).decode()}
        for lid, t in weights.tensors.items()}}


# --------------------------------------------------------------------------
# fixed fixtures
# --------------------------------------------------------------------------

def fan_fixture(n_channels=4, consumer_ids=("B", "D"), out_width=2, seed=0):
    """One producer A; each consumer reads the full shared space."""
    rows = [("in", INPUT, n_channels, n_channels),
            ("A", MIX, n_channels, n_channels),
            ("r", PASS, n_channels, n_channels)]
    edges = [("in", "A"), ("A", "r")]
    for c in consumer_ids:
        rows.append((c, MIX, n_channels, out_width))
        edges.append(("r", c))
    rows.append(("j", ADD, out_width, out_width))
    edges.extend((c, "j") for c in consumer_ids)
    rows.append(("out", OUTPUT, out_width, out_width))
    edges.append(("j", "out"))
    return build_model(rows, edges, seed=seed)


def add_join_fixture(n_channels=4, producer_ids=("A", "C"), out_width=2, seed=0):
    """Producers summed by one add and read by one consumer B: the
    output-mode mirror of ``fan_fixture``."""
    rows = [("in", INPUT, n_channels, n_channels)]
    rows += [(p, MIX, n_channels, n_channels) for p in producer_ids]
    rows += [("j", ADD, n_channels, n_channels), ("B", MIX, n_channels, out_width),
             ("out", OUTPUT, out_width, out_width)]
    edges = [("in", p) for p in producer_ids] + [(p, "j") for p in producer_ids]
    edges += [("j", "B"), ("B", "out")]
    return build_model(rows, edges, seed=seed)


def single_branch_fixture(width=4, seed=0):
    rows = [("in", INPUT, width, width), ("A", MIX, width, width),
            ("r", PASS, width, width), ("B", MIX, width, 2),
            ("out", OUTPUT, 2, 2)]
    edges = [("in", "A"), ("A", "r"), ("r", "B"), ("B", "out")]
    return build_model(rows, edges, seed=seed)


def residual_block_fixture(width=4, seed=0):
    """Multi-branch block: producers {A, C} summed, consumers {B, D}."""
    rows = [("in", INPUT, width, width),
            ("A", MIX, width, width), ("C", MIX, width, width),
            ("j", ADD, width, width), ("r", PASS, width, width),
            ("B", MIX, width, 2), ("D", MIX, width, 2),
            ("j2", ADD, 2, 2), ("out", OUTPUT, 2, 2)]
    edges = [("in", "A"), ("in", "C"), ("A", "j"), ("C", "j"), ("j", "r"),
             ("r", "B"), ("r", "D"), ("B", "j2"), ("D", "j2"), ("j2", "out")]
    return build_model(rows, edges, seed=seed)


def concat_fixture(wa=3, wc=2, seed=0):
    """Producers {A, C} concatenated, consumers {B, D} on the joint space."""
    w = wa + wc
    rows = [("in", INPUT, 3, 3),
            ("A", MIX, 3, wa), ("C", MIX, 3, wc),
            ("k", CONCAT, w, w), ("r", PASS, w, w),
            ("B", MIX, w, 2), ("D", MIX, w, 2),
            ("j", ADD, 2, 2), ("out", OUTPUT, 2, 2)]
    edges = [("in", "A"), ("in", "C"), ("A", "k"), ("C", "k"), ("k", "r"),
             ("r", "B"), ("r", "D"), ("B", "j"), ("D", "j"), ("j", "out")]
    return build_model(rows, edges, seed=seed)


# segments that keep their layout: the first two have ill-formed slot
# spaces, the others producers that output mode cannot let drop filters

def duplicate_read_fixture():
    """add(f, g) identifies f's slots with g's, so the concat reader X
    reads every channel twice."""
    return build_model(
        [("in", INPUT, 2, 2), ("f", MIX, 2, 2), ("g", MIX, 2, 2),
         ("cat", CONCAT, 4, 4), ("sum", ADD, 2, 2),
         ("X", MIX, 4, 2), ("Y", MIX, 2, 2),
         ("j", ADD, 2, 2), ("out", OUTPUT, 2, 2)],
        [("in", "f"), ("in", "g"), ("f", "cat"), ("g", "cat"),
         ("f", "sum"), ("g", "sum"), ("cat", "X"), ("sum", "Y"),
         ("X", "j"), ("Y", "j"), ("j", "out")])


def intra_producer_merge_fixture():
    """concat(A, X) + concat(X, A) with mismatched widths chains A's own
    channels onto each other; B reads the sum."""
    return build_model(
        [("in", INPUT, 2, 2), ("A", MIX, 2, 2), ("X", MIX, 2, 1),
         ("c1", CONCAT, 3, 3), ("c2", CONCAT, 3, 3), ("j", ADD, 3, 3),
         ("B", MIX, 3, 2), ("out", OUTPUT, 2, 2)],
        [("in", "A"), ("in", "X"), ("A", "c1"), ("X", "c1"),
         ("X", "c2"), ("A", "c2"), ("c1", "j"), ("c2", "j"),
         ("j", "B"), ("B", "out")])


def per_channel_interior_fixture():
    """A per-channel offset p between producer A and its reader B."""
    return build_model(
        [("in", INPUT, 4, 4), ("A", MIX, 4, 4), ("p", PER, 4, 4),
         ("B", MIX, 4, 2), ("out", OUTPUT, 2, 2)],
        [("in", "A"), ("A", "p"), ("p", "B"), ("B", "out")])


def stacked_joins_fixture():
    """add(add(A, B), C) read by D: two joins between producers."""
    return build_model(
        [("in", INPUT, 3, 3), ("A", MIX, 3, 3), ("B", MIX, 3, 3),
         ("C", MIX, 3, 3), ("j1", ADD, 3, 3), ("j2", ADD, 3, 3),
         ("D", MIX, 3, 2), ("out", OUTPUT, 2, 2)],
        [("in", "A"), ("in", "B"), ("in", "C"), ("A", "j1"), ("B", "j1"),
         ("j1", "j2"), ("C", "j2"), ("j2", "D"), ("D", "out")])


def input_residual_fixture():
    """add(in, A) read by B: A shares its segment with the model input."""
    return build_model(
        [("in", INPUT, 4, 4), ("A", MIX, 4, 4), ("j", ADD, 4, 4),
         ("B", MIX, 4, 2), ("out", OUTPUT, 2, 2)],
        [("in", "A"), ("in", "j"), ("A", "j"), ("j", "B"), ("B", "out")])


# --------------------------------------------------------------------------
# random generators
# --------------------------------------------------------------------------

def random_retained_sets(seed, max_nodes=8, max_channels=16):
    """Random consumer retained sets over a shared channel space."""
    rng = np.random.default_rng(seed)
    channels = int(rng.integers(2, max_channels + 1))
    count = int(rng.integers(1, max_nodes + 1))
    retained = {}
    for i in range(count):
        k = int(rng.integers(1, channels + 1))
        chans = rng.choice(channels, size=k, replace=False)
        retained[f"n{i:02d}"] = frozenset(int(c) for c in chans)
    return retained, channels


MAX_DAG_LAYERS = 12


def random_dag(seed, bias_free=False):
    """Random single-input DAG with residual and concat joins.

    At most 12 layers and 16 channels anywhere; block shapes mirror real
    architectures (plain conv, f(x)+x skip, two-branch add, concat).
    """
    rng = np.random.default_rng(seed)
    width = int(rng.integers(3, 7))
    rows = [("in", INPUT, width, width)]
    edges = []
    cur, cur_w = "in", width
    idx = 0

    def room(extra):
        return len(rows) + extra + 1 <= MAX_DAG_LAYERS

    while True:
        choices = []
        if room(2):
            choices.append("plain")
        if room(3):
            choices.append("skip")
        if room(4):
            choices.extend(["branch-add", "branch-concat"])
        if not choices or (len(rows) > 6 and rng.random() < 0.25):
            break
        kind = choices[int(rng.integers(0, len(choices)))]
        idx += 1
        if kind == "plain":
            w2 = int(rng.integers(2, 7))
            mid = f"m{idx}"
            rows.append((mid, MIX, cur_w, w2))
            edges.append((cur, mid))
            nxt = mid
            if not bias_free and room(2) and rng.random() < 0.4:
                b = f"b{idx}"
                rows.append((b, PER, w2, w2))
                edges.append((nxt, b))
                nxt = b
            r = f"r{idx}"
            rows.append((r, PASS, w2, w2))
            edges.append((nxt, r))
            cur, cur_w = r, w2
        elif kind == "skip":
            a, j, r = f"a{idx}", f"j{idx}", f"r{idx}"
            rows.extend([(a, MIX, cur_w, cur_w), (j, ADD, cur_w, cur_w),
                         (r, PASS, cur_w, cur_w)])
            edges.extend([(cur, a), (a, j), (cur, j), (j, r)])
            cur = r
        elif kind == "branch-add":
            w2 = int(rng.integers(2, 7))
            a, c, j, r = f"a{idx}", f"c{idx}", f"j{idx}", f"r{idx}"
            rows.extend([(a, MIX, cur_w, w2), (c, MIX, cur_w, w2),
                         (j, ADD, w2, w2), (r, PASS, w2, w2)])
            edges.extend([(cur, a), (cur, c), (a, j), (c, j), (j, r)])
            cur, cur_w = r, w2
        else:
            wa, wc = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            a, c, k, r = f"a{idx}", f"c{idx}", f"k{idx}", f"r{idx}"
            rows.extend([(a, MIX, cur_w, wa), (c, MIX, cur_w, wc),
                         (k, CONCAT, wa + wc, wa + wc), (r, PASS, wa + wc, wa + wc)])
            edges.extend([(cur, a), (cur, c), (a, k), (c, k), (k, r)])
            cur, cur_w = r, wa + wc
    rows.append(("out", OUTPUT, cur_w, cur_w))
    edges.append((cur, "out"))
    return build_model(rows, edges, seed=seed)


def fan_masks(rng, n_consumers, kind, channels=64):
    """Masks for consumers c00, c01, ... of one producer (``fan_fixture``).

    ``"mixed"``: each keeps 2-39 channels, as a window or scattered;
    ``"sparse"``: 3 scattered channels each; ``"l2"``: 38 scattered
    channels each, the shape of magnitude-scored masks.
    """
    masks = {}
    for i in range(n_consumers):
        if kind == "sparse":
            keep = rng.choice(channels, 3, replace=False)
        elif kind == "l2":
            keep = rng.choice(channels, 38, replace=False)
        else:
            width = int(rng.integers(2, 40))
            if rng.random() < 0.5:
                start = int(rng.integers(0, channels - width + 1))
                keep = range(start, start + width)
            else:
                keep = rng.choice(channels, width, replace=False)
        masks[f"c{i:02d}"] = tuple(sorted(int(x) for x in keep))
    return masks


def dense_block(layers, stem=256, growth=32, keep=0.6, seed=0):
    """A DenseNet-BC-shaped block for planning only (no weights).

    ``x0`` (``stem`` channels) feeds ``layers`` channel mixes; layer i
    mixes the concat of x0 and every earlier layer's output down to
    ``growth`` channels, and a transition mix reads the final concat. All
    of them share one segment with one band per producer. Each reader keeps
    a seeded random ``keep`` share of its input columns. Returns (graph,
    masks).
    """
    rng = np.random.default_rng(seed)
    layers_ = [Layer("in", INPUT, stem, stem), Layer("x0", MIX, stem, stem)]
    edges = [("in", "x0")]
    outs, width, masks = ["x0"], stem, {}
    for i in range(1, layers + 2):
        reader = f"y{i:02d}" if i <= layers else "t"
        src = outs[0]
        if len(outs) > 1:
            src = f"k{i:02d}"
            layers_.append(Layer(src, CONCAT, width, width))
            edges += [(o, src) for o in outs]
        layers_.append(Layer(reader, MIX, width, growth))
        edges.append((src, reader))
        masks[reader] = tuple(sorted(int(x) for x in rng.choice(width, int(keep * width),
                                                                   replace=False)))
        outs.append(reader)
        width += growth
    layers_.append(Layer("out", OUTPUT, growth, growth))
    edges.append(("t", "out"))
    return ModelGraph(layers_, edges), masks


def ramp_weights(graph: ModelGraph) -> WeightStore:
    """Weights for ``graph`` drawn from no random generator: entry (i, j)
    of the k-th layer is ``((7i + 3j + k) % 11 - 5) / 4``, exactly
    representable, so the same bytes come out under any numpy version."""
    tensors = {}
    for k, layer in enumerate(graph.layers):
        if layer.kind is MIX:
            i = np.arange(layer.out_channels)[:, None]
            j = np.arange(layer.in_channels)[None, :]
            tensors[layer.id] = ((7 * i + 3 * j + k) % 11 - 5) / 4.0
        elif layer.kind is PER:
            tensors[layer.id] = ((5 * np.arange(layer.out_channels) + k) % 7 - 3) / 2.0
    return WeightStore(tensors)


def read_columns(graph: ModelGraph, plan) -> dict[str, tuple[int, ...]]:
    """Per consumer of ``plan``, the original input columns its rewritten
    weights hold, in their new order, with -1 for a zeroed column: the plan
    is applied to weights in which each consumer column holds its index
    plus one."""
    weights = ramp_weights(graph)
    for a in plan.consumers:
        layer = graph.layer(a.consumer)
        weights[a.consumer] = np.tile(np.arange(1.0, layer.in_channels + 1),
                                      (layer.out_channels, 1))
    _, out = apply_plan([plan], graph, weights)
    return {a.consumer: tuple(int(x) - 1 for x in out[a.consumer][0]) for a in plan.consumers}


# --------------------------------------------------------------------------
# independent oracles
# --------------------------------------------------------------------------

def oracle_topological_order(graph: ModelGraph) -> tuple[str, ...]:
    """Kahn's algorithm over a ready list re-sorted by layer file order
    after every insertion, popping from the front."""
    position = {l.id: i for i, l in enumerate(graph.layers)}
    indeg = {l.id: len(graph.predecessors(l.id)) for l in graph.layers}
    ready = sorted((lid for lid, d in indeg.items() if d == 0), key=position.get)
    out: list[str] = []
    while ready:
        lid = ready.pop(0)
        out.append(lid)
        inserted = False
        for nxt in graph.successors(lid):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
                inserted = True
        if inserted:
            ready.sort(key=position.get)
    assert len(out) == len(graph.layers), "graph contains a cycle"
    return tuple(out)


def oracle_segments(graph: ModelGraph) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Segments via plain reachability + union-find over role tokens.

    A producer token joins the tokens of every consumer and interior node it
    can reach through interior-kind layers. Components with at least one
    producer are segments. Producer and consumer roles of the same layer are
    distinct tokens on purpose.
    """
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    producer_kinds = (MIX, INPUT)
    for layer in graph.layers:
        if layer.kind not in producer_kinds or not graph.successors(layer.id):
            continue
        p = ("P", layer.id)
        parent.setdefault(p, p)
        stack = list(graph.successors(layer.id))
        seen = set()
        while stack:
            u = stack.pop()
            kind = graph.layer(u).kind
            if kind is MIX:
                union(p, ("C", u))
            elif kind in INTERIOR_KINDS and u not in seen:
                seen.add(u)
                union(p, ("I", u))
                stack.extend(graph.successors(u))

    groups: dict = {}
    for token in parent:
        groups.setdefault(find(token), []).append(token)
    out = []
    for members in groups.values():
        prods = tuple(sorted(m[1] for m in members if m[0] == "P"))
        cons = tuple(sorted(m[1] for m in members if m[0] == "C"))
        if prods:
            out.append((prods, cons))
    return sorted(out)


def oracle_slot_numbering(count: int, joined) -> tuple[int, ...]:
    """Each raw id's slot: the ids identified position by position by the
    vector pairs in ``joined`` form classes, found by a depth-first search
    from each id in ascending order, so classes are numbered in order of
    their smallest id."""
    adjacent: list[list[int]] = [[] for _ in range(count)]
    for a, b in joined:
        for x, y in zip(a, b):
            adjacent[x].append(y)
            adjacent[y].append(x)
    slot: list[int | None] = [None] * count
    number = 0
    for start in range(count):
        if slot[start] is not None:
            continue
        slot[start] = number
        stack = [start]
        while stack:
            for v in adjacent[stack.pop()]:
                if slot[v] is None:
                    slot[v] = number
                    stack.append(v)
        number += 1
    return tuple(slot)


def zero_copy_exists(graph: ModelGraph, segment: Segment,
                     retained: dict[str, frozenset[int]]) -> bool:
    """Raw permutation oracle: does any per-band arrangement of the kept
    slots make every consumer's retained block contiguous? Each arrangement
    is pushed to the consumers by its own recursion over predecessors: in
    an unlocked segment a concat joins its inputs' vectors and every other
    interior kind carries its first input's."""
    all_kept = set()
    for slots in retained.values():
        all_kept |= slots
    per_band = []
    for band in segment.bands:
        kept = [s for s in band.slots if s in all_kept]
        if kept:
            per_band.append([tuple(p) for p in permutations(kept)])
        else:
            per_band.append([(min(band.slots),)])
    for arrangement in product(*per_band):
        vectors = {}
        for band, layout in zip(segment.bands, arrangement):
            for p in band.producers:
                vectors[p] = layout

        def vector(u):
            if u not in vectors:
                ins = [vector(q) for q in graph.predecessors(u)]
                vectors[u] = sum(ins, ()) if graph.layer(u).kind is CONCAT else ins[0]
            return vectors[u]
        ok = True
        for c in segment.consumers:
            vec = vector(graph.predecessors(c)[0])
            spots = [i for i, s in enumerate(vec) if s in retained[c]]
            if spots and spots[-1] - spots[0] + 1 != len(spots):
                ok = False
                break
        if ok:
            return True
    return False


def oracle_c1p(sets, universe) -> tuple | None:
    """Raw permutation oracle: the first arrangement of ``universe`` (in
    ``itertools.permutations`` order) in which every set is contiguous, or
    None when there is none."""
    for order in permutations(sorted(universe)):
        position = {x: i for i, x in enumerate(order)}
        if all(max(position[x] for x in s) - min(position[x] for x in s) + 1 == len(s)
               for s in sets if s):
            return order
    return None


def oracle_max_c1p_subset(retained: dict[str, frozenset[int]]) -> int:
    """Largest total retained size of a consumer subset whose sets have a
    common layout with each of them contiguous: every subset, in order of
    decreasing total, checked with ``oracle_c1p`` over its own union. For a
    one-band segment, where the slots no chosen consumer keeps can go at
    either end. At most ``BRUTE_FORCE_NODE_CAP`` consumers."""
    names = sorted(retained)
    if len(names) > BRUTE_FORCE_NODE_CAP:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_NODE_CAP} consumers")
    subsets = [[retained[n] for i, n in enumerate(names) if mask >> i & 1]
               for mask in range(1 << len(names))]
    failed: set[frozenset[frozenset[int]]] = set()
    for sets in sorted(subsets, key=lambda sets: -sum(map(len, sets))):
        family = frozenset(sets)
        if family not in failed:
            if oracle_c1p(family, frozenset().union(*family)) is not None:
                return sum(map(len, sets))
            failed.add(family)
    raise AssertionError("the empty subset always has a layout")


def covered_parents(graph: ReorderGraph, nodes: tuple[str, ...]) -> tuple[str, ...]:
    """Parents not on the path whose channels its child nodes fully cover."""
    on_path = set(nodes)
    out = []
    for parent, children in graph.parents.items():
        if parent in on_path:
            continue
        covered: set[int] = set()
        for child in children:
            if child in on_path:
                covered |= graph.nodes[child].retained
        if covered >= graph.nodes[parent].retained:
            out.append(parent)
    return tuple(sorted(out))


def path_reward(graph: ReorderGraph, nodes: tuple[str, ...] | list[str]) -> int:
    """Reward of an ordered node list (consecutive pairs need not share
    edges). Includes the covered-parent bonus."""
    nodes = tuple(nodes)
    for n in nodes:
        if n not in graph.nodes:
            raise KeyError(f"unknown reorder-graph node {n!r}")
    total = sum(graph.nodes[n].reward for n in nodes)
    for a, b in zip(nodes, nodes[1:]):
        total += graph.edge_reward(a, b)
    return total + sum(graph.nodes[p].reward for p in covered_parents(graph, nodes))


def is_valid_path(graph: ReorderGraph, nodes: tuple[str, ...] | list[str]) -> bool:
    """Distinct nodes; non-adjacent entries must not share a non-exempt edge."""
    nodes = tuple(nodes)
    if len(set(nodes)) != len(nodes):
        return False
    for i, u in enumerate(nodes):
        for v in nodes[i + 2:]:
            if graph.has_edge(u, v) and not graph.is_exempt(u, v):
                return False
    return True


def oracle_greedy_mrap(graph: ReorderGraph) -> Path:
    """Greedy path search on whole sequences: from every start node, append
    the valid extension of best path reward (smallest id on ties) while it
    raises the reward; keep the first path of greatest reward. Same rule as
    ``solve_mrap`` above its node cap, derived through ``is_valid_path`` and
    ``path_reward`` instead of bitmasks."""
    ids = sorted(graph.nodes)
    best: tuple[int, tuple[str, ...]] | None = None
    for start in ids:
        seq = [start]
        while True:
            options = [n for n in ids if n not in seq and is_valid_path(graph, seq + [n])]
            if not options:
                break
            nxt = min(options, key=lambda n: (-path_reward(graph, seq + [n]), n))
            if path_reward(graph, seq + [nxt]) <= path_reward(graph, seq):
                break
            seq.append(nxt)
        reward = path_reward(graph, seq)
        if best is None or reward > best[0]:
            best = (reward, tuple(seq))
    return Path(best[1], best[0], covered_parents(graph, best[1]))


def oracle_dfs_mrap(graph: ReorderGraph) -> Path:
    """Maximum-reward valid path by branch-and-bound DFS with no memo and no
    node cap: every (path set, last node) state is expanded each time a
    sequence reaches it. Same lexicographic tie-break as ``solve_mrap``:
    sequences are visited in lexicographic order and only a strictly greater
    reward replaces the best."""
    ids = sorted(graph.nodes)
    if not ids:
        raise ValueError("empty reorder graph")

    index = {n: i for i, n in enumerate(ids)}
    n = len(ids)
    rewards = [graph.nodes[i].reward for i in ids]
    retained = [graph.nodes[i].retained for i in ids]
    edge = [[0] * n for _ in range(n)]
    nonexempt_nbrs = [0] * n  # bitmask
    for (u, v), shared in graph.edges.items():
        iu, iv = index[u], index[v]
        edge[iu][iv] = edge[iv][iu] = -len(shared)
        if not graph.is_exempt(u, v):
            nonexempt_nbrs[iu] |= 1 << iv
            nonexempt_nbrs[iv] |= 1 << iu

    # parent bookkeeping: parent index -> child indices, and per-channel
    # coverage counters maintained incrementally during the DFS
    parent_children: dict[int, list[int]] = {}
    child_parents: dict[int, list[int]] = {}
    for p, cs in graph.parents.items():
        ip = index[p]
        parent_children[ip] = [index[c] for c in cs]
        for c in cs:
            child_parents.setdefault(index[c], []).append(ip)
    cover_count = {ip: dict.fromkeys(retained[ip], 0) for ip in parent_children}
    covered_total = dict.fromkeys(parent_children, 0)
    need = {ip: len(retained[ip]) for ip in parent_children}

    best_reward = None
    best_nodes: tuple[str, ...] = ()
    seq: list[int] = []
    on_path = 0  # bitmask
    bonus_active = dict.fromkeys(parent_children, False)
    bonus_sum = 0

    def push(v: int) -> list:
        """Update coverage/bonus state for appending v; return undo log."""
        nonlocal bonus_sum
        undo = []
        for ip in child_parents.get(v, ()):
            cc = cover_count[ip]
            for ch in retained[v]:
                if cc[ch] == 0:
                    covered_total[ip] += 1
                cc[ch] += 1
            undo.append(("cover", ip, v))
            if (not bonus_active[ip] and covered_total[ip] == need[ip]
                    and not (on_path >> ip) & 1):
                bonus_active[ip] = True
                bonus_sum += rewards[ip]
                undo.append(("bonus_on", ip))
        if v in parent_children and bonus_active[v]:
            # the parent itself joins the path: its reward now counts as a
            # node, not as a bonus
            bonus_active[v] = False
            bonus_sum -= rewards[v]
            undo.append(("bonus_off", v))
        return undo

    def pop(undo: list) -> None:
        nonlocal bonus_sum
        for action in reversed(undo):
            if action[0] == "cover":
                _, ip, v = action
                cc = cover_count[ip]
                for ch in retained[v]:
                    cc[ch] -= 1
                    if cc[ch] == 0:
                        covered_total[ip] -= 1
            elif action[0] == "bonus_on":
                bonus_active[action[1]] = False
                bonus_sum -= rewards[action[1]]
            else:  # bonus_off
                bonus_active[action[1]] = True
                bonus_sum += rewards[action[1]]

    def dfs(base: int, forbidden: int) -> None:
        nonlocal best_reward, best_nodes, on_path
        last = seq[-1]
        current = base + bonus_sum
        if best_reward is None or current > best_reward:
            best_reward = current
            best_nodes = tuple(ids[i] for i in seq)
        # upper bound: every remaining node's reward plus every not-yet
        # granted parent bonus (edges only subtract)
        remaining = 0
        for v in range(n):
            if not (forbidden >> v) & 1:
                remaining += rewards[v]
        potential = sum(rewards[ip] for ip in parent_children
                        if not bonus_active[ip] and not (on_path >> ip) & 1)
        if best_reward is not None and current + remaining + potential <= best_reward:
            return
        for v in range(n):
            if (forbidden >> v) & 1:
                continue
            undo = push(v)
            seq.append(v)
            on_path |= 1 << v
            dfs(base + rewards[v] + edge[last][v],
                forbidden | (1 << v) | nonexempt_nbrs[last])
            on_path &= ~(1 << v)
            seq.pop()
            pop(undo)

    for s in range(n):
        undo = push(s)
        seq.append(s)
        on_path |= 1 << s
        dfs(rewards[s], 1 << s)
        on_path &= ~(1 << s)
        seq.pop()
        pop(undo)

    return Path(best_nodes, best_reward, covered_parents(graph, best_nodes))


def brute_force_mrap(graph: ReorderGraph) -> Path:
    """Oracle: try every valid ordered subset of nodes.

    Exhaustive DFS; a sequence is only extended while valid (an invalid
    non-adjacent pair never becomes valid again, so this skips nothing).
    Ties broken by lexicographically smallest node-id sequence. Limited to
    small graphs.
    """
    ids = sorted(graph.nodes)
    if not ids:
        raise ValueError("empty reorder graph")
    if len(ids) > BRUTE_FORCE_NODE_CAP:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_NODE_CAP} nodes, got {len(ids)}")
    best_nodes: tuple[str, ...] = ()
    best_reward: int | None = None

    def extend(seq: list[str], used: set[str]) -> None:
        nonlocal best_nodes, best_reward
        reward = path_reward(graph, seq)
        if (best_reward is None or reward > best_reward
                or (reward == best_reward and tuple(seq) < best_nodes)):
            best_reward, best_nodes = reward, tuple(seq)
        for n in ids:
            # pairs inside seq are valid by induction; appending n only adds
            # non-adjacent pairs (seq[i], n) for all but the current last
            if n in used or any(graph.has_edge(u, n) and not graph.is_exempt(u, n)
                                for u in seq[:-1]):
                continue
            used.add(n)
            seq.append(n)
            extend(seq, used)
            seq.pop()
            used.remove(n)

    for start in ids:
        extend([start], {start})
    return Path(best_nodes, best_reward, covered_parents(graph, best_nodes))
