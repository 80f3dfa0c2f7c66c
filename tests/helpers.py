"""Shared fixtures, random generators and independent oracles.

The oracles deliberately re-derive results through different algorithms
than the library (plain reachability + union-find for segments, raw
permutation enumeration for zero-copy orders, a re-sorted ready list for
topological order) so agreement means something.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from reslice import Layer, LayerKind, ModelGraph, WeightStore
from reslice.graph import INTERIOR_KINDS
from reslice.segments import Segment, propagate_vectors

MIX = LayerKind.CHANNEL_MIX
PASS = LayerKind.PASS_THROUGH
ADD = LayerKind.ADD
CONCAT = LayerKind.CONCAT
PER = LayerKind.PER_CHANNEL
INPUT = LayerKind.INPUT
OUTPUT = LayerKind.OUTPUT


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


def zero_copy_exists(graph: ModelGraph, segment: Segment,
                     retained: dict[str, frozenset[int]]) -> bool:
    """Raw permutation oracle: does any per-band arrangement of the kept
    slots make every consumer's retained block contiguous?"""
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
        layouts = {}
        for band, layout in zip(segment.bands, arrangement):
            for p in band.producers:
                layouts[p] = layout
        vectors = propagate_vectors(graph, segment.interior, layouts)
        ok = True
        for c in segment.consumers:
            vec = vectors[graph.predecessors(c)[0]]
            spots = [i for i, s in enumerate(vec) if s in retained[c]]
            if spots and spots[-1] - spots[0] + 1 != len(spots):
                ok = False
                break
        if ok:
            return True
    return False
