"""Channel ordering: turn decomposed paths into a concrete memory layout.

Channels are emitted one at a time. Consumers on the current path that have
started (some channel emitted) but not finished pin the choice to channels
they all still need, which is what makes each consumer's block contiguous
when the path structure allows it. Ties prefer channels wanted by the
fewest not-yet-started consumers, so no consumer is forced to start early.

``find_zero_copy_order`` is a small exhaustive fallback: channels with
identical consumer membership are interchangeable, so it is enough to try
orderings of those membership classes per band. If any assignment makes
every consumer's retained block contiguous, one exists in that family.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial
from typing import Mapping

from reslice.graph import ModelGraph
from reslice.path_search import Path
from reslice.reorder_graph import ReorderGraph
from reslice.segments import Segment, propagate_vectors

MAX_PATTERNS_PER_BAND = 8
MAX_ZERO_COPY_COMBINATIONS = 50_000


def order_channels(graph: ReorderGraph, paths: list[Path]) -> tuple[int, ...]:
    """Emit a channel order realizing the given path decomposition: the
    retained slots in their new order (a slot no node retains is dropped).

    Paths are processed in order; each tracks its own nodes plus the
    parents it absorbed. Retained slots of nodes on no path are appended
    ascending at the end (they will be gathered, not sliced).
    """
    for path in paths:
        for node in (*path.nodes, *path.covered_parents):
            if node not in graph.nodes:
                raise KeyError(f"unknown reorder-graph node {node!r}")

    all_retained: set[int] = set()
    for node in graph.nodes.values():
        all_retained |= node.retained

    emitted: list[int] = []
    emitted_set: set[int] = set()
    for path in paths:
        tracked = [*path.nodes, *path.covered_parents]
        retained = {t: set(graph.nodes[t].retained) for t in tracked}

        def pending(t: str) -> set[int]:
            return retained[t] - emitted_set

        def started(t: str) -> bool:
            return bool(retained[t] & emitted_set)

        while any(pending(t) for t in tracked):
            active = [t for t in tracked if started(t) and pending(t)]
            if active:
                # serve every active consumer if possible; otherwise shed
                # the cheapest one (its block is already broken)
                pool = list(active)
                candidates = set.intersection(*(pending(t) for t in pool))
                while not candidates:
                    pool.remove(min(pool, key=lambda t: (len(retained[t]), t)))
                    candidates = set.intersection(*(pending(t) for t in pool))
            else:
                first = next(t for t in tracked if pending(t))
                candidates = pending(first)
            channel = min(candidates, key=lambda ch: (
                sum(1 for t in tracked if not started(t) and ch in retained[t]),
                ch))
            emitted.append(channel)
            emitted_set.add(channel)

    emitted.extend(sorted(all_retained - emitted_set))
    return tuple(emitted)


def band_layouts(segment: Segment, order: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
    """Per-producer slot layouts induced by a segment-wide channel order.

    Each producer keeps its own band's slots that ``order`` keeps, arranged
    by their position there. A band whose slots are all dropped keeps its
    lowest slot so no layer ends up with zero channels.
    """
    position = {slot: i for i, slot in enumerate(order)}
    layouts: dict[str, tuple[int, ...]] = {}
    for band in segment.bands:
        kept = sorted((s for s in band.slots if s in position), key=position.__getitem__)
        if not kept:
            kept = [min(band.slots)]
        for p in band.producers:
            layouts[p] = tuple(kept)
    return layouts


def _contiguous(vector: tuple[int, ...], wanted: frozenset[int]) -> bool:
    positions = [i for i, s in enumerate(vector) if s in wanted]
    return not positions or positions[-1] - positions[0] + 1 == len(positions)


def find_zero_copy_order(
    graph: ModelGraph,
    segment: Segment,
    retained: Mapping[str, frozenset[int]],
) -> tuple[int, ...] | None:
    """Search for a channel order making every consumer's block contiguous.

    Slots with identical consumer membership are grouped; each band tries
    every arrangement of its groups (ascending inside a group). Returns the
    first zero-copy arrangement as one order, the band layouts concatenated
    (bands are disjoint, so ``band_layouts`` gives them back), or None when
    none exists or the search space exceeds the safety caps.
    """
    if segment.lock_reason:
        return None
    all_retained: set[int] = set()
    for slots in retained.values():
        all_retained |= slots

    band_patterns: list[list[list[int]]] = []
    for band in segment.bands:
        kept = sorted(s for s in band.slots if s in all_retained)
        if not kept:
            kept = [min(band.slots)]
        by_membership: dict[frozenset[str], list[int]] = {}
        for slot in kept:
            key = frozenset(c for c, want in retained.items() if slot in want)
            by_membership.setdefault(key, []).append(slot)
        patterns = sorted(by_membership.values(), key=lambda g: g[0])
        if len(patterns) > MAX_PATTERNS_PER_BAND:
            return None
        band_patterns.append(patterns)

    combinations = 1
    for patterns in band_patterns:
        combinations *= factorial(len(patterns))
        if combinations > MAX_ZERO_COPY_COMBINATIONS:
            return None

    wanted = {c: frozenset(v) for c, v in retained.items()}
    for arrangement in product(*(permutations(p) for p in band_patterns)):
        layouts: dict[str, tuple[int, ...]] = {}
        for band, patterns in zip(segment.bands, arrangement):
            flat = tuple(s for group in patterns for s in group)
            for p in band.producers:
                layouts[p] = flat
        vectors = propagate_vectors(graph, segment.interior, layouts)
        if all(_contiguous(vectors[graph.predecessors(c)[0]], wanted[c])
               for c in segment.consumers):
            return tuple(s for band in segment.bands for s in layouts[band.producers[0]])
    return None
