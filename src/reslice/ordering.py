"""Channel ordering: a concrete memory layout for a segment's kept slots.

``find_zero_copy_order`` decides exactly whether a copy-free layout exists
and builds one. Within one band that is the consecutive-ones property of
the consumer x channel retained matrix: each consumer's retained slots must
be contiguous. ``_c1p_order`` decides it by overlap components (Hsu, *J.
Algorithms* 43(1), 2002) in O(m^2 n) for m consumers and n slots, with no
cap. A consumer reading across concatenated bands becomes one end-anchored
set per band it touches. The kept slots to lay out can be given apart from
the consumers, so a subset of them can be tested against the full layout.

``largest_c1p_order`` is the input-mode layout when no copy-free one
exists: a large subset of consumers with a copy-free layout, chosen
greedily by retained size and improved by single swaps; the rest gather.

``order_channels`` emits the layout of a path decomposition, which output
mode uses. Channels are emitted one at a time. Consumers on
the current path that have started (some channel emitted) but not finished
pin the choice to channels they all still need, which is what makes each
consumer's block contiguous when the path structure allows it. Ties prefer
channels wanted by the fewest not-yet-started consumers, so no consumer is
forced to start early.
"""

from __future__ import annotations

import logging
from typing import Iterable, Mapping

from reslice.path_search import Path
from reslice.reorder_graph import ReorderGraph
from reslice.segments import Segment

log = logging.getLogger(__name__)


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


def _refine(parts: list[set[int]], new: frozenset[int], union: set[int]) -> list[set[int]] | None:
    """Refine the ordered partition of an overlap component's union so that
    ``new``, which overlaps one of its sets, is a run of parts; None when
    it cannot be. The partition stands for its concatenations and their
    reversals, so flipping it is free."""
    hit = [i for i, part in enumerate(parts) if not part.isdisjoint(new)]
    a, b = hit[0], hit[-1]
    if b - a + 1 != len(hit) or not all(parts[i] <= new for i in range(a + 1, b)):
        return None
    fresh = new - union
    if fresh:
        # the union is contiguous, so the fresh slots extend the run past
        # one end of it; turn that end to the right
        last = len(parts) - 1
        if not (b == last and (a == b or parts[b] <= new)):
            if not (a == 0 and (a == b or parts[a] <= new)):
                return None
            parts = parts[::-1]
            a, b = last - b, last - a
    # an overlapping set never lies inside one part, so a < b when not fresh
    out = parts[:a] + [p for p in (parts[a] - new, parts[a] & new) if p]
    if b > a:
        out += parts[a + 1:b] + [p for p in (parts[b] & new, parts[b] - new) if p]
    out += parts[b + 1:]
    if fresh:
        out.append(set(fresh))
    return out


def _c1p_order(sets: Iterable[frozenset[int]], universe: Iterable[int]) -> list[int] | None:
    """An order of ``universe`` in which every set is contiguous, or None
    when there is none (the sets lie inside the universe).

    Each overlap component (sets joined by intersecting without nesting)
    fixes an ordered partition of its union up to reversal. The unions form
    a laminar family, and a nested union lies inside one part of the
    smallest component enclosing it. A component is turned so that its
    first part starts below its last, and inside a part child blocks and
    loose slots go by their smallest slot, so an order that already works
    comes back unchanged when it is ascending.
    """
    family = sorted({s for s in sets if s}, key=sorted)
    overlaps = [[j for j, t in enumerate(family)
                 if not s.isdisjoint(t) and not s <= t and not t <= s] for s in family]
    seen = [False] * len(family)
    components: list[tuple[set[int], list[set[int]]]] = []
    for i, first in enumerate(family):
        if seen[i]:
            continue
        seen[i] = True
        queue = [i]
        for k in queue:  # breadth first: each set overlaps an earlier one
            for j in overlaps[k]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        union, parts = set(first), [set(first)]
        for j in queue[1:]:
            parts = _refine(parts, family[j], union)
            if parts is None:
                return None
            union |= family[j]
        components.append((union, parts))

    # largest union first; a set equal to a bigger component's union is its
    # parent (its one part), not its child
    components.sort(key=lambda c: (-len(c[0]), len(c[1]), min(c[0])))
    children: dict[tuple[int, int] | None, list[int]] = {}
    for t, (union, _) in enumerate(components):
        key = None
        parent = next((p for p in range(t - 1, -1, -1) if union <= components[p][0]), None)
        if parent is not None:
            slot = next((i for i, part in enumerate(components[parent][1]) if union <= part), None)
            if slot is None:
                return None
            key = (parent, slot)
        children.setdefault(key, []).append(t)

    def emit(members: set[int], kids: list[int]) -> list[int]:
        covered = set().union(*(components[t][0] for t in kids))
        blocks = [[x] for x in members - covered] + [layout(t) for t in kids]
        blocks.sort(key=min)
        return [x for block in blocks for x in block]

    def layout(t: int) -> list[int]:
        parts = components[t][1]
        runs = [emit(part, children.get((t, i), [])) for i, part in enumerate(parts)]
        if min(parts[0]) > min(parts[-1]):
            runs.reverse()
        return [x for run in runs for x in run]

    return emit(set(universe), children.get(None, []))


def find_zero_copy_order(segment: Segment, retained: Mapping[str, frozenset[int]],
                         kept: frozenset[int] | None = None) -> tuple[int, ...] | None:
    """An order of the ``kept`` slots (by default every slot ``retained``
    names) in which the retained slots of every consumer in ``retained``
    are contiguous, or None when no such order exists or the segment is
    locked. A ``kept`` wider than ``retained`` tests a subset of the
    consumers against the full layout; the slots only the others keep go
    wherever they fit.

    Each band is solved on its own kept slots and the band layouts are
    concatenated in ``segment.bands`` order (``band_layouts`` splits them
    back). A consumer whose retained slots span bands F..G of its read
    vector keeps a suffix of F and a prefix of G, against two sentinels
    pinned to the ends of those bands, and must keep every slot of the
    bands between, each of which must keep some slot.
    """
    if segment.lock_reason:
        return None
    if kept is None:
        kept = frozenset().union(*retained.values())
    # stand-ins for the two ends of a band's layout; every slot sorts
    # between them, so orientation puts ``left`` first
    left, right = -1, segment.channel_space
    band_kept = [kept.intersection(band.slots) for band in segment.bands]
    families: list[list[frozenset[int]]] = [[] for _ in segment.bands]
    anchored: set[int] = set()
    for c, want in retained.items():
        runs = segment.band_reads[c]
        if len(set(runs)) < len(runs):
            return None
        touched = [i for i in runs if not want.isdisjoint(band_kept[i])]
        if len(touched) == 1:
            families[touched[0]].append(want)
        elif touched:
            first, last = runs.index(touched[0]), runs.index(touched[-1])
            if not all(band_kept[i] and band_kept[i] <= want for i in runs[first + 1:last]):
                return None
            families[touched[0]].append((want & band_kept[touched[0]]) | {right})
            families[touched[-1]].append((want & band_kept[touched[-1]]) | {left})
            anchored.update((touched[0], touched[-1]))

    order: list[int] = []
    for i, universe in enumerate(band_kept):
        sets = families[i]
        if i in anchored:
            sets = [*sets, universe | {left}, universe | {right}]
            universe = universe | {left, right}
        layout = _c1p_order(sets, universe)
        if layout is None:
            return None
        order += layout[1:-1] if i in anchored else layout
    return tuple(order)


def largest_c1p_order(segment: Segment, retained: Mapping[str, frozenset[int]],
                      ) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """An order of every kept slot in which a large subset of the consumers
    slice (their retained slots contiguous), and that subset by name; the
    others gather unless the order happens to suit them too. The segment
    must not be locked.

    Consumers are taken by descending retained size, then name, and each
    is kept while the chosen ones still have a copy-free layout of the
    full kept universe (``find_zero_copy_order``). Then, until no swap
    helps, one chosen consumer is swapped for one or two rejected ones
    whenever that strictly raises the retained size of the chosen set, and
    the rejected ones that fit after the swap join. A swap is tried only
    with rejected consumers that fit on their own once the chosen one
    leaves, and two of them only when their sets are disjoint or nested,
    which bounds the search on wide overlapping fans.
    """
    if segment.lock_reason:
        raise ValueError(f"segment {segment.id} keeps its layout: {segment.lock_reason}")
    kept = frozenset().union(*retained.values())
    size = {c: len(r) for c, r in retained.items()}
    ranked = sorted(retained, key=lambda c: (-size[c], c))

    def layout(group: list[str]) -> tuple[int, ...] | None:
        return find_zero_copy_order(segment, {c: retained[c] for c in group}, kept)

    def fill(chosen: list[str]) -> list[str]:
        for c in ranked:
            if c not in chosen and layout([*chosen, c]) is not None:
                chosen.append(c)
        return chosen

    def nested_or_disjoint(a: str, b: str) -> bool:
        ra, rb = retained[a], retained[b]
        return ra.isdisjoint(rb) or ra <= rb or rb <= ra

    def swap(chosen: list[str]) -> list[str] | None:
        rejected = [c for c in ranked if c not in chosen]
        for out in sorted(chosen, key=lambda c: (size[c], c)):
            rest = [c for c in chosen if c != out]
            moves = [(r,) for r in rejected if size[r] > size[out]]
            moves += [(r, s) for i, r in enumerate(rejected) for s in rejected[i + 1:]
                      if size[r] + size[s] > size[out] and nested_or_disjoint(r, s)]
            fits: dict[str, bool] = {}  # rejected consumer -> fits beside ``rest``

            def fits_alone(r: str) -> bool:
                if r not in fits:
                    fits[r] = layout([*rest, r]) is not None
                return fits[r]

            for move in moves:
                if all(map(fits_alone, move)) and (
                        len(move) == 1 or layout([*rest, *move]) is not None):
                    return [*rest, *move]
        return None

    chosen = fill([])
    while (better := swap(chosen)) is not None:
        chosen = fill(better)
    log.info("segment %s: rule c1p-subset, %d consumers chosen, %d rejected",
             segment.id, len(chosen), len(retained) - len(chosen))
    return layout(chosen), tuple(sorted(chosen))
