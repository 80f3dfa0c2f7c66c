"""Channel ordering: a concrete memory layout for a segment's kept slots.

The layout is decided over a family of retained-slot sets, one per layer,
each with the bands it reads: consumers' retained input channels in input
mode, read across their whole read vector; producers' kept filters in
output mode, each inside its own band. A layer slices (or, as a producer,
needs no split) when its set is contiguous in the layout.

``find_zero_copy_order`` decides exactly whether a layout exists in which
every set is contiguous and builds one. Within one band that is the
consecutive-ones property of the set x slot matrix. ``_c1p_order`` decides
it by overlap components (Hsu, *J. Algorithms* 43(1), 2002) in O(m^2 n)
for m sets and n slots, with no cap. A family of at most one distinct
non-empty set skips the overlap components: it always has a layout, the
one the components would give. A set reading across concatenated bands
becomes one end-anchored set per band it touches; such a band also holds
two sentinel sets, so it always takes the overlap components. The kept
slots to lay out can be given apart from the sets, so a subset of them
can be tested against the full layout.

``largest_c1p_order`` is the layout when no copy-free one exists: a large
subset of the sets with a copy-free layout, chosen greedily by size and
improved by single swaps; the layers left out gather. The planner splits
either one into each producer's rows.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from typing import Iterable, Mapping

from reslice.graph import ValidationError
from reslice.segments import Segment

log = logging.getLogger(__name__)

# The most copy-free layout tests (``find_zero_copy_order`` calls) one
# ``largest_c1p_order`` makes. Each test rebuilds its overlap components
# from scratch, so unbounded swapping took seconds on wide overlapping fans
# (7,974 tests on a 128-consumer fan). The benchmark workloads, the golden
# corpus and a 48-layer dense block need at most 144, far below the cap.
# Past it the swaps stop and the best subset found so far stands.
MAX_C1P_TESTS = 3000


class _OutOfTests(Exception):
    """``largest_c1p_order`` spent its ``MAX_C1P_TESTS`` layout tests."""


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


def _overlap_components(family: list[frozenset[int]],
                        ) -> list[tuple[set[int], list[set[int]]]] | None:
    """The overlap components of ``family`` (sets joined by intersecting
    without nesting), each as its union and the ordered partition of that
    union it fixes up to reversal; None when a component fixes none."""
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
    return components


def _c1p_order(sets: Iterable[frozenset[int]], universe: Iterable[int]) -> list[int] | None:
    """An order of ``universe`` in which every set is contiguous, or None
    when there is none (the sets lie inside the universe).

    At most one non-empty set always has one: the loose slots ascending,
    with the set's slots as one ascending block placed by its smallest
    slot. Otherwise each overlap component fixes an ordered partition of
    its union up to reversal (``_overlap_components``). The unions form a
    laminar family, and a nested union lies inside one part of the
    smallest component enclosing it. A component is turned so that its
    first part starts below its last, and inside a part child blocks and
    loose slots go by their smallest slot, so an order that already works
    comes back unchanged when it is ascending.
    """
    family = set(filter(None, sets))
    if len(family) < 2:
        block = sorted(family.pop()) if family else []
        loose = sorted(set(universe).difference(block))
        cut = bisect_left(loose, block[0]) if block else 0
        return loose[:cut] + block + loose[cut:]
    components = _overlap_components(sorted(family, key=sorted))
    if components is None:
        return None

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

    def emit(members: set[int] | frozenset[int], kids: list[int]) -> list[int]:
        # the loose slots ascending, with each child block placed by its
        # smallest slot
        if not kids:
            return sorted(members)
        loose = sorted(members.difference(*[components[t][0] for t in kids]))
        out: list[int] = []
        done = 0
        for first, t in sorted([(min(components[t][0]), t) for t in kids]):
            cut = bisect_left(loose, first, done)
            out += loose[done:cut]
            out += layout(t)
            done = cut
        return out + loose[done:]

    def layout(t: int) -> list[int]:
        parts = components[t][1]
        turned = min(parts[0]) > min(parts[-1])
        out: list[int] = []
        for i in (range(len(parts) - 1, -1, -1) if turned else range(len(parts))):
            out += emit(parts[i], children.get((t, i), []))
        return out

    return emit(frozenset(universe), children.get(None, []))


def find_zero_copy_order(segment: Segment, retained: Mapping[str, frozenset[int]],
                         reads: Mapping[str, tuple[int, ...]],
                         kept: frozenset[int] | None = None) -> tuple[int, ...] | None:
    """An order of the ``kept`` slots (by default every slot ``retained``
    names) in which every set in ``retained`` is contiguous, or None when
    no such order exists or the segment is locked. ``reads[k]`` lists the
    indices into ``segment.bands`` that set ``k`` reads, one per run of
    its read vector, in read order (a consumer's ``band_reads``; a
    producer's own band alone). A ``kept`` wider than ``retained`` tests a
    subset of the sets against the full layout; the slots only the others
    keep go wherever they fit.

    Each band is solved on its own kept slots and the band layouts are
    concatenated in ``segment.bands`` order (``planner._producer_rows``
    splits them back). A set whose slots span bands F..G of its read
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
        runs = reads[c]
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
                      reads: Mapping[str, tuple[int, ...]],
                      ) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """An order of every kept slot in which a large subset of the sets in
    ``retained`` are contiguous, and that subset by layer name; the other
    layers gather unless the order happens to suit them too. ``reads`` is
    as for ``find_zero_copy_order``. The segment must not be locked.

    Sets are taken by descending size, then name, and each is kept while
    the chosen ones still have a copy-free layout of the full kept
    universe (``find_zero_copy_order``). Then, until no swap helps, one
    chosen set is swapped for one or two rejected ones whenever that
    strictly raises the total size of the chosen sets, and the rejected
    ones that fit after the swap join. A swap is tried only with rejected
    sets that fit on their own once the chosen one leaves, and two of them
    only when they are disjoint or nested. The search stops at
    ``MAX_C1P_TESTS`` layout tests, keeping the sets chosen by then, and
    the one INFO record it logs says so.
    """
    if segment.lock_reason:
        raise ValidationError([f"{segment.id}: a locked segment takes no channel order "
                               f"({segment.lock_reason})"])
    kept = frozenset().union(*retained.values())
    size = {c: len(r) for c, r in retained.items()}
    ranked = sorted(retained, key=lambda c: (-size[c], c))
    tests = 0

    def layout(group: list[str]) -> tuple[int, ...] | None:
        nonlocal tests
        if tests == MAX_C1P_TESTS:
            raise _OutOfTests
        tests += 1
        return find_zero_copy_order(segment, {c: retained[c] for c in group}, reads, kept)

    def fill(chosen: list[str]) -> None:
        for c in ranked:
            if c not in chosen and layout([*chosen, c]) is not None:
                chosen.append(c)

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
            fits: dict[str, bool] = {}  # rejected layer -> fits beside ``rest``

            def fits_alone(r: str) -> bool:
                if r not in fits:
                    fits[r] = layout([*rest, r]) is not None
                return fits[r]

            for move in moves:
                if all(map(fits_alone, move)) and (
                        len(move) == 1 or layout([*rest, *move]) is not None):
                    return [*rest, *move]
        return None

    chosen: list[str] = []
    stopped = ""
    try:
        fill(chosen)
        while (better := swap(chosen)) is not None:
            chosen = better
            fill(chosen)
    except _OutOfTests:  # ``chosen`` only ever grows by a layer that fits
        stopped = f", stopped after {MAX_C1P_TESTS} layout tests"
    log.info("segment %s: rule c1p-subset, %d layers chosen, %d rejected%s",
             segment.id, len(chosen), len(retained) - len(chosen), stopped)
    order = find_zero_copy_order(segment, {c: retained[c] for c in chosen}, reads, kept)
    return order, tuple(sorted(chosen))
