"""Segment discovery: the walk, slot spaces, bands, locks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslice import LayerKind, export_model, find_segments
from reslice.segments import propagate_vectors

from helpers import (
    ADD,
    CONCAT,
    INPUT,
    MIX,
    OUTPUT,
    PASS,
    build_model,
    concat_fixture,
    duplicate_read_fixture,
    fan_fixture,
    intra_producer_merge_fixture,
    oracle_segments,
    random_dag,
    residual_block_fixture,
    single_branch_fixture,
)


INPUT_PRODUCER = "a producer is the model input"
FEEDS_OUTPUT = "the segment feeds the model output"
ZERO_FILLED = "the segment carries zero-filled channels"
REPACKED = "an interior slice or gather selects channels by position"


def segment_by_producers(segments, producers):
    for seg in segments:
        if set(seg.producers) == set(producers):
            return seg
    raise AssertionError(f"no segment with producers {producers}")


def test_single_branch_segments():
    g, _ = single_branch_fixture()
    segs = find_segments(g)
    assert [(set(s.producers), set(s.consumers)) for s in segs] == [
        ({"A"}, {"B"}),
        ({"B"}, set()),
        ({"in"}, {"A"}),
    ]
    a = segment_by_producers(segs, {"A"})
    assert a.interior == ("r",)
    assert a.channel_space == 4
    assert a.consumer_slots["B"] == (0, 1, 2, 3)
    assert a.lock_reason is None


def test_residual_block_produces_multi_branch_segment():
    # the worked multi-branch example: the add ties A and C into one
    # segment read by both B and D
    g, _ = residual_block_fixture()
    segs = find_segments(g)
    seg = segment_by_producers(segs, {"A", "C"})
    assert set(seg.consumers) == {"B", "D"}
    assert set(seg.interior) == {"j", "r"}
    assert seg.channel_space == 4
    # add merges positionally: both producers share one band
    assert seg.producer_slots["A"] == seg.producer_slots["C"]
    assert len(seg.bands) == 1
    assert set(seg.bands[0].producers) == {"A", "C"}
    assert seg.lock_reason is None


def test_concat_keeps_producers_in_separate_bands():
    g, _ = concat_fixture(wa=3, wc=2)
    segs = find_segments(g)
    seg = segment_by_producers(segs, {"A", "C"})
    assert seg.channel_space == 5
    assert seg.producer_slots["A"] == (0, 1, 2)
    assert seg.producer_slots["C"] == (3, 4)
    assert seg.consumer_slots["B"] == (0, 1, 2, 3, 4)
    assert len(seg.bands) == 2
    assert seg.lock_reason is None


def test_join_feeding_only_output_still_closes_segment():
    # B and D join into the model output; the closure must still pull D
    # into B's segment even though the join has no downstream consumer
    g, _ = fan_fixture()
    segs = find_segments(g)
    seg = segment_by_producers(segs, {"B", "D"})
    assert seg.consumers == ()
    assert seg.lock_reason == FEEDS_OUTPUT


def test_input_producer_locks_segment():
    g, _ = fan_fixture()
    seg = segment_by_producers(find_segments(g), {"in"})
    assert seg.lock_reason == INPUT_PRODUCER
    assert set(seg.consumers) == {"A"}


def test_producer_also_feeding_output_is_locked():
    g, _ = build_model(
        [("in", INPUT, 3, 3), ("A", MIX, 3, 3), ("B", MIX, 3, 3),
         ("out", OUTPUT, 3, 3)],
        [("in", "A"), ("A", "B"), ("A", "out")],
    )
    seg = segment_by_producers(find_segments(g), {"A"})
    assert seg.lock_reason == FEEDS_OUTPUT


def test_interior_slice_locks_segment():
    g, _ = build_model(
        [("in", INPUT, 4, 4), ("A", MIX, 4, 4),
         ("s", LayerKind.SLICE, 4, 2, (1, 2)),
         ("B", MIX, 2, 2), ("out", OUTPUT, 2, 2)],
        [("in", "A"), ("A", "s"), ("s", "B"), ("B", "out")],
    )
    seg = segment_by_producers(find_segments(g), {"A"})
    assert seg.lock_reason == REPACKED
    assert seg.consumer_slots["B"] == (1, 2)


def test_input_producer_lock_takes_precedence_over_feeding_the_output():
    g, _ = build_model([("in", INPUT, 3, 3), ("A", MIX, 3, 3), ("out", OUTPUT, 3, 3)],
                       [("in", "A"), ("in", "out"), ("A", "out")])
    assert segment_by_producers(find_segments(g), {"in"}).lock_reason == INPUT_PRODUCER
    assert segment_by_producers(find_segments(g), {"A"}).lock_reason == FEEDS_OUTPUT


def _reexported_segment(mode, strategy, masks):
    """The exported residual block and its {A, C} segment."""
    graph, weights = residual_block_fixture()
    exported = export_model(graph, weights, masks, mode=mode, strategy=strategy).graph
    return exported, segment_by_producers(find_segments(exported), {"A", "C"})


def test_zero_filled_channels_lock_a_reexported_segment():
    # the output baseline restores each producer's width with a gather that
    # fills dropped filters with zeros; zero fill outranks the gather itself
    g, seg = _reexported_segment("output", "baseline", {"A": (0, 2, 3), "C": (0, 1, 3)})
    assert g.layer("A.restore").params == (0, -1, 1, 2)
    assert {"A.restore", "C.restore"} <= set(seg.interior)
    assert seg.lock_reason == ZERO_FILLED


@pytest.mark.parametrize("strategy, kind", [("reorder", LayerKind.SLICE),
                                            ("baseline", LayerKind.GATHER)])
def test_interior_reads_lock_a_reexported_segment(strategy, kind):
    # the first export gives B and D their own slice or gather of the join
    g, seg = _reexported_segment("input", strategy, {"B": (0, 2), "D": (1, 2)})
    assert {g.layer(r).kind for r in ("B.read", "D.read")} == {kind}
    assert {"B.read", "D.read"} <= set(seg.interior)
    assert seg.lock_reason == REPACKED


def test_duplicate_read_is_unsupported():
    # concat(f, g) and add(f, g) seen together force f and g onto the same
    # slots, so the concat reader sees every channel twice
    g, _ = duplicate_read_fixture()
    seg = segment_by_producers(find_segments(g), {"f", "g"})
    assert seg.lock_reason == "consumer X reads the same channel more than once"
    assert seg.bands == ()


def test_intra_producer_merge_is_unsupported():
    # concat(A, X) + concat(X, A) with mismatched widths chains A's own
    # channels onto each other
    g, _ = intra_producer_merge_fixture()
    seg = segment_by_producers(find_segments(g), {"A", "X"})
    assert "are identified with each other" in seg.lock_reason
    assert seg.bands == ()


def test_partial_band_overlap_locks():
    # add(A, concat(B, X)) aligns B with A's first two channels and X with
    # the third: every band then shares slots with A's without matching it
    g, _ = build_model(
        [("in", INPUT, 3, 3), ("A", MIX, 3, 3), ("B", MIX, 3, 2),
         ("X", MIX, 3, 1), ("cat", CONCAT, 3, 3), ("j", ADD, 3, 3),
         ("Y", MIX, 3, 2), ("out", OUTPUT, 2, 2)],
        [("in", "A"), ("in", "B"), ("in", "X"), ("B", "cat"), ("X", "cat"),
         ("A", "j"), ("cat", "j"), ("j", "Y"), ("Y", "out")],
    )
    seg = segment_by_producers(find_segments(g), {"A", "B", "X"})
    assert len(seg.bands) == 3
    assert seg.producer_slots["A"] == (0, 1, 2)
    assert seg.producer_slots["B"] == (0, 1)
    assert seg.producer_slots["X"] == (2,)
    assert seg.lock_reason == "producer bands overlap without being identical"


def test_every_producer_belongs_to_exactly_one_segment():
    g, _ = residual_block_fixture()
    segs = find_segments(g)
    seen = [p for s in segs for p in s.producers]
    assert len(seen) == len(set(seen))


def test_consumers_and_producers_walks():
    g, _ = residual_block_fixture()
    by_producers = {s.producers: s for s in find_segments(g)}
    first, second = by_producers[("A", "C")], by_producers[("B", "D")]
    # from A the walk reaches j, then C backward and B, D forward through r
    assert first.consumers == ("B", "D") and first.interior == ("j", "r")
    # the join feeding the model output pulls in both of its producers
    assert second.consumers == () and second.interior == ("j2",)
    assert second.lock_reason == FEEDS_OUTPUT and first.lock_reason is None


def test_a_layer_can_consume_and_produce_in_one_segment():
    # B reads A through r and feeds the join with A, so the backward step
    # from j makes it a producer of the segment it consumes
    g, _ = build_model(
        [("in", INPUT, 4, 4), ("A", MIX, 4, 4), ("r", PASS, 4, 4), ("B", MIX, 4, 4),
         ("j", ADD, 4, 4), ("out", OUTPUT, 4, 4)],
        [("in", "A"), ("A", "r"), ("r", "B"), ("A", "j"), ("B", "j"), ("j", "out")])
    seg = segment_by_producers(find_segments(g), {"A", "B"})
    assert (seg.producers, seg.consumers, seg.interior) == (("A", "B"), ("B",), ("j", "r"))
    assert seg.lock_reason == FEEDS_OUTPUT


def test_propagate_vectors_concat_and_add():
    g, _ = concat_fixture()
    vecs = propagate_vectors(g, {"k", "r"}, {"A": (10, 11, 12), "C": (20, 21)})
    assert vecs["k"] == (10, 11, 12, 20, 21)
    assert vecs["r"] == (10, 11, 12, 20, 21)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_segments_match_reachability_oracle(seed):
    g, _ = random_dag(seed)
    got = sorted((frozenset(s.producers), frozenset(s.consumers))
                 for s in find_segments(g))
    want = sorted((frozenset(p), frozenset(c)) for p, c in oracle_segments(g))
    assert got == want


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_consumer_vectors_cover_band_slots(seed):
    g, _ = random_dag(seed)
    for seg in find_segments(g):
        if not seg.bands:  # an ill-formed slot space
            continue
        all_slots = {s for b in seg.bands for s in b.slots}
        assert all_slots == set(range(seg.channel_space)) or seg.lock_reason
        for c in seg.consumers:
            vec = seg.consumer_slots[c]
            assert len(vec) == g.layer(c).in_channels
