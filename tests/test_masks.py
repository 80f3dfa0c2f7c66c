"""Channel scoring and mask construction."""

import hashlib
import json

import numpy as np
import pytest

import helpers
from helpers import (ADD, INPUT, MIX, OUTPUT, PASS, PER, build_model, concat_fixture,
                     dense_block, ramp_weights, random_dag, residual_block_fixture,
                     single_branch_fixture)
from reslice import masks as masks_module
from reslice.graph import ValidationError, validate_masks
from reslice.interp import check_equivalence
from reslice.masks import HEURISTICS, achieved_sparsity, make_masks, score_channels
from reslice.pipeline import export_model, plan_model
from reslice.segments import find_segments


def two_layer_model():
    graph, weights = build_model(
        [("in", INPUT, 3, 3), ("m1", MIX, 3, 3), ("m2", MIX, 3, 2),
         ("out", OUTPUT, 2, 2)],
        [("in", "m1"), ("m1", "m2"), ("m2", "out")])
    return graph, weights


def test_l1_and_l2_column_scores():
    graph, weights = two_layer_model()
    weights["m2"] = np.array([[3.0, 1.0, 0.0], [-4.0, 0.0, 2.0]])
    l1 = score_channels(graph, weights.tensors, "l1")
    l2 = score_channels(graph, weights.tensors, "l2")
    assert np.allclose(l1["m2"], [7.0, 1.0, 2.0])
    assert np.allclose(l2["m2"], [5.0, 1.0, 2.0])


def test_output_side_scores_rows():
    graph, weights = two_layer_model()
    weights["m2"] = np.array([[3.0, 1.0, 0.0], [-4.0, 0.0, 2.0]])
    out = score_channels(graph, weights.tensors, "l1", side="output")
    assert np.allclose(out["m2"], [4.0, 6.0])


def test_lamp_breaks_ties():
    # equal norms still rank apart: each norm over the suffix sum of the rest
    graph, weights = build_model(
        [("in", INPUT, 4, 4), ("m", MIX, 4, 1), ("out", OUTPUT, 1, 1)],
        [("in", "m"), ("m", "out")])
    weights["m"] = np.array([[2.0, 2.0, 2.0, 2.0]])
    lamp = score_channels(graph, weights.tensors, "lamp")
    assert np.allclose(lamp["m"], [0.25, 1 / 3, 0.5, 1.0])


def test_random_scores_are_seeded():
    graph, weights = two_layer_model()
    a = score_channels(graph, weights.tensors, "random", seed=5)
    b = score_channels(graph, weights.tensors, "random", seed=5)
    c = score_channels(graph, weights.tensors, "random", seed=6)
    for lid in a:
        assert np.array_equal(a[lid], b[lid])
    assert any(not np.array_equal(a[lid], c[lid]) for lid in a)


def test_scores_cover_matrix_layers_only():
    graph, weights = residual_block_fixture()
    scores = score_channels(graph, weights.tensors, "l1")
    assert sorted(scores) == ["A", "B", "C", "D"]


def test_unknown_heuristic_and_side():
    graph, weights = two_layer_model()
    with pytest.raises(ValidationError):
        score_channels(graph, weights.tensors, "linf")
    with pytest.raises(ValidationError):
        score_channels(graph, weights.tensors, "l1", side="sideways")


def test_zero_sparsity_keeps_everything():
    graph, weights = two_layer_model()
    scores = score_channels(graph, weights.tensors, "l1")
    masks = make_masks(graph, scores, 0.0, "unconstrained")
    assert masks == {"m1": (0, 1, 2), "m2": (0, 1, 2)}
    assert achieved_sparsity(scores, masks) == 0.0


def test_global_budget_is_floored():
    graph, weights = two_layer_model()
    scores = score_channels(graph, weights.tensors, "l1")
    # 6 scored pairs: floor(0.3 * 6) = 1, floor(0.5 * 6) = 3
    light = make_masks(graph, scores, 0.3, "unconstrained")
    heavy = make_masks(graph, scores, 0.5, "unconstrained")
    assert sum(len(v) for v in light.values()) == 5
    assert sum(len(v) for v in heavy.values()) == 3
    assert achieved_sparsity(scores, heavy) == 0.5


def test_global_budget_prunes_lowest_scores_first():
    graph, weights = two_layer_model()
    weights["m1"] = np.array([[9, 0.1, 9], [9, 0.1, 9], [9, 0.1, 9]], dtype=float)
    weights["m2"] = np.array([[5, 5, 0.2], [5, 5, 0.2]], dtype=float)
    scores = score_channels(graph, weights.tensors, "l1")
    masks = make_masks(graph, scores, 0.34, "unconstrained")
    assert masks["m1"] == (0, 2)
    assert masks["m2"] == (0, 1)


def test_layers_never_emptied():
    graph, weights = build_model(
        [("in", INPUT, 2, 2), ("m1", MIX, 2, 2), ("m2", MIX, 2, 2),
         ("out", OUTPUT, 2, 2)],
        [("in", "m1"), ("m1", "m2"), ("m2", "out")])
    scores = score_channels(graph, weights.tensors, "l1")
    masks = make_masks(graph, scores, 0.9, "unconstrained")
    for lid, retained in masks.items():
        assert len(retained) == 1, lid


def test_per_layer_scope():
    graph, weights = two_layer_model()
    # make m1's channels all cheaper than m2's: a global budget would drain
    # m1 first, per-layer pruning splits the work
    weights["m1"] = np.full((3, 3), 0.01)
    weights["m2"] = np.full((2, 3), 10.0)
    scores = score_channels(graph, weights.tensors, "l1")
    global_masks = make_masks(graph, scores, 0.5, "unconstrained")
    per_layer = make_masks(graph, scores, 0.5, "unconstrained", scope="per-layer")
    # global: both cheap m1 prunes allowed by the keep-one rule, then one m2
    assert global_masks == {"m1": (2,), "m2": (1, 2)}
    # per-layer: floor(0.5 * 3) = 1 prune in each layer
    assert len(per_layer["m1"]) == 2 and len(per_layer["m2"]) == 2


def test_masks_validate_on_their_side():
    graph, weights = residual_block_fixture()
    for side in ("input", "output"):
        scores = score_channels(graph, weights.tensors, "l2", side=side)
        masks = make_masks(graph, scores, 0.4, "unconstrained", side=side)
        assert validate_masks(graph, masks, side=side) == []


def test_constrained_masks_agree_across_readers():
    graph, weights = residual_block_fixture()
    scores = score_channels(graph, weights.tensors, "l1")
    masks = make_masks(graph, scores, 0.5, "constrained")
    # B and D read the same slots, so their retained sets must be equal
    assert sorted(masks) == ["A", "B", "C", "D"]
    assert set(masks["B"]) == set(masks["D"])
    # 16 pairs * 0.5 -> 8: B and D's three cheapest shared slots go first,
    # and a reader keeps at least one channel
    assert len(masks["B"]) == 1
    # A and C read the model input, whose segment is locked: they keep every
    # column, so the last two pairs of the budget go unspent
    assert masks["A"] == masks["C"] == (0, 1, 2, 3)
    assert achieved_sparsity(scores, masks) == 0.375


def test_constrained_protects_bands_and_readers():
    graph, weights = concat_fixture()
    scores = score_channels(graph, weights.tensors, "l1")
    masks = make_masks(graph, scores, 0.9, "constrained")
    assert set(masks["B"]) == set(masks["D"])
    kept = set(masks["B"])
    assert kept & {0, 1, 2}, "first producer band emptied"
    assert kept & {3, 4}, "second producer band emptied"


def test_constrained_masks_stay_copy_free():
    graph, weights = residual_block_fixture()
    segments = find_segments(graph)
    scores = score_channels(graph, weights.tensors, "l2")
    masks = make_masks(graph, scores, 0.5, "constrained")
    block = next(s for s in segments if set(s.producers) == {"A", "C"})
    plans, _ = plan_model(graph, masks, strategy="baseline")
    assert next(p for p in plans if p.segment == block.id).stats.copied == 0


def test_constrained_masks_export_copy_free_under_baseline_and_reorder():
    # a locked segment keeps its layout, so constrained masks prune none of
    # its slots: every reader of the model input, say, keeps all its columns
    models = [(name, getattr(helpers, name)()) for name in dir(helpers)
              if name.endswith("_fixture")]
    models += [(f"random_dag({seed})", random_dag(seed)) for seed in range(300)]
    assert len(models) == 310
    for i, (name, (graph, weights)) in enumerate(models):
        sparsity = (0.3, 0.5, 0.8)[i % 3]
        masks = make_masks(graph, score_channels(graph, weights.tensors, "l2"), sparsity,
                           "constrained")
        for strategy in ("baseline", "reorder"):
            result = export_model(graph, weights, masks, strategy=strategy)
            assert result.totals.copied == 0, (name, strategy)


def test_constrained_is_input_side_only():
    graph, weights = two_layer_model()
    scores = score_channels(graph, weights.tensors, "l1", side="output")
    with pytest.raises(ValidationError):
        make_masks(graph, scores, 0.3, "constrained", side="output")


def test_constrained_masks_take_the_global_scope_only():
    graph, weights = residual_block_fixture()
    scores = score_channels(graph, weights.tensors, "l1")
    with pytest.raises(ValidationError, match="constrained masks take the global scope only"):
        make_masks(graph, scores, 0.3, "constrained", scope="per-layer")


def test_output_masks_skip_fragile_producers():
    graph, weights = single_branch_fixture()
    scores = score_channels(graph, weights.tensors, "l1", side="output")
    masks = make_masks(graph, scores, 0.4, "unconstrained", side="output")
    # B feeds the model output (fixed layout); only A may drop filters
    assert sorted(masks) == ["A"]

    with_bias, wb = build_model(
        [("in", INPUT, 4, 4), ("A", MIX, 4, 4), ("p", PER, 4, 4),
         ("B", MIX, 4, 2), ("out", OUTPUT, 2, 2)],
        [("in", "A"), ("A", "p"), ("p", "B"), ("B", "out")])
    scores = score_channels(with_bias, wb.tensors, "l1", side="output")
    masks = make_masks(with_bias, scores, 0.4, "unconstrained", side="output")
    assert masks == {}


def test_output_masks_skip_a_producer_feeding_the_join_twice():
    # A reaches the join directly and through r; output mode cannot rebuild
    # such a join, so the masks leave A whole and the export succeeds
    graph, weights = build_model(
        [("in", INPUT, 4, 4), ("A", MIX, 4, 6), ("r", PASS, 6, 6), ("j", ADD, 6, 6),
         ("B", MIX, 6, 3), ("out", OUTPUT, 3, 3)],
        [("in", "A"), ("A", "r"), ("A", "j"), ("r", "j"), ("j", "B"), ("B", "out")])
    segment = next(s for s in find_segments(graph) if s.producers == ("A",))
    assert segment.lock_reason is None
    assert segment.output_lock_reason == "producer A feeds the join twice"
    scores = score_channels(graph, weights.tensors, "l2", side="output")
    masks = make_masks(graph, scores, 0.4, "unconstrained", side="output")
    assert "A" not in masks
    result = export_model(graph, weights, masks, mode="output")
    assert check_equivalence(graph, weights, masks, result.graph, result.weights,
                             mask_side="output").passed


def test_make_masks_validates_arguments():
    graph, weights = two_layer_model()
    scores = score_channels(graph, weights.tensors, "l1")
    with pytest.raises(ValidationError):
        make_masks(graph, scores, 1.0, "unconstrained")
    with pytest.raises(ValidationError):
        make_masks(graph, scores, -0.1, "unconstrained")
    with pytest.raises(ValidationError):
        make_masks(graph, scores, 0.5, "partial")
    with pytest.raises(ValidationError):
        make_masks(graph, scores, 0.5, "unconstrained", scope="band")
    for mode in ("unconstrained", "constrained"):
        with pytest.raises(ValidationError, match="unknown side 'sideways'"):
            make_masks(graph, scores, 0.4, mode, side="sideways")


@pytest.mark.parametrize("mode", ["unconstrained", "constrained"])
def test_make_masks_refuses_scores_of_the_other_side(mode):
    # a1 reads 4 channels and writes 5: its input-side scores do not fit its
    # filters, and the masks they gave named filters a1 does not have
    graph, weights = random_dag(1)
    scores = score_channels(graph, weights.tensors, "l2", side="input")
    with pytest.raises(ValidationError) as exc:
        make_masks(graph, scores, 0.5, "unconstrained", side="output")
    assert exc.value.diagnostics == ["a1: 4 scores for 5 output-side channels"]
    flipped = score_channels(graph, weights.tensors, "l2", side="output")
    with pytest.raises(ValidationError) as exc:
        make_masks(graph, flipped, 0.5, mode, side="input")
    assert exc.value.diagnostics == ["a1: 5 scores for 4 input-side channels"]
    with pytest.raises(ValidationError, match="scores name unknown layer 'ghost'"):
        make_masks(graph, {**scores, "ghost": np.ones(2)}, 0.5, mode)
    masks = make_masks(graph, flipped, 0.5, "unconstrained", side="output")
    assert validate_masks(graph, masks, "output") == []


def test_achieved_sparsity_counts_missing_layers_as_kept():
    graph, weights = two_layer_model()
    scores = score_channels(graph, weights.tensors, "l1")
    assert achieved_sparsity(scores, {"m1": (0,)}) == 2 / 6


# sha256 of the canonical JSON of every mask set `_mask_grid` builds
MASK_GRID_SHA256 = "052d2c723521adf23ba13a0e99575be9bfc9602a106e9680df01e7dcae5a2b06"


def _mask_grid():
    """Yield (label, graph, scores, sparsity, mode, side, scope) over 100
    ``random_dag`` seeds and a small dense block with ``ramp_weights``, whose
    many equal scores exercise every tie-break."""
    models = [(f"random_dag({seed})", random_dag(seed)[0]) for seed in range(100)]
    models.append(("dense_block(6, 32, 8)", dense_block(6, 32, 8)[0]))
    for name, graph in models:
        weights = ramp_weights(graph).tensors
        for heuristic in HEURISTICS:
            for side in ("input", "output"):
                scores = score_channels(graph, weights, heuristic, side=side, seed=3)
                for mode in ("unconstrained", "constrained"):
                    if mode == "constrained" and side == "output":
                        continue
                    for scope in ("global", "per-layer"):
                        if mode == "constrained" and scope == "per-layer":
                            continue
                        for sparsity in (0.0, 0.3, 0.5, 0.9):
                            label = f"{name} {heuristic} {side} {mode} {scope} {sparsity}"
                            yield label, graph, scores, sparsity, mode, side, scope


def test_masks_match_a_pinned_digest():
    # every mask set over a fixed grid, pinned by the sha256 of its canonical
    # JSON: a rewrite of the greedy pruning must return exactly these masks
    record = {}
    for label, graph, scores, sparsity, mode, side, scope in _mask_grid():
        masks = make_masks(graph, scores, sparsity, mode, side=side, scope=scope)
        record[label] = {lid: list(kept) for lid, kept in masks.items()}
    assert len(record) == 101 * 4 * 20
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == MASK_GRID_SHA256


def test_make_masks_finds_segments_at_most_once(monkeypatch):
    found = find_segments
    calls = []

    def counted(graph):
        calls.append(graph)
        return found(graph)
    monkeypatch.setattr(masks_module, "find_segments", counted)
    graph = dense_block(6, 32, 8)[0]
    weights = ramp_weights(graph).tensors
    for side, mode, scope in (("input", "unconstrained", "global"),
                              ("input", "unconstrained", "per-layer"),
                              ("input", "constrained", "global"),
                              ("output", "unconstrained", "global"),
                              ("output", "unconstrained", "per-layer")):
        scores = score_channels(graph, weights, "l2", side=side)
        calls.clear()
        make_masks(graph, scores, 0.5, mode, side=side, scope=scope)
        assert len(calls) <= 1, (side, mode, scope)
