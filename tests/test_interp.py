"""Reference interpreter semantics and equivalence checking."""

import numpy as np
import pytest

from helpers import ADD, CONCAT, INPUT, MIX, OUTPUT, PASS, PER, build_model, fan_fixture
from reslice.graph import LayerKind, ValidationError
from reslice.interp import EquivalenceReport, check_equivalence, graph_width, run

SLICE = LayerKind.SLICE
GATHER = LayerKind.GATHER


def chain(kind, width_in, width_out, params=None, seed=0):
    """in -> u -> out with a single layer of the given kind in the middle."""
    row = ("u", kind, width_in, width_out) if params is None else \
        ("u", kind, width_in, width_out, tuple(params))
    return build_model(
        [("in", INPUT, width_in, width_in), row,
         ("out", OUTPUT, width_out, width_out)],
        [("in", "u"), ("u", "out")], seed=seed)


def test_channel_mix_is_a_matrix():
    graph, weights = chain(MIX, 3, 2)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(run(graph, weights, x), weights["u"] @ x)


def test_pass_through_clamps_negatives():
    graph, weights = chain(PASS, 3, 3)
    out = run(graph, weights, [-1.0, 0.0, 2.5])
    assert np.array_equal(out, [0.0, 0.0, 2.5])


def test_per_channel_adds_its_vector():
    graph, weights = chain(PER, 3, 3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(run(graph, weights, x), x + weights["u"])


def test_slice_takes_a_window():
    graph, weights = chain(SLICE, 4, 2, params=(1, 2))
    out = run(graph, weights, [10.0, 11.0, 12.0, 13.0])
    assert np.array_equal(out, [11.0, 12.0])


def test_gather_fills_zeros_for_negative_indices():
    graph, weights = chain(GATHER, 3, 3, params=(2, -1, 0))
    out = run(graph, weights, [5.0, 6.0, 7.0])
    assert np.array_equal(out, [7.0, 0.0, 5.0])


def test_add_and_concat():
    graph, weights = build_model(
        [("in", INPUT, 2, 2), ("a", MIX, 2, 2), ("b", MIX, 2, 2),
         ("s", ADD, 2, 2), ("k", CONCAT, 4, 4), ("out", OUTPUT, 4, 4)],
        [("in", "a"), ("in", "b"), ("a", "s"), ("b", "s"),
         ("s", "k"), ("a", "k"), ("k", "out")])
    x = np.array([1.0, 2.0])
    va, vb = weights["a"] @ x, weights["b"] @ x
    out = run(graph, weights, x)
    assert np.allclose(out, np.concatenate([va + vb, va]))


def test_input_mask_zeroes_before_the_matrix():
    graph, weights = chain(MIX, 4, 2)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    masked = run(graph, weights, x, masks={"u": (0, 2)})
    assert np.allclose(masked, weights["u"] @ (x * [1, 0, 1, 0]))


def test_output_mask_zeroes_after_the_matrix():
    graph, weights = chain(MIX, 3, 3)
    x = np.array([1.0, -1.0, 2.0])
    masked = run(graph, weights, x, masks={"u": (1,)}, mask_side="output")
    expect = weights["u"] @ x * np.array([0.0, 1.0, 0.0])
    assert np.allclose(masked, expect)


@pytest.mark.parametrize("side", ["sideways", None, "Input"])
def test_an_unknown_mask_side_is_refused(side):
    # any side but "input" or "output" used to run the model unmasked
    graph, weights = chain(MIX, 3, 3)
    with pytest.raises(ValidationError, match="unknown side"):
        run(graph, weights, np.ones(3), masks={"u": (1,)}, mask_side=side)
    with pytest.raises(ValidationError, match="unknown side"):
        check_equivalence(graph, weights, {"u": (1,)}, graph, weights, mask_side=side)


def test_masks_only_touch_named_layers():
    graph, weights = fan_fixture(4, ("B", "D"))
    x = np.arange(4.0)
    assert np.allclose(run(graph, weights, x, masks={}),
                       run(graph, weights, x, masks={"B": (0, 1, 2, 3)}))


def test_input_shape_checked():
    graph, weights = chain(MIX, 3, 2)
    with pytest.raises(ValidationError):
        run(graph, weights, [1.0, 2.0])


def test_exactly_one_input_required():
    graph, weights = build_model(
        [("in1", INPUT, 2, 2), ("in2", INPUT, 2, 2), ("k", CONCAT, 4, 4),
         ("m", MIX, 4, 2), ("out", OUTPUT, 2, 2)],
        [("in1", "k"), ("in2", "k"), ("k", "m"), ("m", "out")])
    with pytest.raises(ValidationError):
        run(graph, weights, [1.0, 2.0, 3.0, 4.0])


def test_bad_weight_shape_caught_at_runtime():
    graph, weights = chain(MIX, 3, 2)
    weights["u"] = np.zeros((3, 3))
    with pytest.raises(ValidationError):
        run(graph, weights, [1.0, 2.0, 3.0])


def test_equivalence_of_identical_models():
    graph, weights = fan_fixture(4, ("B", "D"))
    report = check_equivalence(graph, weights, None, graph, weights)
    assert isinstance(report, EquivalenceReport)
    assert report.max_deviation == 0.0
    assert report.passed


def test_equivalence_catches_a_changed_weight():
    graph, weights = fan_fixture(4, ("B", "D"))
    other = weights.copy()
    other["B"] = other["B"] + 0.5
    report = check_equivalence(graph, weights, None, graph, other)
    assert not report.passed
    assert report.max_deviation > report.tol


def test_equivalence_uses_relative_scale():
    graph, weights = fan_fixture(4, ("B", "D"))
    other = weights.copy()
    other["B"] = other["B"] * (1.0 + 1e-13)
    report = check_equivalence(graph, weights, None, graph, other)
    assert 0.0 < report.max_deviation <= report.tol


def test_equivalence_is_seeded():
    graph, weights = fan_fixture(4, ("B", "D"))
    other = weights.copy()
    other["D"] = other["D"] + 1e-6
    a = check_equivalence(graph, weights, None, graph, other, seed=42)
    b = check_equivalence(graph, weights, None, graph, other, seed=42)
    assert a.max_deviation == b.max_deviation


@pytest.mark.parametrize("trials", [0, -1])
def test_equivalence_needs_a_trial(trials):
    # with no trial even a changed weight would pass
    graph, weights = fan_fixture(4, ("B", "D"))
    other = weights.copy()
    other["B"] = other["B"] + 0.5
    with pytest.raises(ValidationError, match="at least 1"):
        check_equivalence(graph, weights, None, graph, other, trials=trials)


def test_equivalence_requires_matching_boundaries():
    g1, w1 = chain(MIX, 3, 2)
    g2, w2 = chain(MIX, 4, 2)
    with pytest.raises(ValidationError):
        check_equivalence(g1, w1, None, g2, w2)
    assert graph_width(g1, INPUT) == 3
    assert graph_width(g1, OUTPUT) == 2


def test_batched_draws_equal_the_sequential_draws():
    # check_equivalence draws all trials at once; row t must be the t-th of
    # the per-trial draws it replaced
    rng = np.random.default_rng(3)
    sequential = np.stack([rng.standard_normal(5) for _ in range(8)])
    assert np.array_equal(np.random.default_rng(3).standard_normal((8, 5)), sequential)


def test_batched_equivalence_matches_the_per_trial_loop():
    graph, weights = fan_fixture(4, ("B", "D"))
    other = weights.copy()
    other["D"] = other["D"] + 1e-6
    masks = {"B": (0, 2), "D": (1, 2, 3)}
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(8):
        x = rng.standard_normal(4)
        a = run(graph, weights, x, masks)
        b = run(graph, other, x)
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(
            np.abs(a), np.abs(b))))))
    report = check_equivalence(graph, weights, masks, graph, other, trials=8, seed=5)
    assert report.max_deviation == pytest.approx(worst, rel=1e-9)


@pytest.mark.parametrize("model, masks, side", [
    (chain(GATHER, 3, 4, params=(2, -1, 0, 2)), None, "input"),
    (chain(PER, 3, 3), None, "input"),
    (chain(SLICE, 4, 2, params=(1, 2)), None, "input"),
    (chain(MIX, 4, 3), {"u": (0, 2)}, "input"),
    (chain(MIX, 4, 3), {"u": (1,)}, "output"),
    (fan_fixture(4, ("B", "D")), {"B": (0, 1), "D": (3,)}, "input"),
], ids=["gather", "per_channel", "slice", "input_mask", "output_mask", "fan"])
def test_a_batch_runs_as_columns(model, masks, side):
    graph, weights = model
    xs = np.random.default_rng(0).standard_normal((graph_width(graph, INPUT), 6))
    batched = run(graph, weights, xs, masks, side)
    columns = np.stack([run(graph, weights, x, masks, side) for x in xs.T], axis=1)
    assert batched.shape == columns.shape
    assert np.allclose(batched, columns, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape", [(2, 5), (3, 2, 2), ()])
def test_batch_shape_checked(shape):
    graph, weights = chain(MIX, 3, 2)
    with pytest.raises(ValidationError):
        run(graph, weights, np.zeros(shape))
