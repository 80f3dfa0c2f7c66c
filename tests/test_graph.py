"""IR construction, validation, and file round-trips."""

import json

import numpy as np
import pytest

from reslice.graph import (
    Layer,
    LayerKind,
    ModelFormatError,
    ModelGraph,
    ValidationError,
    WeightStore,
    graph_from_dict,
    graph_to_dict,
    load_masks,
    load_model,
    normalize_mask,
    save_masks,
    save_model,
    validate,
    validate_masks,
)

from helpers import MIX, build_model, fan_fixture, oracle_topological_order, random_dag


def test_duplicate_layer_ids_rejected():
    layers = [Layer("a", LayerKind.INPUT, 2, 2), Layer("a", LayerKind.OUTPUT, 2, 2)]
    with pytest.raises(ValidationError):
        ModelGraph(layers, [("a", "a")])


def test_edge_to_unknown_layer_rejected():
    layers = [Layer("a", LayerKind.INPUT, 2, 2)]
    with pytest.raises(ValidationError) as exc:
        ModelGraph(layers, [("a", "ghost")])
    assert "ghost" in str(exc.value)


def test_predecessors_preserve_edge_order():
    g, _ = build_model(
        [("in", LayerKind.INPUT, 2, 2), ("x", MIX, 2, 3), ("y", MIX, 2, 3),
         ("cat", LayerKind.CONCAT, 6, 6), ("out", LayerKind.OUTPUT, 6, 6)],
        [("in", "x"), ("in", "y"), ("y", "cat"), ("x", "cat"), ("cat", "out")],
    )
    assert g.predecessors("cat") == ("y", "x")


def test_topological_order_is_deterministic_and_valid():
    g, _ = fan_fixture()
    order = g.topological_order()
    pos = {lid: i for i, lid in enumerate(order)}
    for src, dst in g.edges:
        assert pos[src] < pos[dst]
    assert order == g.topological_order()


def test_topological_order_matches_list_kahn_oracle():
    # file order shuffled, so ties between ready layers actually occur and
    # the heap must pick the same one as the re-sorted ready list
    for seed in range(40):
        g, _ = random_dag(seed)
        rng = np.random.default_rng(seed)
        layers = [g.layers[i] for i in rng.permutation(len(g.layers))]
        shuffled = ModelGraph(layers, g.edges)
        for graph in (g, shuffled):
            order = graph.topological_order()
            assert order == oracle_topological_order(graph)
            assert graph.topological_order() is order
            assert [graph.topological_rank(lid) for lid in order] == list(range(len(order)))


def test_cycle_detected():
    layers = [
        Layer("in", LayerKind.INPUT, 2, 2),
        Layer("a", MIX, 2, 2),
        Layer("b", MIX, 2, 2),
        Layer("out", LayerKind.OUTPUT, 2, 2),
    ]
    g = ModelGraph(layers, [("in", "a"), ("a", "b"), ("b", "a"), ("b", "out")])
    assert any("cycle" in d for d in validate(g))


def test_validate_accepts_fixture():
    g, w = fan_fixture()
    assert validate(g, w) == []


def test_add_width_mismatch_flagged():
    layers = [
        Layer("in", LayerKind.INPUT, 2, 2),
        Layer("a", MIX, 2, 3),
        Layer("b", MIX, 2, 2),
        Layer("j", LayerKind.ADD, 3, 3),
        Layer("out", LayerKind.OUTPUT, 3, 3),
    ]
    g = ModelGraph(layers, [("in", "a"), ("in", "b"), ("a", "j"), ("b", "j"), ("j", "out")])
    assert any("mismatched" in d for d in validate(g))


def test_concat_width_must_sum():
    layers = [
        Layer("in", LayerKind.INPUT, 2, 2),
        Layer("a", MIX, 2, 3),
        Layer("b", MIX, 2, 2),
        Layer("cat", LayerKind.CONCAT, 4, 4),
        Layer("out", LayerKind.OUTPUT, 4, 4),
    ]
    g = ModelGraph(layers, [("in", "a"), ("in", "b"), ("a", "cat"), ("b", "cat"), ("cat", "out")])
    assert any("sum of inputs" in d for d in validate(g))


def test_slice_and_gather_param_checks():
    base = [
        Layer("in", LayerKind.INPUT, 4, 4),
        Layer("out", LayerKind.OUTPUT, 2, 2),
    ]
    bad_slice = ModelGraph(
        base + [Layer("s", LayerKind.SLICE, 4, 2, (3, 2))],
        [("in", "s"), ("s", "out")],
    )
    assert any("out of bounds" in d for d in validate(bad_slice))

    bad_gather = ModelGraph(
        base + [Layer("s", LayerKind.GATHER, 4, 2, (0, 9))],
        [("in", "s"), ("s", "out")],
    )
    assert any("out of range" in d for d in validate(bad_gather))

    # -1 is the zero-fill index and is legal
    ok = ModelGraph(
        base + [Layer("s", LayerKind.GATHER, 4, 2, (0, -1))],
        [("in", "s"), ("s", "out")],
    )
    assert validate(ok) == []


def test_params_rejected_on_other_kinds():
    g = ModelGraph(
        [Layer("in", LayerKind.INPUT, 2, 2),
         Layer("r", LayerKind.PASS_THROUGH, 2, 2, (1,)),
         Layer("out", LayerKind.OUTPUT, 2, 2)],
        [("in", "r"), ("r", "out")],
    )
    assert any("params only allowed" in d for d in validate(g))


def test_weight_shape_checks():
    g, w = fan_fixture()
    w["A"] = np.zeros((1, 1))
    assert any("weight shape" in d for d in validate(g, w))
    del w.tensors["A"]
    assert any("missing weight" in d for d in validate(g, w))


def test_weights_on_weightless_layer_flagged():
    g, w = fan_fixture()
    w["r"] = np.zeros(4)
    assert any("cannot carry weights" in d for d in validate(g, w))


def test_normalize_mask_sorts_and_dedupes():
    assert normalize_mask([3, 1, 3, 0]) == (0, 1, 3)
    assert normalize_mask(()) == ()


def test_validate_masks_sides_and_bounds():
    g, _ = fan_fixture()
    assert validate_masks(g, {"B": (0, 1)}) == []
    assert any("out of" in d for d in validate_masks(g, {"B": (0, 7)}))
    assert any("unknown layer" in d for d in validate_masks(g, {"zz": (0,)}))
    assert any("no channels" in d for d in validate_masks(g, {"B": ()}))
    assert any("channel-mixing" in d for d in validate_masks(g, {"r": (0,)}))
    # output side indexes the producer's rows, which are wider here
    assert validate_masks(g, {"B": (0, 1)}, side="output") == []
    assert any("out of" in d for d in validate_masks(g, {"B": (0, 3)}, side="output"))


def test_model_round_trip_bit_exact(tmp_path):
    g, w = fan_fixture()
    m1, w1 = tmp_path / "m.json", tmp_path / "w.json"
    save_model(g, w, m1, w1)
    g2, w2 = load_model(m1, w1)
    m2, w2f = tmp_path / "m2.json", tmp_path / "w2.json"
    save_model(g2, w2, m2, w2f)
    assert m1.read_bytes() == m2.read_bytes()
    assert w1.read_bytes() == w2f.read_bytes()
    assert graph_to_dict(g2) == graph_to_dict(g)


def test_load_model_rejects_bad_version(tmp_path):
    g, w = fan_fixture()
    m, wf = tmp_path / "m.json", tmp_path / "w.json"
    save_model(g, w, m, wf)
    obj = json.loads(m.read_text())
    obj["version"] = 99
    m.write_text(json.dumps(obj))
    with pytest.raises(ModelFormatError):
        load_model(m, wf)


def test_load_model_rejects_garbage(tmp_path):
    m, wf = tmp_path / "m.json", tmp_path / "w.json"
    m.write_text("{nope")
    wf.write_text("{}")
    with pytest.raises(ModelFormatError):
        load_model(m, wf)


def test_load_model_validates_invariants(tmp_path):
    g, w = fan_fixture()
    m, wf = tmp_path / "m.json", tmp_path / "w.json"
    save_model(g, w, m, wf)
    obj = json.loads(wf.read_text())
    obj["tensors"]["A"]["shape"] = [2, 2]
    obj["tensors"]["A"]["data"] = [0.0] * 4
    wf.write_text(json.dumps(obj))
    with pytest.raises(ValidationError):
        load_model(m, wf)


def test_graph_from_dict_reports_source():
    with pytest.raises(ModelFormatError) as exc:
        graph_from_dict({"version": 1, "layers": [{"id": "x"}], "edges": []}, "somefile")
    assert "somefile" in str(exc.value)


def test_masks_round_trip_and_normalization(tmp_path):
    path = tmp_path / "masks.json"
    save_masks({"B": [2, 0, 2], "D": (1,)}, path)
    loaded = load_masks(path)
    assert loaded == {"B": (0, 2), "D": (1,)}
    save_masks(loaded, tmp_path / "again.json")
    assert path.read_bytes() == (tmp_path / "again.json").read_bytes()
