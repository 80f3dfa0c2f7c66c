"""IR construction, validation, and file round-trips."""

import base64
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
    read_ints,
    save_masks,
    save_model,
    validate,
    validate_masks,
    weights_from_dict,
    weights_to_dict,
)

from helpers import (MIX, build_model, fan_fixture, oracle_topological_order, random_dag,
                     save_weights_v1)


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
    assert normalize_mask(np.array([2, 0, 2])) == (0, 2)


@pytest.mark.parametrize("mask,bad", [((0.5, 1.7, True), "0.5"), ((2.9, "3"), "2.9"),
                                      ((1, True), "True")])
def test_non_integer_mask_indices_are_refused_not_truncated(tmp_path, mask, bad):
    # int() would turn (0.5, 1.7, True) into [0, 1], a mask that
    # load_masks and validate_masks refuse
    with pytest.raises(ValidationError, match=f"mask index {bad} is not an integer"):
        normalize_mask(mask)
    with pytest.raises(ValidationError):
        save_masks({"B": mask}, tmp_path / "masks.json")
    assert not (tmp_path / "masks.json").exists()


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


@pytest.mark.parametrize("values, message", [
    ([1, 2.0], "expected an integer, got 2.0"), ([True, 1], "expected an integer, got True"),
    ([1, "2"], "expected an integer, got '2'"), ([None], "expected an integer, got None"),
    ((1, 2), "expected a list of integers"), ("12", "expected a list of integers"),
    (3, "expected a list of integers")])
def test_read_ints_rejects_what_read_int_rejects(values, message):
    with pytest.raises(ModelFormatError) as exc:
        read_ints(values)
    assert message in str(exc.value)


def test_read_ints_accepts_python_and_numpy_integers():
    assert read_ints([]) == ()
    assert read_ints([3, 1, 3]) == (3, 1, 3)
    got = read_ints([1, np.int64(2)])
    assert got == (1, 2) and set(map(type, got)) == {int}


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
    obj["tensors"]["A"] = weights_to_dict(WeightStore({"A": np.zeros((2, 2))}))["tensors"]["A"]
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
    # a key that is not a string is written as a string
    save_masks({7: [1]}, path)
    assert load_masks(path) == {"7": (1,)}


# --------------------------------------------------------------------------
# weights files: version 2 written, versions 1 and 2 read
# --------------------------------------------------------------------------

def _edge_store():
    """Values a decimal round trip could get wrong: signed zero, subnormals,
    extremes and a non-square shape."""
    tiny = np.nextafter(0.0, 1.0)
    return WeightStore({
        "m": np.array([[-0.0, 0.0, tiny], [-tiny, 2.2250738585072014e-308 / 3, 1e308],
                       [-1e-300, 0.1, 1.0 / 3.0], [np.pi, -np.e, 123456789.0]]),
        "v": np.array([-0.0, 5e-324, 1.5]),
    })


def _load_weights(path):
    return weights_from_dict(json.loads(path.read_text()), str(path))


def test_weights_file_is_version_2_with_base64_payloads(tmp_path):
    g, w = fan_fixture()
    m, wf = tmp_path / "m.json", tmp_path / "w.json"
    save_model(g, w, m, wf)
    obj = json.loads(wf.read_text())
    assert obj["version"] == 2
    for lid, rec in obj["tensors"].items():
        assert sorted(rec) == ["f64le", "shape"]
        assert rec["shape"] == list(w[lid].shape)
        raw = base64.b64decode(rec["f64le"], validate=True)
        assert raw == w[lid].astype("<f8").tobytes(order="C")


def test_weights_save_is_deterministic_across_runs_and_insertion_order(tmp_path):
    store = _edge_store()
    g, _ = fan_fixture()
    paths = [tmp_path / f"w{i}.json" for i in range(3)]
    save_model(g, store, tmp_path / "m.json", paths[0])
    save_model(g, store, tmp_path / "m.json", paths[1])
    reversed_store = WeightStore(dict(reversed(list(store.tensors.items()))))
    assert list(reversed_store.tensors) != list(store.tensors)
    save_model(g, reversed_store, tmp_path / "m.json", paths[2])
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def test_weights_versions_1_and_2_load_bit_identical_and_writable(tmp_path):
    store = _edge_store()
    g, _ = fan_fixture()
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    save_weights_v1(store, v1)
    save_model(g, store, tmp_path / "m.json", v2)
    assert json.loads(v1.read_text())["version"] == 1
    a, b = _load_weights(v1), _load_weights(v2)
    assert sorted(a.tensors) == sorted(b.tensors) == sorted(store.tensors)
    for lid, want in store.tensors.items():
        for got in (a[lid], b[lid]):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # -0.0 and subnormals survive
            assert got.flags.writeable
            got[(0,) * got.ndim] = 7.0  # and owned: no error, no shared buffer


def _v2_record(tamper):
    rec = weights_to_dict(WeightStore({"A": np.arange(4.0).reshape(2, 2)}))["tensors"]["A"]
    tamper(rec)
    return {"version": 2, "tensors": {"A": rec}}


def _payload(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


@pytest.mark.parametrize("tamper, message", [
    (lambda r: r.update(f64le="not base64!"), "bad tensor"),
    (lambda r: r.update(f64le=r["f64le"] + "\n"), "bad tensor"),
    (lambda r: r.update(f64le=r["f64le"][:-1]), "bad tensor"),
    (lambda r: r.update(f64le=_payload([1.0, 2.0, 3.0])), "24 payload bytes for shape [2, 2]"),
    (lambda r: r.update(f64le=_payload(range(5))), "40 payload bytes"),
    (lambda r: r.pop("f64le"), "'f64le'"),
    (lambda r: r.pop("shape"), "'shape'"),
    (lambda r: r.update(shape=[2, 2.0]), "expected an integer"),
    (lambda r: r.update(data=[0.0] * 4) or r.pop("f64le"), "'f64le'"),
    (lambda r: r.update(f64le=_payload([0.0, np.nan, 1.0, 2.0])), "non-finite"),
    (lambda r: r.update(f64le=_payload([0.0, 1.0, np.inf, 2.0])), "non-finite"),
    (lambda r: r.update(f64le=_payload([-np.inf, 0.0, 1.0, 2.0])), "non-finite"),
], ids=["alphabet", "whitespace", "padding", "short", "long", "no_payload", "no_shape",
        "float_shape", "version_1_record", "nan", "inf", "-inf"])
def test_weights_version_2_malformed(tamper, message):
    with pytest.raises(ModelFormatError) as exc:
        weights_from_dict(_v2_record(tamper), "wfile")
    assert "wfile" in str(exc.value) and message in str(exc.value)


@pytest.mark.parametrize("data", [[None, 1.0], [1e999, 1.0], [-1e999, 1.0], ["x", 1.0],
                                  [1.0], [True, 1.0], [0.5, False], ["1.5", 1.0],
                                  [[1.0], [2.0]], "12"],
                         ids=["null", "inf", "-inf", "string", "short", "true", "false",
                              "numeric_string", "nested", "not_a_list"])
def test_weights_version_1_malformed(data):
    obj = {"version": 1, "tensors": {"A": {"shape": [2], "data": data}}}
    with pytest.raises(ModelFormatError):
        weights_from_dict(obj)


@pytest.mark.parametrize("version", [0, 3, None, "2"])
def test_weights_unknown_version(version):
    with pytest.raises(ModelFormatError) as exc:
        weights_from_dict({"version": version, "tensors": {}})
    assert "want 1 or 2" in str(exc.value)
