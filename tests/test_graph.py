"""IR construction, validation, and file round-trips."""

import base64
import io
import json
import math
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)

import reslice.graph
from reslice.cli import main as cli_main
from reslice.pipeline import export_model
from reslice.planner import load_plans, save_plans

from helpers import (CONCAT, INPUT, MIX, OUTPUT, PER, build_model, fan_fixture, oracle_file_bytes,
                     oracle_topological_order, oracle_weights_dict, random_dag, save_weights_v1)


def test_duplicate_layer_ids_rejected():
    layers = [Layer("a", LayerKind.INPUT, 2, 2), Layer("a", LayerKind.OUTPUT, 2, 2)]
    with pytest.raises(ValidationError):
        ModelGraph(layers, [("a", "a")])


def test_edge_to_unknown_layer_rejected():
    layers = [Layer("a", LayerKind.INPUT, 2, 2)]
    with pytest.raises(ValidationError) as exc:
        ModelGraph(layers, [("a", "ghost")])
    assert "ghost" in str(exc.value)


@pytest.mark.parametrize("edges", [[("i", 7)], []], ids=["connected", "alone"])
def test_layer_id_that_is_not_a_string_rejected(edges):
    # the files hold string ids only, so a graph with id 7 could be neither
    # connected nor saved
    layers = [Layer("i", LayerKind.INPUT, 2, 2), Layer(7, LayerKind.OUTPUT, 2, 2)]
    with pytest.raises(ValidationError, match="layer id 7 is not a string"):
        ModelGraph(layers, edges)


def test_edge_ends_are_not_converted_to_strings():
    layers = [Layer("i", LayerKind.INPUT, 2, 2), Layer("7", LayerKind.OUTPUT, 2, 2)]
    with pytest.raises(ValidationError, match=r"edge \('i', 7\) references unknown layer"):
        ModelGraph(layers, [("i", 7)])


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


def test_weights_for_an_unknown_layer_flagged(tmp_path):
    g, w = fan_fixture()
    w["ghost"] = np.zeros(4)
    assert validate(g, w) == ["weights hold a tensor for unknown layer 'ghost'"]
    m, wf = tmp_path / "m.json", tmp_path / "w.json"
    save_model(g, w, m, wf)
    with pytest.raises(ValidationError, match="unknown layer 'ghost'"):
        load_model(m, wf)


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
    with pytest.raises(ValidationError, match="unknown side 'sideways'"):
        validate_masks(g, {"B": (0, 1)}, side="sideways")


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
    obj["tensors"]["A"] = oracle_weights_dict(WeightStore({"A": np.zeros((2, 2))}))["tensors"]["A"]
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


def test_load_masks_sorts_and_dedupes_a_written_mask(tmp_path):
    path = tmp_path / "masks.json"
    path.write_text('{"version": 1, "retained": {"B": [3, 1, 3, 0], "D": []}}')
    assert load_masks(path) == {"B": (0, 1, 3), "D": ()}


@pytest.mark.parametrize("idx, why", [
    ("[1, 2.5]", "expected an integer, got 2.5"), ("[true]", "expected an integer, got True"),
    ("[null, 1]", "expected an integer, got None"), ("[1e999]", "expected an integer, got inf"),
    ('"0"', "expected a list of integers, got '0'")])
def test_load_masks_names_the_first_bad_index(tmp_path, idx, why):
    path = tmp_path / "masks.json"
    path.write_text('{"version": 1, "retained": {"B": ' + idx + '}}')
    with pytest.raises(ModelFormatError) as exc:
        load_masks(path)
    assert str(exc.value) == f"{path}: retained['B'] {why}"


@pytest.mark.parametrize("masks", [{7: (0, 1)}, {7: (0,), "B": (1,)}])
def test_save_masks_refuses_a_layer_id_that_is_not_a_string(tmp_path, masks):
    # as for save_model: written, 7 would be text no layer is named
    path = tmp_path / "masks.json"
    with pytest.raises(ValidationError, match="cannot write key 7: keys must be strings"):
        save_masks(masks, path)
    assert not path.exists()


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


@pytest.mark.parametrize("tensors", [{7: np.zeros((2, 2))},
                                     {7: np.zeros((2, 2)), "A": np.zeros((2, 2))}])
def test_save_model_refuses_a_layer_id_that_is_not_a_string(tmp_path, tensors):
    # written, 7 would be a bare number the reader refuses; mixed with
    # string ids it could not even be sorted
    g, _ = fan_fixture()
    m, wf = tmp_path / "m.json", tmp_path / "w.json"
    with pytest.raises(ValidationError, match="cannot write key 7: keys must be strings"):
        save_model(g, WeightStore(tensors), m, wf)
    assert not m.exists() and not wf.exists()


def _odd_ids_model():
    """A fan whose layer ids need escaping in JSON: a quote, a backslash,
    a non-ASCII letter and a newline."""
    rows = [("in", INPUT, 4, 4), ('a"', MIX, 4, 4), ("b\\", MIX, 4, 2), ("c\u00e9", MIX, 4, 2),
            ("d\n", CONCAT, 4, 4), ("out", OUTPUT, 4, 4)]
    edges = [("in", 'a"'), ('a"', "b\\"), ('a"', "c\u00e9"), ("b\\", "d\n"), ("c\u00e9", "d\n"),
             ("d\n", "out")]
    return build_model(rows, edges)


def test_every_file_writer_writes_the_oracle_layout(tmp_path):
    graph, weights = _odd_ids_model()
    masks = {"b\\": (0, 2), "c\u00e9": (3, 1)}
    result = export_model(graph, weights, masks)
    assert result.plans
    m, wf, p, k = (tmp_path / name for name in ("m.json", "w.json", "p.json", "k.json"))
    save_model(result.graph, result.weights, m, wf)
    save_plans(result.plans, p)
    save_masks(masks, k)
    assert m.read_bytes() == oracle_file_bytes(graph_to_dict(result.graph))
    assert wf.read_bytes() == oracle_file_bytes(oracle_weights_dict(result.weights))
    assert p.read_bytes() == oracle_file_bytes(json.loads(p.read_bytes()))
    assert k.read_bytes() == oracle_file_bytes(
        {"version": 1, "retained": {"b\\": [0, 2], "c\u00e9": [1, 3]}})
    # every odd id reaches each file, escaped
    for path in (m, wf, p):
        text = path.read_bytes()
        assert all(esc in text for esc in (b'a\\"', b"b\\\\", b"c\\u00e9"))
    assert b"d\\n" in m.read_bytes()
    assert load_plans(p) == sorted(result.plans, key=lambda plan: plan.segment)


@pytest.mark.parametrize("tensors", [
    {},
    {"A": np.array([[2.5]])},
    {"A": np.arange(6.0).reshape(2, 3).T},  # a transposed view: not C-contiguous
    {"A": np.arange(6.0).reshape(3, 2).astype(">f8")},
    {"A": np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(2, 3)},
    {"A": np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3])},
    {'a"': np.ones(1), "b\\": np.ones(2), "c\u00e9": np.ones(3), "d\n": np.ones(4)},
], ids=["empty", "1x1", "transposed", "big-endian", "float32", "signed-zero-subnormal",
        "escaped-ids"])
def test_save_model_writes_the_oracle_bytes(tmp_path, tensors):
    # tensors passed straight to WeightStore(...) keep their dtype and layout
    store = WeightStore(tensors)
    empty = ModelGraph([], [])
    m, wf = tmp_path / "m.json", tmp_path / "w.json"
    save_model(empty, store, m, wf)
    assert wf.read_bytes() == oracle_file_bytes(oracle_weights_dict(store))
    assert m.read_bytes() == oracle_file_bytes(graph_to_dict(empty))
    loaded = _load_weights(wf)
    assert sorted(loaded.tensors) == sorted(tensors)
    for lid, tensor in tensors.items():
        want = np.asarray(tensor, dtype="<f8")
        assert loaded[lid].shape == want.shape and loaded[lid].tobytes() == want.tobytes()


def test_save_model_holds_about_one_copy_of_a_payload(tmp_path):
    # 512x512 float64 is 2.1 MB of raw bytes and 2.8 MB of base64; encoding
    # the payload to a str and then to file bytes would hold three copies
    g = ModelGraph([Layer("in", INPUT, 512, 512), Layer("A", MIX, 512, 512),
                    Layer("out", OUTPUT, 512, 512)], [("in", "A"), ("A", "out")])
    store = WeightStore({"A": np.random.default_rng(0).standard_normal((512, 512))})
    tracemalloc.start()
    try:
        save_model(g, store, tmp_path / "m.json", tmp_path / "w.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6


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
    rec = oracle_weights_dict(WeightStore({"A": np.arange(4.0).reshape(2, 2)}))["tensors"]["A"]
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


def _load_v1_tokens(tokens):
    """Load JSON number texts as the one version-1 tensor of a model, the
    way ``reslice`` reads a weights file, flattened."""
    n = len(tokens)
    graph, weights = build_model(
        [("in", LayerKind.INPUT, n, n), ("m", MIX, n, 1), ("out", LayerKind.OUTPUT, 1, 1)],
        [("in", "m"), ("m", "out")])
    with tempfile.TemporaryDirectory() as tmp:
        model, wfile = Path(tmp, "v.model.json"), Path(tmp, "v.weights.json")
        save_model(graph, weights, model, wfile)
        data = ", ".join(tokens)
        wfile.write_text(f'{{"version": 1, "tensors": {{"m": {{"shape": [1, {n}], '
                         f'"data": [{data}]}}}}}}')
        return load_model(model, wfile)[1]["m"].reshape(-1)


def _assert_loads_as_float(tokens):
    want = np.array([float(t) for t in tokens])
    # compared as bits, so that -0.0 differs from 0.0
    assert (_load_v1_tokens(tokens).view(np.uint64).tolist()
            == want.view(np.uint64).tolist()), tokens


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_version_1_weights_load_every_finite_double_bit_identical(values):
    _assert_loads_as_float([repr(x) for x in values])


# a JSON number with a fraction or an exponent, which JSON readers hand to
# their float parser (an integer token such as -0 loads as an int)
FLOAT_TOKEN = r"-?(0|[1-9][0-9]{0,29})(\.[0-9]{1,30}([eE][-+]?[0-9]{1,3})?|[eE][-+]?[0-9]{1,3})"


@settings(deadline=None, max_examples=100)
@given(st.lists(st.from_regex(FLOAT_TOKEN, fullmatch=True)
                .filter(lambda t: math.isfinite(float(t))), min_size=1, max_size=20))
def test_version_1_weights_read_any_float_token_correctly_rounded(tokens):
    _assert_loads_as_float(tokens)


def _halfway(x):
    """The exact decimal midway between ``x`` and the next double up."""
    with localcontext() as ctx:
        ctx.prec = 1200
        return f"{(Decimal(x) + Decimal(np.nextafter(x, np.inf))) / 2:E}"


EDGE_TOKENS = [
    "4.9406564584124654e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
    _halfway(0.0), _halfway(5e-324), _halfway(1.0), _halfway(1.0 + 2 ** -52),
    _halfway(2.0 ** 53), _halfway(2.2250738585072014e-308), _halfway(1e308),
    "9007199254740993.0", "9007199254740995.0", "1e-400", "-1e-400", "-0.0", "0.0",
    "1.234567890123456789012345", "1234567890123456789012345.0",
    "0.1000000000000000055511151", "2.225073858507201136057409e-308",
    "1.797693134862315708145274e308", "-4.940656458412465441765687e-324",
    "1E5", "1e+5", "1e5", "1E-5", "-1.5E+300", "1.7976931348623157e308",
]


def test_version_1_weights_read_edge_tokens_correctly_rounded():
    _assert_loads_as_float(EDGE_TOKENS)


# --------------------------------------------------------------------------
# the weights-file reader against json.loads
# --------------------------------------------------------------------------

def _reader_files(tmp: Path) -> tuple[Path, Path, Path]:
    """A model in(3) -> m (2x3 mix) -> v (2 per-channel) -> out, a masks
    file for it, and the path its weights file is written to."""
    graph, weights = build_model(
        [("in", LayerKind.INPUT, 3, 3), ("m", MIX, 3, 2), ("v", PER, 2, 2),
         ("out", LayerKind.OUTPUT, 2, 2)],
        [("in", "m"), ("m", "v"), ("v", "out")])
    model, wfile, masks = tmp / "r.model.json", tmp / "r.weights.json", tmp / "r.masks.json"
    save_model(graph, weights, model, wfile)
    save_masks({"m": [0, 2]}, masks)
    return model, wfile, masks


def _weights_outcome(model: Path, wfile: Path, masks: Path):
    """What ``wfile`` loads as, by the reader ``load_model`` uses: each
    tensor's id, shape and bits, or the error's type and message; then the
    exit code and stderr of ``reslice stats`` on it."""
    try:
        store = weights_from_dict(reslice.graph._load_json(wfile, reslice.graph._WeightsDecoder),
                                  str(wfile))
        loaded = [(lid, t.dtype, t.shape, t.tobytes()) for lid, t in store.tensors.items()]
    except ValueError as exc:  # ModelFormatError and ValidationError among them
        loaded = (type(exc), str(exc))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli_main(["stats", "--model", str(model), "--weights", str(wfile),
                         "--masks", str(masks)])
    return loaded, code, err.getvalue()


def _assert_reads_as_json_loads(text: str, tmp: Path) -> None:
    """The weights reader gives what ``json.loads`` plus the checks of a
    plain dict give: the same bits, or the same error and exit code."""
    model, wfile, masks = _reader_files(tmp)
    wfile.write_text(text, encoding="utf-8")
    got = _weights_outcome(model, wfile, masks)
    with mock.patch.object(reslice.graph, "_WeightsDecoder", None):
        want = _weights_outcome(model, wfile, masks)
    assert got == want, text[:200]


M_DATA = "0.5, -1.25, 3.0, 0.001, -0.0, 2.5"


def _v1(m=M_DATA, v="1.5, -2.5", m_extra="", top_extra="", tensors_head=""):
    return ('{"version": 1, ' + top_extra + '"tensors": {' + tensors_head
            + '"m": {"data": [' + m + '], ' + m_extra + '"shape": [2, 3]}, '
            + '"v": {"data": [' + v + '], "shape": [2]}}}')


DEEP = '{"a": ' * 600 + "1.5" + "}" * 600
IDS = ('"a]": {"data": [1.5], "shape": [1]}, "b[": {"data": [2.5], "shape": [1]}, '
       '"c{": {"data": [0.5], "shape": [1]}, "d\\"]": {"data": [3.5], "shape": [1]}, ')

READER_CASES = {
    "plain": _v1(),
    "ascii_then_arabic_digit": _v1(m=M_DATA + ", 1\u0661"),
    "fraction_then_arabic_digit": _v1(m=M_DATA + ", 1.5\u0661"),
    "version_then_arabic_digit": _v1().replace('"version": 1', '"version": 1\u0661'),
    "nan": _v1(v="NaN, 1.5"),
    "infinity": _v1(v="1.5, Infinity"),
    "null": _v1(v="null, 1.5"),
    "nan_and_infinity_only": _v1(v="NaN, Infinity"),
    "nulls_only": _v1(v="null, null"),
    "true": _v1(v="true, 1.5"),
    "2**64": _v1(m=f"{2 ** 64}, -1.25, 3.0, 0.001, -0.0, 2.5"),
    "-2**63-1": _v1(m=f"0.5, -1.25, 3.0, {-2 ** 63 - 1}, -0.0, 2.5"),
    "only_integers_beyond_64_bits": _v1(v=f"{2 ** 64}, {-2 ** 64 - 1}"),
    "400_digit_integer": _v1(m="0.5, -1.25, 3.0, 0.001, -0.0, " + "9" * 400),
    "400_digit_integer_bad_shape": _v1(v="9" * 400),
    "1e999": _v1(v="1e999, 1.5"),
    "1e-400": _v1(v="1e-400, -1e-400"),
    "-0.0": _v1(v="-0.0, 0.0"),
    "all_integers": _v1(m="1, 2, 3, 4, -5, 0", v="-0, 7"),
    "mixed": _v1(m="1, 2.5, 3, 4.0, -5, 0.0"),
    "nested": _v1(m="[0.5, -1.25], [3.0, 0.001], [-0.0, 2.5]"),
    "string_in_data": _v1(v='1.5, "]"'),
    "ids_with_brackets_and_quotes": _v1(tensors_head=IDS),
    "duplicate_data": _v1(m_extra='"data": [9.5, 8.5, 7.5, 6.5, 5.5, 4.5], '),
    "duplicate_tensor": _v1(tensors_head='"m": {"data": [1.5], "shape": [1]}, '),
    "duplicate_version": _v1(top_extra='"version": 2, '),
    "tabs_and_crs": _v1().replace(", ", "\t,\r").replace(": ", "\r:\t"),
    "form_feed": _v1(v="1.5,\f-2.5"),
    "trailing_comma_in_data": _v1(v="1.5, -2.5,"),
    "trailing_comma_in_record": _v1().replace('"shape": [2]}', '"shape": [2],}'),
    "trailing_comma_in_tensors": _v1()[:-2] + ",}}",
    "empty_data": _v1(v=""),
    "empty_data_and_shape": _v1(v="").replace('"shape": [2]}', '"shape": [0]}'),
    "float_shape": _v1().replace('"shape": [2]}', '"shape": [2.0]}'),
    "floats_beside_data": _v1(m_extra='"scale": [0.5, 1.5], '),
    "deep_ignored_key": _v1(top_extra=f'"extra": {DEEP}, '),
    "deep_key_in_record": _v1(m_extra=f'"extra": {DEEP}, '),
    "byte_order_mark": "\ufeff" + _v1(),
    "extra_data": _v1() + " [1.5]",
    "not_an_object": "[1.5, -2.5]",
    "tensors_not_an_object": '{"version": 1, "tensors": [[1.5]]}',
    "record_not_an_object": '{"version": 1, "tensors": {"m": [1.5]}}',
    "version_2": json.dumps(oracle_weights_dict(WeightStore(
        {"m": np.arange(6.0).reshape(2, 3) / 3, "v": np.array([1.5, -2.5])}))),
}


@pytest.mark.parametrize("text", READER_CASES.values(), ids=READER_CASES.keys())
def test_weights_reader_matches_json_loads_on_edge_cases(text, tmp_path):
    _assert_reads_as_json_loads(text, tmp_path)


FLOAT_REPRS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
ANY_TOKEN = st.one_of(
    FLOAT_REPRS, st.from_regex(FLOAT_TOKEN, fullmatch=True),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.sampled_from(["NaN", "-Infinity", "null", "true", "false", "1e999", "-0", "1\u0661",
                     '"1.5"', "[1.5]", "{}", "9" * 400, "1e-400"]))


@st.composite
def version_1_files(draw):
    sep = draw(st.sampled_from([",", ", ", ",\n  ", "\t,\r\n"]))
    colon = draw(st.sampled_from([":", ": ", " :\t"]))

    def record(shape, size):
        data = draw(st.one_of(st.lists(FLOAT_REPRS, min_size=size, max_size=size),
                              st.lists(ANY_TOKEN, max_size=8)))
        shape = draw(st.sampled_from([shape, "[6]", "[2]", "[3, 2.0]", "[]"]))
        items = [f'"data"{colon}[{sep.join(data)}]', f'"shape"{colon}{shape}']
        if draw(st.booleans()):
            items.reverse()
        extra = draw(st.sampled_from(["", '"scale"{}[0.5, 1.5]', '"note"{}"x]"',
                                      '"more"{}{{"a": [1.5]}}']))
        if extra:
            items.insert(draw(st.integers(0, 2)), extra.format(colon))
        return "{" + sep.join(items) + "}"

    tensors = [f'"m"{colon}{record("[2, 3]", 6)}', f'"v"{colon}{record("[2]", 2)}']
    if draw(st.booleans()):
        tensors.reverse()
    version = draw(st.sampled_from(["1", "1", "1", "2", "1.0"]))
    return (f'{{"tensors"{colon}{{{sep.join(tensors)}}}{sep}'
            f'"version"{colon}{version}}}')


@settings(deadline=None, max_examples=150)
@given(version_1_files())
def test_weights_reader_matches_json_loads_on_drawn_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_reads_as_json_loads(text, Path(tmp))


class _CountingOrjson:
    """Stands in for the orjson module and records the length of the text
    each ``loads`` call parses."""

    JSONDecodeError = orjson.JSONDecodeError

    def __init__(self):
        self.lengths: list[int] = []

    def loads(self, text):
        self.lengths.append(len(text))
        return orjson.loads(text)


def test_weights_reader_parses_each_data_array_with_one_orjson_call(tmp_path, monkeypatch):
    graph, weights = build_model(
        [("in", LayerKind.INPUT, 100, 100), ("a", MIX, 100, 100), ("b", MIX, 100, 100),
         ("c", MIX, 100, 100), ("out", LayerKind.OUTPUT, 100, 100)],
        [("in", "a"), ("a", "b"), ("b", "c"), ("c", "out")])
    model, wfile = tmp_path / "m.json", tmp_path / "w.json"
    save_model(graph, weights, model, wfile)
    save_weights_v1(weights, wfile)
    counting = _CountingOrjson()
    monkeypatch.setattr(reslice.graph, "orjson", counting)
    loaded = load_model(model, wfile)[1]
    # one call for each 10k-value data array, and none for a shape array
    assert len(counting.lengths) == 3
    assert all(n > 10_000 for n in counting.lengths)
    for lid, want in weights.tensors.items():
        assert loaded[lid].tobytes() == want.tobytes()


def test_only_weights_files_are_parsed_at_python_level(tmp_path, monkeypatch):
    graph, weights = fan_fixture(4, ("B", "D"))
    masks = {"B": (0, 2), "D": (1, 3)}
    result = export_model(graph, weights, masks)
    model, wfile = tmp_path / "m.json", tmp_path / "w.json"
    save_model(result.graph, result.weights, model, wfile)
    save_weights_v1(result.weights, tmp_path / "w1.json")
    save_masks(masks, tmp_path / "masks.json")
    save_plans(result.plans, tmp_path / "plan.json")
    calls = []
    real = json.decoder.JSONObject
    monkeypatch.setattr(json.decoder, "JSONObject", lambda *a: calls.append(1) or real(*a))
    load_masks(tmp_path / "masks.json")
    load_plans(tmp_path / "plan.json")
    assert calls == []
    # the weights file's top object, its tensors and one call per record;
    # none for the model file
    for weights_file in (wfile, tmp_path / "w1.json"):
        calls.clear()
        load_model(model, weights_file)
        assert len(calls) == 2 + len(result.weights.tensors)


def _read_file(load):
    def read(obj, path):
        path.write_text(json.dumps(obj))
        return load(path)
    return read


READERS = {
    "masks": (_read_file(load_masks), {"retained": {}}),
    "plans": (_read_file(load_plans), {"segments": []}),
    "model": (lambda obj, _path: graph_from_dict(obj), {"layers": [], "edges": []}),
    "weights": (lambda obj, _path: weights_from_dict(obj), {"tensors": {}}),
}


@pytest.mark.parametrize("reader, version", [
    ("masks", True), ("masks", 1.0), ("plans", True), ("plans", 1.0),
    ("model", True), ("model", 1.0), ("weights", True), ("weights", 2.0)])
def test_file_versions_must_be_integers(tmp_path, reader, version):
    # true and 1.0 equal 1 in Python, and 2.0 equals 2; no reader takes them
    read, body = READERS[reader]
    with pytest.raises(ModelFormatError, match=f"unsupported version {version!r}"):
        read({"version": version, **body}, tmp_path / "file.json")


@pytest.mark.parametrize("version", [0, 3, None, "2"])
def test_weights_unknown_version(version):
    with pytest.raises(ModelFormatError) as exc:
        weights_from_dict({"version": version, "tensors": {}})
    assert "want 1 or 2" in str(exc.value)
