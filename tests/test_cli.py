"""Command-line interface: exit codes, files written, output shape."""

import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (dense_block, duplicate_read_fixture, fan_fixture, input_residual_fixture,
                     intra_producer_merge_fixture, oracle_weights_dict,
                     per_channel_interior_fixture, ramp_weights, random_dag,
                     residual_block_fixture, save_weights_v1, stacked_joins_fixture)
import reslice.cli
from reslice.cli import main
from reslice.graph import (ModelFormatError, graph_to_dict, load_masks, load_model, save_masks,
                           save_model, weights_from_dict)
from reslice.masks import make_masks, score_channels
from reslice.pipeline import export_model
from reslice.planner import CopyStats, copy_report, load_plans, plan_to_dict, save_plans


@pytest.fixture()
def model_files(tmp_path):
    graph, weights = residual_block_fixture()
    model = tmp_path / "m.model.json"
    wfile = tmp_path / "m.weights.json"
    save_model(graph, weights, model, wfile)
    return tmp_path, str(model), str(wfile)


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_prune_export_verify_stats_round_trip(model_files, capsys):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    assert run_cli("prune", "--model", model, "--weights", weights,
                   "--heuristic", "l2", "--sparsity", "0.4",
                   "--out", masks) == 0
    out = capsys.readouterr().out
    assert "achieved sparsity" in out
    assert masks.exists()

    prefix = tmp / "exported"
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    out = capsys.readouterr().out
    assert "total:" in out
    for suffix in (".model.json", ".weights.json", ".plan.json"):
        assert (tmp / f"exported{suffix}").exists()

    assert run_cli("verify", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    assert "max deviation" in capsys.readouterr().out

    assert run_cli("stats", "--model", model, "--weights", weights,
                   "--masks", masks) == 0
    out = capsys.readouterr().out
    for strategy in ("reorder", "baseline", "constrained"):
        assert strategy in out


def test_missing_input_is_exit_1(model_files, capsys):
    tmp, model, weights = model_files
    assert run_cli("export", "--model", tmp / "nope.json", "--weights", weights,
                   "--masks", tmp / "m.json", "--out-prefix", tmp / "x") == 1
    assert "error" in capsys.readouterr().err


def test_validation_failures_are_exit_2(model_files, capsys):
    tmp, model, weights = model_files
    assert run_cli("prune", "--model", model, "--weights", weights,
                   "--heuristic", "l1", "--sparsity", "1.0",
                   "--out", tmp / "masks.json") == 2
    assert "sparsity" in capsys.readouterr().err

    bad = tmp / "bad_masks.json"
    save_masks({"B": (0, 97)}, bad)
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", bad, "--out-prefix", tmp / "x") == 2


def test_export_refuses_weights_for_an_unknown_layer(model_files, capsys):
    # the stray tensor would otherwise be copied into the exported weights
    tmp, model, weights = model_files
    graph, store = load_model(model, weights)
    store["ghost"] = np.zeros((2, 2))
    save_model(graph, store, model, weights)
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2)}, masks)
    capsys.readouterr()
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", tmp / "x") == 2
    assert "weights hold a tensor for unknown layer 'ghost'" in capsys.readouterr().err
    assert not (tmp / "x.weights.json").exists()


@pytest.mark.parametrize("model, mode, masks, segment", [
    (duplicate_read_fixture, "input", {"X": (0, 2)}, "f"),
    (intra_producer_merge_fixture, "input", {"B": (0, 2)}, "A"),
    (per_channel_interior_fixture, "output", {"A": (0, 2)}, "A"),
    (stacked_joins_fixture, "output", {"A": (0, 2)}, "A"),
    (input_residual_fixture, "output", {"A": (0, 2)}, "A"),
], ids=["duplicate-read", "intra-producer-merge", "per-channel-interior", "stacked-joins",
        "model-input-producer"])
def test_export_never_refuses_a_segment(tmp_path, capsys, model, mode, masks, segment):
    # input mode keeps an ill-formed segment's layout under every strategy,
    # and labels the plan with it; output mode gives a segment whose filters
    # it cannot drop the baseline infill, which stats lists as a fallback
    graph, weights = model()
    files = {"--model": tmp_path / "m.json", "--weights": tmp_path / "w.json",
             "--masks": tmp_path / "masks.json", "--mode": mode}
    save_model(graph, weights, files["--model"], files["--weights"])
    save_masks(masks, files["--masks"])
    args = [x for item in files.items() for x in item]
    strategies = ["reorder", "baseline"] + (["constrained"] if mode == "input" else [])
    for strategy in strategies:
        prefix = tmp_path / strategy
        assert run_cli("export", *args, "--strategy", strategy, "--out-prefix", prefix) == 0
        assert run_cli("verify", *args, "--out-prefix", prefix) == 0
        plan = json.loads(Path(f"{prefix}.plan.json").read_text())
        label = strategy if mode == "input" else "baseline"
        assert [(s["segment"], s["strategy"]) for s in plan["segments"]] == [(segment, label)]
    capsys.readouterr()
    assert run_cli("stats", *args, "--json") == 0
    rows = json.loads(capsys.readouterr().out)["strategies"]
    assert {r["strategy"]: r["fallback_segments"] for r in rows} == {
        s: [segment] if mode == "output" and s == "reorder" else [] for s in strategies}


def test_verify_mismatch_is_exit_4(model_files, capsys):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    prefix = tmp / "exported"
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0

    wpath = tmp / "exported.weights.json"
    tampered = weights_from_dict(json.loads(wpath.read_text()))
    lid = sorted(tampered.tensors)[0]
    tampered[lid].reshape(-1)[0] += 1.0
    wpath.write_text(json.dumps(oracle_weights_dict(tampered)))
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 4
    assert "verification failed" in capsys.readouterr().err

    # a corrupted plan also fails verification, not with a crash
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    ppath = tmp / "exported.plan.json"
    plan = json.loads(ppath.read_text())
    plan["segments"][0]["producer_orders"] = {}
    ppath.write_text(json.dumps(plan))
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 4


@pytest.mark.parametrize("name, message", [
    ("ghost", "names unknown layer 'ghost'"),
    ("out", "'out' does not read this segment"),  # an output layer
    ("A", "'A' does not read this segment"),  # a channel mix of another segment
    ("D", "a consumer is named twice"),  # the segment's other consumer
])
def test_verify_plan_naming_a_wrong_layer_is_exit_4(model_files, capsys, name, message):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    prefix = tmp / "exported"
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    ppath = tmp / "exported.plan.json"
    plan = json.loads(ppath.read_text())
    plan["segments"][0]["consumers"][0]["consumer"] = name
    ppath.write_text(json.dumps(plan))
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 4
    err = capsys.readouterr().err
    assert "verification failed" in err and message in err


@pytest.mark.parametrize("fixture", [residual_block_fixture, fan_fixture])
@pytest.mark.parametrize("entry", ["producer_orders", "perm", "zero_columns", "zero_rows",
                                   "repeated perm"])
def test_verify_plan_index_out_of_range_is_exit_4(tmp_path, capsys, fixture, entry):
    graph, weights = fixture()
    model, wfile, masks = (tmp_path / n for n in ("m.model.json", "m.weights.json", "masks.json"))
    save_model(graph, weights, model, wfile)
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    prefix = tmp_path / "exported"
    # a gather is the one read that records its columns, in "perm"; under
    # baseline both readers gather
    strategy = "baseline" if entry.endswith("perm") else "reorder"
    assert run_cli("export", "--model", model, "--weights", wfile, "--strategy", strategy,
                   "--masks", masks, "--out-prefix", prefix) == 0
    ppath = tmp_path / "exported.plan.json"
    plan = json.loads(ppath.read_text())
    segment = plan["segments"][0]
    first = segment["consumers"][0]
    if entry == "producer_orders":
        segment["producer_orders"]["A"][0] = 99
    elif entry == "perm":
        first["perm"][0] = 99
    elif entry == "zero_columns":
        segment["zero_columns"] = {first["consumer"]: [99]}
    elif entry == "zero_rows":  # no longer written; a non-empty one is refused
        segment["zero_rows"] = {"A": [99]}
    else:
        first["perm"][1] = first["perm"][0]
    ppath.write_text(json.dumps(plan))
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", wfile,
                   "--masks", masks, "--out-prefix", prefix) == 4
    err = capsys.readouterr().err
    assert "verification failed" in err
    if entry == "zero_rows":
        assert "zero_rows must be empty, got {'A': [99]}" in err
    else:
        assert "repeats an index or names one out of range" in err


def _tamper_plan(tmp, model, weights, capsys, tamper, mode="output"):
    """Export the residual block in ``mode``, edit the first segment of its
    plan file with ``tamper`` and return the exit code of verify."""
    masks = tmp / "masks.json"
    save_masks({"A": (0, 2, 3), "C": (0, 1, 3)} if mode == "output"
               else {"B": (0, 2), "D": (1, 2)}, masks)
    prefix = tmp / "exported"
    assert run_cli("export", "--model", model, "--weights", weights, "--mode", mode,
                   "--masks", masks, "--out-prefix", prefix) == 0
    ppath = tmp / "exported.plan.json"
    plan = json.loads(ppath.read_text())
    tamper(plan["segments"][0])
    ppath.write_text(json.dumps(plan))
    capsys.readouterr()
    return run_cli("verify", "--model", model, "--weights", weights, "--mode", mode,
                   "--masks", masks, "--out-prefix", prefix)


@pytest.mark.parametrize("tamper, message", [
    (lambda segment: segment["join"]["operands"].update(A="r"),
     "an operand of join 'j' does not feed it"),
    (lambda segment: segment["interior"].append("r"), "a layer inside the segment is named twice"),
    (lambda segment: segment["interior"].remove("j"), "'r' reads 'j', which is not in the segment"),
], ids=["operand", "interior-twice", "interior-missing"])
def test_verify_plan_whose_join_or_interior_misfits_the_model_is_exit_4(
        model_files, capsys, tamper, message):
    tmp, model, weights = model_files
    assert _tamper_plan(tmp, model, weights, capsys, tamper) == 4
    err = capsys.readouterr().err
    assert "verification failed" in err and message in err


@pytest.mark.parametrize("windows", [{"A": [0, 1], "B": [0, 1]}, {"ghost": [0, 1]}, {}],
                         ids=["consumer", "unknown", "empty"])
def test_verify_join_run_naming_a_non_operand_is_exit_4(model_files, capsys, windows):
    tmp, model, weights = model_files

    def tamper(segment):
        segment["join"]["runs"][0]["windows"] = windows
    assert _tamper_plan(tmp, model, weights, capsys, tamper) == 4
    err = capsys.readouterr().err
    assert "verification failed" in err and "names no producer or one that is not an operand" in err


@pytest.mark.parametrize("window", [[0], [0, 1, 2], 5])
def test_verify_join_window_of_the_wrong_shape_is_exit_4(model_files, capsys, window):
    tmp, model, weights = model_files

    def tamper(segment):
        segment["join"]["runs"][0]["windows"]["A"] = window
    assert _tamper_plan(tmp, model, weights, capsys, tamper) == 4
    err = capsys.readouterr().err
    assert "verification failed" in err and "bad plan record" in err


def test_verify_accepts_an_output_plan_file_with_the_old_kind_and_run_producers(
        model_files, capsys):
    # earlier versions also wrote the join's kind and each run's producers,
    # the sorted keys of its windows; the reader ignores both
    tmp, model, weights = model_files

    def tamper(segment):
        segment["join"]["kind"] = "add"
        for run in segment["join"]["runs"]:
            assert "producers" not in run
            run["producers"] = sorted(run["windows"])
    assert _tamper_plan(tmp, model, weights, capsys, tamper) == 0
    assert "max deviation" in capsys.readouterr().out


@pytest.mark.parametrize("mode, entry", [("output", "gather"), ("output", "zero_columns"),
                                         ("input", "infill"), ("input", "join"),
                                         ("input", "zeroing_gather")])
def test_verify_refuses_a_record_foreign_to_the_plan_mode(model_files, capsys, mode, entry):
    # the copy count reads the producers of an output-mode plan and the
    # consumers of an input-mode one, so a record of the other side would
    # copy uncounted: a gather for consumer B in an output-mode plan applies
    # and passes the equivalence check, yet copy_report would read copied=0.
    # A gather copies all it reads, and the count would miss a zeroed column
    tmp, model, weights = model_files

    def tamper(segment):
        if entry == "gather":
            read = next(a for a in segment["consumers"] if a["consumer"] == "B")
            del read["slice"]
            read["perm"] = [0, 1, 2, 3]
        elif entry == "zero_columns":
            segment["zero_columns"] = {"B": [0]}
        elif entry == "infill":
            segment["infill"] = ["A"]
        elif entry == "join":
            segment["join"] = {"join": "j", "operands": {"A": "A", "C": "C"},
                               "runs": [{"windows": {"A": [0, 4], "C": [0, 4]}}]}
        else:
            read = next(a for a in segment["consumers"] if a["consumer"] == "B")
            del read["slice"]
            read["perm"] = [0, 2]
            segment["zero_columns"] = {"B": [2]}
    assert _tamper_plan(tmp, model, weights, capsys, tamper, mode=mode) == 4
    err = capsys.readouterr().err
    assert "verification failed" in err
    assert ("plan.json: B: a gathering consumer zeroes columns" if entry == "zeroing_gather"
            else "an output-mode plan gathers or zeroes columns" if mode == "output"
            else "an input-mode plan restores a width or rebuilds a join") in err


@pytest.mark.parametrize("tamper, message", [
    (lambda segment: segment["producers"].append("r"),
     "plan A: producer 'r' is a pass_through layer"),
    (lambda segment: segment["interior"].append("B"), "B: unexpected channel_mix interior layer"),
    (lambda segment: (segment["producers"].append("in"),
                      segment["producer_orders"].update({"in": [1, 0, 2, 3]})),
     "in: cannot permute a model input"),
], ids=["pass_through_producer", "channel_mix_interior", "permuted_input"])
def test_verify_refuses_a_plan_that_misnames_a_layer_role(model_files, capsys, tamper, message):
    tmp, model, weights = model_files
    assert _tamper_plan(tmp, model, weights, capsys, tamper, mode="input") == 4
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ") and message in err


def test_verify_refuses_a_plan_file_without_a_segments_list(model_files, capsys):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    prefix = tmp / "x"
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    Path(f"{prefix}.plan.json").write_text('{"version": 1, "segments": {}}')
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 4
    assert f"{prefix}.plan.json: need a 'segments' list" in capsys.readouterr().err


@pytest.mark.parametrize("tamper, message", [
    (lambda m: m.pop("layers"), "need 'layers' and 'edges' lists"),
    (lambda m: m.update(edges={}), "need 'layers' and 'edges' lists"),
    (lambda m: m["edges"].append(["in"]), "bad edge record ['in']"),
    (lambda m: m["edges"].append(["in", "A", "C"]), "bad edge record ['in', 'A', 'C']"),
    (lambda m: m["edges"].append("in"), "bad edge record 'in'"),
    (lambda m: m["layers"].append(m["layers"][1]), "duplicate layer id 'A'"),
], ids=["no_layers", "edges_not_a_list", "short_edge", "long_edge", "edge_not_a_list",
        "duplicate_id"])
def test_export_of_a_model_file_off_its_schema_is_exit_1(model_files, capsys, tamper, message):
    tmp, model, weights = model_files
    obj = json.loads(Path(model).read_text())
    assert obj["layers"][1]["id"] == "A"
    tamper(obj)
    Path(model).write_text(json.dumps(obj))
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", tmp / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: ") and message in err
    assert not list(tmp.glob("x.*"))


@pytest.mark.parametrize("text", ['{"version": 1}', '{"version": 1, "retained": [[0]]}'],
                         ids=["missing", "a_list"])
def test_export_of_a_masks_file_without_a_retained_object_is_exit_1(model_files, capsys, text):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    masks.write_text(text)
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", tmp / "x") == 1
    assert capsys.readouterr().err == f"error: {masks}: need a 'retained' object\n"


@pytest.mark.parametrize("mode, masks, reads", [("input", {"B": (0, 1), "D": (0, 1)}, 4),
                                                ("output", {"A": (0, 1)}, 2)],
                         ids=["input", "output"])
@pytest.mark.parametrize("rename", [None, "Z"], ids=["duplicate", "renamed"])
def test_verify_refuses_a_plan_file_that_plans_one_segment_twice(
        tmp_path, capsys, mode, masks, reads, rename):
    # the second record would apply as a no-op after the first, yet count
    # its reads again: 8 or 4 reads where the segment has 4 or 2
    graph, weights = fan_fixture()
    model, wfile, mfile = tmp_path / "m.json", tmp_path / "w.json", tmp_path / "masks.json"
    save_model(graph, weights, model, wfile)
    save_masks(masks, mfile)
    common = ["--model", model, "--weights", wfile, "--masks", mfile, "--mode", mode,
              "--out-prefix", tmp_path / "x"]
    assert run_cli("export", *common) == 0
    ppath = tmp_path / "x.plan.json"
    assert copy_report(load_plans(ppath)).total_reads == reads
    obj = json.loads(ppath.read_text())
    rec, = obj["segments"]
    obj["segments"].append(dict(rec, segment=rename or rec["segment"]))
    ppath.write_text(json.dumps(obj))
    with pytest.raises(ModelFormatError, match="two records share "
                       + ("segment 'A'" if rename is None else "producer 'A'")):
        load_plans(ppath)
    capsys.readouterr()
    assert run_cli("verify", *common) == 4
    assert "verification failed" in capsys.readouterr().err


@pytest.mark.parametrize("entry, key, role", [
    ("producer_orders", "B", "producer"), ("zero_rows", "B", "producer"),
    ("infill", "B", "producer"), ("zero_columns", "A", "consumer")])
def test_verify_plan_entry_keyed_by_a_layer_outside_its_role_is_exit_4(
        model_files, capsys, entry, key, role):
    tmp, model, weights = model_files

    def tamper(segment):
        if entry == "infill":  # a list of the producers it restores
            segment[entry] = [key]
        else:
            segment.setdefault(entry, {})[key] = [1, 0]
    # only an output-mode plan holds an infill
    mode = "output" if entry == "infill" else "input"
    assert _tamper_plan(tmp, model, weights, capsys, tamper, mode=mode) == 4
    err = capsys.readouterr().err
    if entry == "zero_rows":  # no longer written; a non-empty one is refused
        assert "zero_rows must be empty, got {'B': [1, 0]}" in err
    else:
        assert f"keyed by {key!r}, which is not a {role} of the plan" in err


@pytest.mark.parametrize("entry", ["x", None, [0], 0.5, True])
def test_export_with_a_non_integer_mask_entry_is_exit_1(model_files, capsys, entry):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    masks.write_text(json.dumps({"version": 1, "retained": {"B": [0, entry]}}))
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", tmp / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected an integer" in err
    assert not (tmp / "x.plan.json").exists()


@pytest.mark.parametrize("field", ["in_channels", "params"])
def test_model_file_with_a_non_integer_count_is_exit_1(model_files, capsys, field):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    prefix = tmp / "exported"
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    exported = json.loads((tmp / "exported.model.json").read_text())
    read = next(rec for rec in exported["layers"] if rec["id"] == "B.read")
    read[field] = read[field] + 0.5 if field == "in_channels" else [x + 0.5 for x in read[field]]
    bad = tmp / "bad.model.json"
    bad.write_text(json.dumps(exported))
    assert run_cli("stats", "--model", bad, "--weights", tmp / "exported.weights.json",
                   "--masks", masks) == 1
    assert "expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, 7, True, ["a"]], ids=["null", "7", "true", "list"])
@pytest.mark.parametrize("where", ["layer id", "edge end", "plan consumer",
                                   "exported layer id"])
def test_a_layer_id_that_is_not_a_string_is_refused(model_files, capsys, where, value):
    # export inputs fail with exit 1; inside verify, the plan file and the
    # exported model count as a mismatch (exit 4). A reader that took
    # str(value) would load each of these files.
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    prefix = tmp / "exported"

    def rename_r(path, layer_id):
        # r is the pass-through between the join and its readers B and D
        doc = json.loads(Path(path).read_text())
        next(rec for rec in doc["layers"] if rec["id"] == "r")["id"] = layer_id
        doc["edges"] = [[value if end == "r" else end for end in edge] for edge in doc["edges"]]
        Path(path).write_text(json.dumps(doc))

    export = ("export", "--model", model, "--weights", weights, "--masks", masks,
              "--out-prefix", prefix)
    if where in ("layer id", "edge end"):
        rename_r(model, value if where == "layer id" else str(value))
        assert run_cli(*export) == 1
    else:
        assert run_cli(*export) == 0
        if where == "plan consumer":
            ppath = tmp / "exported.plan.json"
            plan = json.loads(ppath.read_text())
            plan["segments"][0]["consumers"][0]["consumer"] = value
            ppath.write_text(json.dumps(plan))
        else:
            rename_r(tmp / "exported.model.json", value)
        capsys.readouterr()
        assert run_cli("verify", "--model", model, "--weights", weights,
                       "--masks", masks, "--out-prefix", prefix) == 4
    assert f"expected a string, got {value!r}" in capsys.readouterr().err


def test_verify_plan_with_non_integer_indices_is_exit_4(model_files, capsys):
    tmp, model, weights = model_files

    def tamper(segment):
        for access in segment["consumers"]:
            key = "slice" if "slice" in access else "perm"
            access[key] = [i + 0.5 for i in access[key]]
    assert _tamper_plan(tmp, model, weights, capsys, tamper, mode="input") == 4
    err = capsys.readouterr().err
    assert "verification failed" in err and "expected an integer" in err


@pytest.mark.parametrize("key, value, message", [
    ("mode", 5, "expected a string, got 5"),
    ("mode", "sideways", "unknown mode 'sideways'"),
    ("strategy", ["x"], "expected a string, got ['x']"),
    ("strategy", "magic", "unknown strategy 'magic'"),
], ids=["mode-int", "mode-unknown", "strategy-list", "strategy-unknown"])
def test_verify_plan_with_an_unknown_mode_or_strategy_or_negative_reads_is_exit_4(
        model_files, capsys, key, value, message):
    tmp, model, weights = model_files

    def tamper(segment):
        segment[key] = value
    assert _tamper_plan(tmp, model, weights, capsys, tamper, mode="input") == 4
    err = capsys.readouterr().err
    assert "verification failed" in err and message in err


def test_a_falsified_copy_count_never_reaches_a_report(tmp_path):
    # the baseline gathers both consumers: 4 of 4 reads are copied, and
    # counts edited into an older file's stats and totals are not read
    graph, weights = fan_fixture()
    files = [tmp_path / "m.model.json", tmp_path / "m.weights.json"]
    save_model(graph, weights, *files)
    masks = tmp_path / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 3)}, masks)
    prefix = tmp_path / "x"
    assert run_cli("export", "--model", files[0], "--weights", files[1], "--masks", masks,
                   "--strategy", "baseline", "--out-prefix", prefix) == 0
    ppath = tmp_path / "x.plan.json"
    assert copy_report(load_plans(ppath)) == CopyStats(4, 4)
    obj = json.loads(ppath.read_text())
    assert "totals" not in obj and all("stats" not in rec for rec in obj["segments"])
    for rec in obj["segments"]:
        rec["stats"] = {"total_reads": 4, "copied": 0}
    obj["totals"] = {"total_reads": 4, "copied": 0}
    ppath.write_text(json.dumps(obj))
    assert copy_report(load_plans(ppath)) == CopyStats(4, 4)
    assert run_cli("verify", "--model", files[0], "--weights", files[1], "--masks", masks,
                   "--out-prefix", prefix) == 0
    # a count outside its bounds is ignored alike
    obj["totals"] = {"total_reads": -1, "copied": 0}
    ppath.write_text(json.dumps(obj))
    assert copy_report(load_plans(ppath)) == CopyStats(4, 4)


@pytest.mark.parametrize("exported, masks, verified", [
    ("output", {"A": (0, 2)}, "input"),
    ("input", {"B": (0, 1)}, "output"),
], ids=["output-plan-verified-as-input", "input-plan-verified-as-output"])
def test_verify_refuses_a_plan_of_another_mode(model_files, capsys, exported, masks, verified):
    # replayed under the wrong mode, a sound plan fails numerically; the
    # plan records its mode, so verify names both instead
    tmp, model, weights = model_files
    mfile = tmp / "masks.json"
    save_masks(masks, mfile)
    args = ("--model", model, "--weights", weights, "--masks", mfile, "--out-prefix", tmp / "x")
    assert run_cli("export", *args, "--mode", exported) == 0
    capsys.readouterr()
    assert run_cli("verify", *args, "--mode", verified) == 4
    out, err = capsys.readouterr()
    assert "max deviation" not in out
    assert (f"verification failed: the plan is for {exported} mode, but --mode is {verified}"
            in err)


def test_verify_output_plan_with_the_constrained_strategy_is_exit_4(model_files, capsys):
    # export never writes such a plan: output mode plans no constrained strategy
    tmp, model, weights = model_files

    def tamper(segment):
        segment["strategy"] = "constrained"
    assert _tamper_plan(tmp, model, weights, capsys, tamper) == 4
    err = capsys.readouterr().err
    assert "verification failed" in err and "unknown strategy 'constrained' for output mode" in err


@pytest.mark.parametrize("mode,masks", [
    ("input", {"B": (0, 2), "D": (1, 2)}),
    ("output", {"A": (0, 2, 3), "C": (0, 1, 3)})])
def test_verify_accepts_a_plan_file_with_the_old_dropped_field(model_files, capsys, mode, masks):
    # earlier versions also wrote each producer's dropped filters, the
    # complement of its filter order; the reader ignores them
    tmp, model, weights = model_files
    mfile = tmp / "masks.json"
    save_masks(masks, mfile)
    prefix = tmp / "exported"
    assert run_cli("export", "--model", model, "--weights", weights, "--mode", mode,
                   "--masks", mfile, "--out-prefix", prefix) == 0
    ppath = tmp / "exported.plan.json"
    plans = load_plans(ppath)
    old = json.loads(ppath.read_text())
    for segment in old["segments"]:  # both producers, A and C, are 4 wide
        assert "dropped" not in segment
        segment["dropped"] = {p: sorted(set(range(4)) - set(rows))
                              for p, rows in segment["producer_orders"].items()}
    if mode == "output":
        assert old["segments"][0]["dropped"] == {"A": [1], "C": [2]}
    ppath.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    assert load_plans(ppath) == plans
    assert run_cli("verify", "--model", model, "--weights", weights, "--mode", mode,
                   "--masks", mfile, "--out-prefix", prefix) == 0
    assert "max deviation" in capsys.readouterr().out


# plan records as an earlier layout wrote them, with the fields now derived
# when a plan is applied: "per_channel", each slice's column order in
# "perm", each gather's positions in "gather", the join's "keep_original"
# and each infill's gather parameters
OLD_LAYOUT_PLANS = {
    "per-channel": (per_channel_interior_fixture, "input", "reorder", {"B": (1, 3)}, (
        '{"consumers":[{"consumer":"B","perm":[1,3],"slice":[0,2]}],"infill":{},'
        '"interior":["p"],"join":null,"mode":"input","per_channel":{"p":[1,3]},'
        '"producer_orders":{"A":[1,3]},"producers":["A"],"segment":"A",'
        '"strategy":"reorder","zero_columns":{}}')),
    "gather": (lambda: fan_fixture(4, ("B", "C", "D")), "input", "reorder",
               {"B": (0, 2, 3), "C": (1, 2, 3), "D": (0, 1)}, (
        '{"consumers":[{"consumer":"B","perm":[0,2,3],"slice":[0,3]},'
        '{"consumer":"C","perm":[2,3,1],"slice":[1,3]},'
        '{"consumer":"D","gather":[0,3],"perm":[0,1]}],"infill":{},"interior":["r"],'
        '"join":null,"mode":"input","per_channel":{},"producer_orders":{"A":[0,2,3,1]},'
        '"producers":["A"],"segment":"A","strategy":"reorder","zero_columns":{}}')),
    "join": (residual_block_fixture, "output", "reorder", {"A": (0, 2, 3), "C": (0, 1, 3)}, (
        '{"consumers":[{"consumer":"B","perm":[1,0,3,2],"slice":[0,4]},'
        '{"consumer":"D","perm":[1,0,3,2],"slice":[0,4]}],"infill":{},"interior":["j","r"],'
        '"join":{"join":"j","keep_original":false,"operands":{"A":"A","C":"C"},'
        '"runs":[{"windows":{"C":[0,1]}},{"windows":{"A":[0,2],"C":[1,2]}},'
        '{"windows":{"A":[2,1]}}]},"mode":"output","per_channel":{},'
        '"producer_orders":{"A":[0,3,2],"C":[1,0,3]},"producers":["A","C"],"segment":"A",'
        '"strategy":"reorder","zero_columns":{}}')),
    "kept-join": (residual_block_fixture, "output", "reorder", {"A": (0, 2, 3), "C": (0, 2, 3)}, (
        '{"consumers":[{"consumer":"B","perm":[0,2,3],"slice":[0,3]},'
        '{"consumer":"D","perm":[0,2,3],"slice":[0,3]}],"infill":{},"interior":["j","r"],'
        '"join":{"join":"j","keep_original":true,"operands":{"A":"A","C":"C"},'
        '"runs":[{"windows":{"A":[0,3],"C":[0,3]}}]},"mode":"output","per_channel":{},'
        '"producer_orders":{"A":[0,2,3],"C":[0,2,3]},"producers":["A","C"],"segment":"A",'
        '"strategy":"reorder","zero_columns":{}}')),
    "infill": (residual_block_fixture, "output", "baseline", {"A": (0, 2, 3), "C": (0, 1, 3)}, (
        '{"consumers":[],"infill":{"A":[0,-1,1,2],"C":[0,1,-1,2]},"interior":["j","r"],'
        '"join":null,"mode":"output","per_channel":{},'
        '"producer_orders":{"A":[0,2,3],"C":[0,1,3]},"producers":["A","C"],"segment":"A",'
        '"strategy":"baseline","zero_columns":{}}')),
}


def _garble_derived_fields(segment):
    segment["per_channel"] = {"ghost": [99, 99]}
    for read in segment["consumers"]:
        read["perm" if "slice" in read else "gather"] = [99, 99]
    if segment["join"]:
        segment["join"]["keep_original"] = not segment["join"]["keep_original"]
    segment["infill"] = {p: [99] for p in segment["infill"]}


@pytest.mark.parametrize("case", sorted(OLD_LAYOUT_PLANS))
def test_a_plan_file_in_the_old_layout_verifies_whatever_its_derived_fields_hold(
        tmp_path, capsys, case):
    fixture, mode, strategy, masks, record = OLD_LAYOUT_PLANS[case]
    graph, weights = fixture()
    model, wfile, mfile = (tmp_path / n for n in ("m.model.json", "m.weights.json", "masks.json"))
    save_model(graph, weights, model, wfile)
    save_masks(masks, mfile)
    prefix = tmp_path / "x"
    assert run_cli("export", "--model", model, "--weights", wfile, "--mode", mode,
                   "--strategy", strategy, "--masks", mfile, "--out-prefix", prefix) == 0
    ppath = tmp_path / "x.plan.json"
    plans = load_plans(ppath)
    segment = json.loads(record)
    for garbled in (False, True):
        if garbled:
            _garble_derived_fields(segment)
        ppath.write_text(json.dumps({"version": 1, "segments": [segment]}))
        assert load_plans(ppath) == plans
        capsys.readouterr()
        assert run_cli("verify", "--model", model, "--weights", wfile, "--mode", mode,
                       "--masks", mfile, "--out-prefix", prefix) == 0
        assert "max deviation" in capsys.readouterr().out


def test_verify_with_other_masks_than_the_export_is_exit_4(model_files, capsys):
    tmp, model, weights = model_files
    masks, other = tmp / "masks.json", tmp / "other.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    save_masks({"B": (0, 1), "D": (1, 2)}, other)
    prefix = tmp / "exported"
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", weights,
                   "--masks", other, "--out-prefix", prefix) == 4
    captured = capsys.readouterr()
    assert "max deviation" in captured.out
    assert "verification failed: deviation exceeds tolerance" in captured.err


@pytest.mark.parametrize("retained, message", [
    ({"B": [0, 99]}, "B: mask index out of [0, 4)"),
    ({"B": [-2, 0]}, "B: mask index out of [0, 4)"),  # numpy would read -2 as 2
    ({"B": [0, 2], "ghost": [0]}, "mask references unknown layer 'ghost'"),
    ({"B": []}, "B: mask retains no channels"),
], ids=["out_of_range", "negative", "unknown_layer", "empty"])
def test_verify_with_bad_masks_is_exit_2(tmp_path, capsys, retained, message):
    # verify checks its masks as export does, before replaying anything
    graph, weights = fan_fixture()
    model, wfile, masks = (tmp_path / n for n in ("m.model.json", "m.weights.json", "masks.json"))
    save_model(graph, weights, model, wfile)
    save_masks({"B": (0, 2)}, masks)
    prefix = tmp_path / "exported"
    assert run_cli("export", "--model", model, "--weights", wfile,
                   "--masks", masks, "--out-prefix", prefix) == 0
    masks.write_text(json.dumps({"version": 1, "retained": retained}))
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", wfile,
                   "--masks", masks, "--out-prefix", prefix) == 2
    captured = capsys.readouterr()
    assert "max deviation" not in captured.out
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_with_no_trials_is_exit_2(model_files, capsys, trials):
    # no trial would pass any export, even one made with other masks
    tmp, model, weights = model_files
    masks, other = tmp / "masks.json", tmp / "other.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    save_masks({"B": (0, 1), "D": (1, 2)}, other)
    prefix = tmp / "exported"
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", weights, "--masks", other,
                   "--out-prefix", prefix, "--trials", trials) == 2
    captured = capsys.readouterr()
    assert "max deviation" not in captured.out
    assert captured.err == f"error: --trials must be at least 1, got {trials}\n"


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_with_a_bad_tolerance_is_exit_2(model_files, capsys, tol):
    # an infinite tolerance would pass an export made with other masks, and
    # no deviation is within a negative or NaN one
    tmp, model, weights = model_files
    masks, other = tmp / "masks.json", tmp / "other.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    save_masks({"B": (0, 1), "D": (1, 2)}, other)
    prefix = tmp / "exported"
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", weights, "--masks", other,
                   "--out-prefix", prefix, f"--tol={tol}") == 2
    captured = capsys.readouterr()
    assert "max deviation" not in captured.out
    assert captured.err == f"error: --tol must be finite and non-negative, got {tol}\n"


@pytest.mark.parametrize("command", ["export", "verify", "stats"])
@pytest.mark.parametrize("content", [None, "not json", "[]"])
def test_missing_or_malformed_model_file_is_exit_1(model_files, capsys, command, content):
    tmp, _model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2)}, masks)
    model = tmp / "broken.model.json"
    if content is not None:
        model.write_text(content)
    assert run_cli(command, "--model", model, "--weights", weights, "--masks", masks,
                   *(("--out-prefix", tmp / "x") if command != "stats" else ())) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "broken.model.json" in err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b"[" * 100_000, "nested too deeply"),
], ids=["not_utf8", "nested_100000_deep"])
def test_undecodable_model_file_is_exit_1(model_files, capsys, content, message):
    tmp, _model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2)}, masks)
    model = tmp / "broken.model.json"
    model.write_bytes(content)
    assert run_cli("export", "--model", model, "--weights", weights, "--masks", masks,
                   "--out-prefix", tmp / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "broken.model.json" in err and message in err


def test_verify_accepts_a_plan_file_with_the_old_zero_copy_optimal_field(model_files, capsys):
    # earlier versions wrote stats, with zero_copy_optimal (always 0), into
    # every plan record, totals into the file and an empty zero_rows into
    # every plan record; the reader ignores them all
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    prefix = tmp / "exported"
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    ppath = tmp / "exported.plan.json"
    plans = load_plans(ppath)
    old = json.loads(ppath.read_text())
    totals = copy_report(plans)
    old["totals"] = {"total_reads": totals.total_reads, "copied": totals.copied,
                     "zero_copy_optimal": 0}
    for segment, plan in zip(old["segments"], plans):
        assert "zero_rows" not in segment and "stats" not in segment
        segment["zero_rows"] = {}
        segment["stats"] = {"total_reads": plan.stats.total_reads,
                            "copied": plan.stats.copied, "zero_copy_optimal": 0}
    ppath.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    assert load_plans(ppath) == plans
    assert run_cli("verify", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    assert "max deviation" in capsys.readouterr().out


@pytest.mark.parametrize("model", [duplicate_read_fixture, intra_producer_merge_fixture])
def test_prune_constrained_keeps_an_ill_formed_segment(tmp_path, capsys, model):
    # every segment of these models is locked, the ill-formed one included,
    # so constrained masks prune nothing and export plans nothing
    graph, weights = model()
    files = [tmp_path / "m.model.json", tmp_path / "m.weights.json"]
    save_model(graph, weights, *files)
    masks = tmp_path / "masks.json"
    assert run_cli("prune", "--model", files[0], "--weights", files[1], "--heuristic", "l2",
                   "--sparsity", "0.5", "--constrained", "--out", masks) == 0
    assert "achieved sparsity: 0.0000" in capsys.readouterr().out
    assert run_cli("export", "--model", files[0], "--weights", files[1], "--masks", masks,
                   "--strategy", "baseline", "--out-prefix", tmp_path / "x") == 0
    assert load_plans(tmp_path / "x.plan.json") == []


def test_prune_refuses_constrained_masks_of_the_per_layer_scope(model_files, capsys):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    assert run_cli("prune", "--model", model, "--weights", weights, "--heuristic", "l2",
                   "--sparsity", "0.5", "--constrained", "--scope", "per-layer",
                   "--out", masks) == 2
    assert "constrained masks take the global scope only" in capsys.readouterr().err
    assert not masks.exists()


def test_export_reruns_are_byte_identical(model_files):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    assert run_cli("prune", "--model", model, "--weights", weights,
                   "--heuristic", "l1", "--sparsity", "0.3",
                   "--out", masks) == 0
    for prefix in ("a", "b"):
        assert run_cli("export", "--model", model, "--weights", weights,
                       "--masks", masks, "--out-prefix", tmp / prefix) == 0
    for suffix in (".model.json", ".weights.json", ".plan.json"):
        assert (tmp / f"a{suffix}").read_bytes() == (tmp / f"b{suffix}").read_bytes()


def test_stats_json_output(model_files, capsys):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2, 3), "D": (0, 1)}, masks)
    assert run_cli("stats", "--model", model, "--weights", weights,
                   "--masks", masks, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "input"
    by_name = {row["strategy"]: row for row in payload["strategies"]}
    assert set(by_name) == {"reorder", "baseline", "constrained"}
    assert by_name["reorder"]["copied"] <= by_name["baseline"]["copied"]
    assert by_name["constrained"]["copied"] == 0


def test_console_script_smoke(model_files):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "reslice.cli", "stats", "--model", model,
         "--weights", weights, "--masks", str(masks)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "reorder" in proc.stdout


def _set_first_value(weights_file, layer, value):
    obj = json.loads(Path(weights_file).read_text())
    obj["tensors"][layer]["data"][0] = "SENTINEL"
    Path(weights_file).write_text(json.dumps(obj).replace('"SENTINEL"', value))


@pytest.mark.parametrize("value", ["null", "1e999", "-1e999",
                                   pytest.param("9" * 400, id="400_digit_integer")])
def test_export_of_non_finite_version_1_weights_is_exit_1(model_files, capsys, value):
    tmp, model, weights = model_files
    graph, store = residual_block_fixture()
    save_weights_v1(store, weights)
    _set_first_value(weights, "A", value)
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", tmp / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tensor 'A' holds a non-finite value" in err
    assert not list(tmp.glob("x.*"))


@pytest.mark.parametrize("version, shape", [(1, [4, -1]), (2, [-4, -4])])
def test_a_negative_dimension_in_a_tensor_shape_is_exit_1(model_files, capsys, version, shape):
    # numpy would infer one -1, so version 1 loaded A's [4, -1] as 4x4; in
    # version 2, [-4, -4] matches the 128 payload bytes of a 4x4 matrix
    tmp, model, weights = model_files
    if version == 1:
        save_weights_v1(residual_block_fixture()[1], weights)
    obj = json.loads(Path(weights).read_text())
    obj["tensors"]["A"]["shape"] = shape
    Path(weights).write_text(json.dumps(obj))
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", tmp / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"bad tensor for 'A' (negative dimension in shape {shape})" in err
    assert not list(tmp.glob("x.*"))


@pytest.mark.parametrize("value", ["true", "false", '"1.5"'])
def test_version_1_weights_holding_a_non_number_are_refused(model_files, capsys, value):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", tmp / "x") == 0
    exported = tmp / "x.weights.json"
    save_weights_v1(load_model(tmp / "x.model.json", exported)[1], exported)
    _set_first_value(exported, "A", value)
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", tmp / "x") == 4
    assert "bad tensor for 'A'" in capsys.readouterr().err

    save_weights_v1(residual_block_fixture()[1], weights)
    _set_first_value(weights, "A", value)
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", tmp / "y") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad tensor for 'A'" in err
    assert not list(tmp.glob("y.*"))


def test_version_1_inputs_and_artifacts_still_verify(model_files, capsys):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", tmp / "from_v2") == 0
    v1_weights = tmp / "v1.weights.json"
    save_weights_v1(load_model(model, weights)[1], v1_weights)
    prefix = tmp / "from_v1"
    assert run_cli("export", "--model", model, "--weights", v1_weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    # the input's version does not reach the artifacts, which are version 2
    for suffix in (".model.json", ".weights.json", ".plan.json"):
        assert (tmp / f"from_v1{suffix}").read_bytes() == (tmp / f"from_v2{suffix}").read_bytes()
    assert json.loads((tmp / "from_v1.weights.json").read_text())["version"] == 2
    assert run_cli("verify", "--model", model, "--weights", v1_weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    # artifacts whose weights file is version 1, as earlier exports wrote them
    exported = tmp / "from_v1.weights.json"
    save_weights_v1(load_model(tmp / "from_v1.model.json", exported)[1], exported)
    assert json.loads(exported.read_text())["version"] == 1
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", v1_weights,
                   "--masks", masks, "--out-prefix", prefix) == 0
    assert "max deviation" in capsys.readouterr().out


def _nan_payload(rec):
    values = np.frombuffer(base64.b64decode(rec["f64le"]), "<f8").copy()
    values[-1] = np.nan
    rec["f64le"] = base64.b64encode(values.tobytes()).decode()


@pytest.mark.parametrize("tamper", [
    lambda rec: rec.update(f64le="@" + rec["f64le"][1:]),
    lambda rec: rec.update(f64le=rec["f64le"][:-12]),
    lambda rec: rec.pop("f64le"),
    _nan_payload,
], ids=["bad_base64", "wrong_length", "no_payload", "nan"])
def test_malformed_version_2_weights_fail_export_and_verify(model_files, capsys, tamper):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    prefix = tmp / "exported"
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 0

    def write_tampered(src, dst, lid):
        obj = json.loads(src.read_text())
        assert obj["version"] == 2
        tamper(obj["tensors"][lid])
        dst.write_text(json.dumps(obj))

    exported = tmp / "exported.weights.json"
    write_tampered(exported, exported, "A")
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", prefix) == 4
    err = capsys.readouterr().err
    assert "verification failed" in err and "exported.weights.json" in err

    bad_input = tmp / "bad.weights.json"
    write_tampered(Path(weights), bad_input, "A")
    assert run_cli("export", "--model", model, "--weights", bad_input,
                   "--masks", masks, "--out-prefix", tmp / "again") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.weights.json" in err
    assert not list(tmp.glob("again.*"))


def _read_by_lines(text):
    """Rebuild a file's object line by line, reading each line as one
    top-level scalar, one list element or one object member."""
    lines = text.split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    obj, container = {}, None
    for line in lines[1:-2]:
        line = line.removesuffix(",")
        if container is None:
            key, _, rest = line.partition(":")
            if rest in ("[", "{"):
                container = obj[json.loads(key)] = [] if rest == "[" else {}
            else:
                obj[json.loads(key)] = json.loads(rest)
        elif line in ("]", "}"):
            container = None
        elif isinstance(container, list):
            container.append(json.loads(line))
        else:
            member = json.loads("{" + line + "}")
            assert len(member) == 1
            container.update(member)
    return obj


def test_files_hold_one_element_per_line_and_the_old_layout_still_verifies(
        model_files, capsys):
    tmp, model, weights = model_files
    graph, store = load_model(model, weights)
    masks = {"A": (0, 2, 3), "C": (0, 1, 3)}
    result = export_model(graph, store, masks, mode="output")
    expected = {
        "x.model.json": graph_to_dict(result.graph),
        "x.weights.json": oracle_weights_dict(result.weights),
        "x.plan.json": {"version": 1, "segments": [plan_to_dict(p) for p in result.plans]},
        "masks.json": {"version": 1, "retained": {k: list(v) for k, v in masks.items()}},
    }
    for again in (False, True):
        save_model(result.graph, result.weights, tmp / "x.model.json", tmp / "x.weights.json")
        save_plans(result.plans, tmp / "x.plan.json")
        save_masks(masks, tmp / "masks.json")
        files = {name: (tmp / name).read_bytes() for name in expected}
        if again:
            assert files == first
        first = files
    for name, want in expected.items():
        text = files[name].decode("ascii")
        assert _read_by_lines(text) == json.loads(text) == want, name

    # files written with indent=2 before this layout, plans with their
    # copy statistics, load the same and verify
    totals = result.totals
    expected["x.plan.json"] = {
        "version": 1,
        "segments": [{**plan_to_dict(p), "stats": {"total_reads": p.stats.total_reads,
                                                   "copied": p.stats.copied}}
                     for p in result.plans],
        "totals": {"total_reads": totals.total_reads, "copied": totals.copied}}
    for name, want in expected.items():
        (tmp / name).write_text(json.dumps(want, indent=2, sort_keys=True) + "\n")
    assert load_masks(tmp / "masks.json") == masks
    assert load_plans(tmp / "x.plan.json") == list(result.plans)
    capsys.readouterr()
    assert run_cli("verify", "--model", model, "--weights", weights, "--mode", "output",
                   "--masks", tmp / "masks.json", "--out-prefix", tmp / "x") == 0
    assert "max deviation" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["prune", "verify"])
def test_a_negative_seed_is_exit_2(model_files, capsys, command):
    tmp, model, weights = model_files
    masks = tmp / "masks.json"
    save_masks({"B": (0, 2), "D": (1, 2)}, masks)
    assert run_cli("export", "--model", model, "--weights", weights,
                   "--masks", masks, "--out-prefix", tmp / "x") == 0
    extra = {"prune": ["--heuristic", "l2", "--sparsity", "0.5", "--out", tmp / "p.json"],
             "verify": ["--masks", masks, "--out-prefix", tmp / "x"]}[command]
    capsys.readouterr()
    assert run_cli(command, "--model", model, "--weights", weights, *extra, "--seed", -1) == 2
    assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
    assert not (tmp / "p.json").exists()


# ``reslice verify`` re-encodes its replay of the plan with the writer and
# compares the bytes with the exported files; only when they differ does it
# load the files and compare what they hold.

MODE_MASKS = {"input": {"B": (0, 2), "D": (1, 2)}, "output": {"A": (0, 2, 3), "C": (0, 1, 3)}}


def _export(tmp, model, weights, mode):
    """Export with ``MODE_MASKS[mode]``; the argv that verifies the export."""
    masks = tmp / f"{mode}.masks.json"
    save_masks(MODE_MASKS[mode], masks)
    prefix = tmp / mode
    assert run_cli("export", "--model", model, "--weights", weights, "--mode", mode,
                   "--masks", masks, "--out-prefix", prefix) == 0
    return ["verify", "--model", model, "--weights", weights, "--mode", mode,
            "--masks", masks, "--out-prefix", prefix]


@pytest.mark.parametrize("mode", ["input", "output"])
def test_verify_of_an_untouched_export_parses_only_the_original_weights(
        model_files, capsys, monkeypatch, mode):
    tmp, model, weights = model_files
    verify = _export(tmp, model, weights, mode)
    calls = []
    real = json.decoder.JSONObject
    monkeypatch.setattr(json.decoder, "JSONObject", lambda *a: calls.append(1) or real(*a))
    capsys.readouterr()
    assert run_cli(*verify) == 0
    assert "max deviation" in capsys.readouterr().out
    # the original weights file's top object, its tensors and one call per
    # record; none for the exported files
    assert len(calls) == 2 + len(load_model(model, weights)[1].tensors)


def _first_payload_char(text):
    at = text.index('"f64le":"') + len('"f64le":"')
    # the first base64 character holds the low mantissa bits of the first
    # value, so the edit keeps the value finite
    return text[:at] + ("B" if text[at] == "A" else "A") + text[at + 1:]


def _first_out_channels_digit(text):
    at = text.index('"out_channels":') + len('"out_channels":')
    return text[:at] + ("8" if text[at] == "9" else str(int(text[at]) + 1)) + text[at + 1:]


@pytest.mark.parametrize("mode", ["input", "output"])
@pytest.mark.parametrize("suffix, edit, message", [
    ("weights", _first_payload_char, "exported artifacts do not match the plan"),
    ("model", _first_out_channels_digit, "input layer carries one channel count"),
])
def test_an_in_place_edit_of_an_exported_file_is_exit_4(
        model_files, capsys, mode, suffix, edit, message):
    tmp, model, weights = model_files
    verify = _export(tmp, model, weights, mode)
    path = tmp / f"{mode}.{suffix}.json"
    before = path.read_text()
    after = edit(before)
    assert len(after) == len(before) and after.count("\n") == before.count("\n")
    assert after != before
    path.write_text(after)
    capsys.readouterr()
    assert run_cli(*verify) == 4
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ") and message in err


def _count_loads(monkeypatch):
    loads = []
    real = reslice.cli.load_model
    monkeypatch.setattr(reslice.cli, "load_model", lambda *a: loads.append(a) or real(*a))
    return loads


def _export_and_verify(tmp, graph, weights, masks, mode, monkeypatch):
    """Export then verify through the CLI; the files ``load_model`` read."""
    model, wfile, mfile = tmp / "m.json", tmp / "w.json", tmp / "masks.json"
    save_model(graph, weights, model, wfile)
    save_masks(masks, mfile)
    common = ["--model", model, "--weights", wfile, "--masks", mfile, "--mode", mode,
              "--out-prefix", tmp / "x"]
    assert run_cli("export", *common) == 0
    loads = _count_loads(monkeypatch)
    assert run_cli("verify", *common) == 0
    monkeypatch.undo()
    return [Path(a[0]).name for a in loads]


@pytest.mark.parametrize("mode", ["input", "output"])
def test_verify_of_an_export_never_loads_the_exported_files(tmp_path, capsys, monkeypatch, mode):
    # random DAGs with L2 masks at sparsity 0.5, and two dense blocks
    cases = []
    for seed in range(12):
        graph, weights = random_dag(seed)
        scores = score_channels(graph, weights, "l2", side=mode)
        cases.append((graph, weights, make_masks(graph, scores, 0.5, "unconstrained",
                                                  side=mode)))
    if mode == "input":
        for layers in (6, 12):
            graph, masks = dense_block(layers, stem=64, growth=16, seed=layers)
            cases.append((graph, ramp_weights(graph), masks))
    for graph, weights, masks in cases:
        assert _export_and_verify(tmp_path, graph, weights, masks, mode,
                                  monkeypatch) == ["m.json"]
    assert capsys.readouterr().out.count("max deviation") == len(cases)


@pytest.mark.parametrize("exported, code", [("untouched", 0), ("version 1 weights", 0),
                                             ("edited weights", 4)])
def test_verify_replays_the_plan_once(model_files, capsys, monkeypatch, exported, code):
    # the replay that a byte comparison did not match is the one the
    # loaded files are compared with
    tmp, model, weights = model_files
    verify = _export(tmp, model, weights, "input")
    wpath = tmp / "input.weights.json"
    if exported == "version 1 weights":
        save_weights_v1(load_model(tmp / "input.model.json", wpath)[1], wpath)
    elif exported == "edited weights":
        wpath.write_text(_first_payload_char(wpath.read_text()))
    calls = []
    real = reslice.cli.apply_plan
    monkeypatch.setattr(reslice.cli, "apply_plan", lambda *a: calls.append(a) or real(*a))
    capsys.readouterr()
    assert run_cli(*verify) == code
    assert len(calls) == 1
    if code:
        assert "exported artifacts do not match the plan" in capsys.readouterr().err


@pytest.mark.parametrize("bad_plan", [False, True], ids=["plan_applies", "plan_fails"])
@pytest.mark.parametrize("content, code", [(None, 1), ("not json", 4)],
                         ids=["missing", "malformed"])
def test_verify_reports_an_unreadable_exported_model_first(
        model_files, capsys, bad_plan, content, code):
    # a missing exported file is an I/O error and a malformed one a failed
    # verification, whether or not the plan applies
    tmp, model, weights = model_files
    verify = _export(tmp, model, weights, "input")
    if bad_plan:
        ppath = tmp / "input.plan.json"
        obj = json.loads(ppath.read_text())
        obj["segments"][0]["producer_orders"]["A"] = [0, 0]
        ppath.write_text(json.dumps(obj))
    exported = tmp / "input.model.json"
    if content is None:
        exported.unlink()
    else:
        exported.write_text(content)
    capsys.readouterr()
    assert run_cli(*verify) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " if code == 1 else "verification failed: ")
    assert "input.model.json" in err


def test_verify_loads_the_exported_files_of_an_older_layout(model_files, monkeypatch):
    tmp, model, weights = model_files
    verify = _export(tmp, model, weights, "input")
    wpath = tmp / "input.weights.json"
    save_weights_v1(load_model(tmp / "input.model.json", wpath)[1], wpath)
    loads = _count_loads(monkeypatch)
    assert run_cli(*verify) == 0
    assert [Path(a[0]).name for a in loads] == ["m.model.json", "input.model.json"]
