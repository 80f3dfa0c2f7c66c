"""Random edits to exported plan files: ``reslice verify`` refuses an edit
with exit 4 or accepts it with exit 0, never crashes, and an accepted plan
counts every channel its replay copies.

Each edit is one of: an integer moved by -2, -1, +1 or +2; a list element
dropped, duplicated or swapped with its neighbour; a list reversed; a layer
id replaced by another layer id of the model; a key replaced by another
layer id or by another key the file uses (a slice record's ``slice``
renamed ``perm`` makes a gather, say). The exported model and weights are rewritten from each edit's replay, so an
edit that applies is checked by the equivalence test, not refused as a
mismatch against the original files.
"""

import copy
import json

import numpy as np
import pytest

from helpers import random_dag
from reslice.cli import main
from reslice.graph import (LayerKind, ModelFormatError, ValidationError, save_masks, save_model)
from reslice.masks import make_masks, score_channels
from reslice.pipeline import export_model
from reslice.planner import apply_plan, copy_report, load_plans, save_plans

SEEDS = tuple(range(1, 41, 2))
EDITS_PER_EXPORT = 40


def _sites(node, path=()):
    """(path, value) of every node of a JSON tree, the root's included."""
    yield path, node
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _sites(child, path + (key,))


def _edits(plan: dict, names: list[str]) -> list[tuple]:
    """Every edit of ``plan``, as (path, operation, argument)."""
    keys = names + sorted({key for _, value in _sites(plan) if isinstance(value, dict)
                           for key in value} - set(names))
    out = []
    for path, value in _sites(plan):
        if type(value) is int:
            out += [(path, "shift", step) for step in (-2, -1, 1, 2)]
        elif isinstance(value, list) and value:
            out += [(path, op, i) for i in range(len(value)) for op in ("drop", "duplicate")]
            out += [(path, "swap", i) for i in range(1, len(value))]
            out.append((path, "reverse", None))
        elif isinstance(value, str) and value in names and path:
            out += [(path, "rename", name) for name in names if name != value]
        elif isinstance(value, dict):
            out += [(path, "rekey", (key, new)) for key in value
                    for new in keys if new not in value]
    return out


def _edit(obj, path, op, arg) -> None:
    """Make one edit of ``_edits`` on ``obj`` in place."""
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else obj
    if op == "shift":
        parent[path[-1]] += arg
    elif op == "rename":
        parent[path[-1]] = arg
    elif op == "drop":
        del node[arg]
    elif op == "duplicate":
        node.insert(arg, node[arg])
    elif op == "swap":
        node[arg - 1], node[arg] = node[arg], node[arg - 1]
    elif op == "reverse":
        node.reverse()
    else:
        key, name = arg
        node[name] = node.pop(key)


def _gathered(graph) -> int:
    """The channels the gathers of ``graph`` copy: their entries other than -1."""
    return sum(sum(i >= 0 for i in layer.params) for layer in graph.layers
               if layer.kind is LayerKind.GATHER)


@pytest.mark.parametrize("mode, strategy", [("input", "reorder"), ("input", "baseline"),
                                            ("input", "constrained"), ("output", "reorder"),
                                            ("output", "baseline")])
def test_verify_exits_0_or_4_on_any_plan_file_edit(tmp_path, capsys, mode, strategy):
    outcomes = {0: 0, 4: 0}
    for seed in SEEDS:
        graph, weights = random_dag(seed)
        side = "output" if mode == "output" else "input"
        masks = make_masks(graph, score_channels(graph, weights, "l2", side=side), 0.4,
                           "unconstrained", side=side)
        result = export_model(graph, weights, masks, mode=mode, strategy=strategy)
        files = {name: tmp_path / f"{seed}.{name}.json"
                 for name in ("in.model", "in.weights", "masks", "x.plan", "x.model",
                              "x.weights")}
        save_model(graph, weights, files["in.model"], files["in.weights"])
        save_masks(masks, files["masks"])
        save_plans(result.plans, files["x.plan"])
        plan = json.loads(files["x.plan"].read_text())
        edits = _edits(plan, [layer.id for layer in graph.layers])
        rng = np.random.default_rng(seed)
        for pick in rng.choice(len(edits), size=min(EDITS_PER_EXPORT, len(edits)),
                               replace=False):
            edited = copy.deepcopy(plan)
            _edit(edited, *edits[pick])
            files["x.plan"].write_text(json.dumps(edited))
            try:
                replayed = apply_plan(load_plans(files["x.plan"]), graph, weights)
            except (ModelFormatError, ValidationError):
                replayed = result.graph, result.weights
            save_model(*replayed, files["x.model"], files["x.weights"])
            code = main(["verify", "--model", str(files["in.model"]),
                         "--weights", str(files["in.weights"]), "--masks", str(files["masks"]),
                         "--mode", mode, "--out-prefix", str(tmp_path / f"{seed}.x")])
            capsys.readouterr()
            assert code in (0, 4), (seed, edited)
            outcomes[code] += 1
            if code == 0:
                copied = copy_report(load_plans(files["x.plan"])).copied
                if mode == "input":
                    assert copied == _gathered(replayed[0]), (seed, edited)
                else:
                    assert copied >= _gathered(replayed[0]), (seed, edited)
    # the fuzz reaches both verdicts
    assert outcomes[0] > 0 and outcomes[4] > 0, outcomes
