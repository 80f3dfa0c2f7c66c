"""Byte-identical exports on a checked-in corpus.

``tests/data/golden_corpus.json`` holds 100 ``random_dag`` models and a
12-layer ``dense_block``, each with an input-side and an output-side mask,
and the sha256 of the model, weights and plan files that ``export_model``
plus ``save_model`` and ``save_plans`` write in input mode (reorder,
baseline, constrained) and output mode (reorder, baseline). A run that
raises pins the hash of its error's type and message instead. Weights come
from ``ramp_weights``, so nothing is drawn at test time. ``COUNTS_SHA256``
pins every plan's copy count over the same runs.

The masks were drawn once, when the corpus was written. Rewrite the corpus
(``python tests/test_golden_corpus.py``) only for a change that means to
alter the exported bytes, and say so in its description.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from reslice import ValidationError, export_model, plan_model, save_model, save_plans
from reslice.graph import graph_from_dict, graph_to_dict, load_model
from reslice.masks import make_masks, score_channels

from helpers import dense_block, ramp_weights, random_dag, save_weights_v1

CORPUS = Path(__file__).parent / "data" / "golden_corpus.json"
RUNS = (("input", "reorder"), ("input", "baseline"), ("input", "constrained"),
        ("output", "reorder"), ("output", "baseline"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def export_digests(case: dict, tmp: Path) -> dict[str, list[str]]:
    """Per ``mode/strategy``, the sha256 of the exported model, weights and
    plan files, or of the error the export raised."""
    graph = graph_from_dict(case["model"])
    weights = ramp_weights(graph)
    files = [tmp / "model.json", tmp / "weights.json", tmp / "plan.json"]
    out = {}
    for mode, strategy in RUNS:
        masks = {lid: tuple(idx) for lid, idx in case["masks"][mode].items()}
        try:
            result = export_model(graph, weights, masks, mode=mode, strategy=strategy)
        except ValidationError as exc:
            out[f"{mode}/{strategy}"] = [_sha256(f"{type(exc).__name__}: {exc}".encode())]
            continue
        save_model(result.graph, result.weights, files[0], files[1])
        save_plans(result.plans, files[2])
        out[f"{mode}/{strategy}"] = [_sha256(f.read_bytes()) for f in files]
    return out


def _cases() -> list[dict]:
    if not CORPUS.exists():  # while ``write_corpus`` makes it
        return []
    with open(CORPUS, encoding="utf-8") as f:
        return json.load(f)["cases"]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["name"])
def test_export_bytes_match_the_corpus(case, scratch):
    assert export_digests(case, scratch) == case["sha256"]


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["name"])
def test_version_1_weights_load_bit_identical(case, scratch):
    # written as the benchmark writes its inputs: json.dumps(indent=2) of tolist()
    graph = graph_from_dict(case["model"])
    weights = ramp_weights(graph)
    model, wfile = scratch / "v1.model.json", scratch / "v1.weights.json"
    save_model(graph, weights, model, wfile)
    save_weights_v1(weights, wfile)
    loaded = load_model(model, wfile)[1]
    assert list(loaded.tensors) == sorted(weights.tensors)
    for lid, want in weights.tensors.items():
        got = loaded[lid]
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# sha256 of every plan's (segment, total_reads, copied) over the corpus's runs
COUNTS_SHA256 = "0a8eaea58ca2b0d819193125ec3567033266f021b90c76fe6fa5ce18bde57cc7"


def test_copy_counts_match_a_pinned_digest():
    # the paper's metric, per plan: a change to how a count is derived must
    # leave every count as it is
    record = {}
    for case in _cases():
        graph = graph_from_dict(case["model"])
        for mode, strategy in RUNS:
            masks = {lid: tuple(idx) for lid, idx in case["masks"][mode].items()}
            try:
                plans, _ = plan_model(graph, masks, mode=mode, strategy=strategy)
            except ValidationError as exc:
                record[f"{case['name']}/{mode}/{strategy}"] = str(exc)
                continue
            record[f"{case['name']}/{mode}/{strategy}"] = [
                [p.segment, p.stats.total_reads, p.stats.copied] for p in plans]
    assert len(record) == 101 * len(RUNS)
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == COUNTS_SHA256


def test_corpus_covers_both_modes_and_the_dense_block():
    cases = _cases()
    assert len(cases) == 101 and cases[-1]["name"] == "dense-block-12"
    # a refusal would pin its message; at the corpus's writing every run exported
    written = sum(len(d) == 3 for case in cases for d in case["sha256"].values())
    assert written >= 0.9 * len(cases) * len(RUNS)
    assert all(case["masks"]["input"] for case in cases)
    assert sum(bool(case["masks"]["output"]) for case in cases) >= 50


# --------------------------------------------------------------------------
# writing the corpus
# --------------------------------------------------------------------------

def _input_masks(graph, rng) -> dict[str, list[int]]:
    # four in five channel mixes keep a random nonempty subset of columns
    masks = {}
    for layer in graph.layers:
        if layer.kind.value == "channel_mix" and rng.random() < 0.8:
            k = int(rng.integers(1, layer.in_channels + 1))
            masks[layer.id] = sorted(int(x) for x in rng.choice(layer.in_channels, k, replace=False))
    return masks


def _output_masks(graph, weights, seed) -> dict[str, list[int]]:
    scores = score_channels(graph, weights, "random", side="output", seed=seed)
    masks = make_masks(graph, scores, 0.4, "unconstrained", side="output")
    return {lid: list(idx) for lid, idx in masks.items()
            if len(idx) < graph.layer(lid).out_channels}


def write_corpus(tmp: Path) -> None:
    cases = []
    for seed in range(100):
        graph, _ = random_dag(seed, bias_free=seed % 2 == 1)
        rng = np.random.default_rng([seed, 2026])
        cases.append({"name": f"random-dag-{seed:03d}", "model": graph_to_dict(graph),
                      "masks": {"input": _input_masks(graph, rng),
                                "output": _output_masks(graph, ramp_weights(graph), seed)}})
    graph, masks = dense_block(12)
    cases.append({"name": "dense-block-12", "model": graph_to_dict(graph),
                  "masks": {"input": {lid: list(idx) for lid, idx in masks.items()},
                            "output": _output_masks(graph, ramp_weights(graph), 12)}})
    for case in cases:
        case["sha256"] = export_digests(case, tmp)
    with open(CORPUS, "w", encoding="ascii") as f:
        f.write('{"cases": [\n')
        f.write(",\n".join(json.dumps(case, sort_keys=True, separators=(",", ":"))
                           for case in cases))
        f.write("\n]}\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(Path(tmp))
