"""Command-line front end.

Subcommands: ``prune`` (score weights, write masks), ``export`` (rewrite the
model per the masks, write the model, its weights and the plan), ``verify``
(replay the plan and check numerical equivalence), ``stats`` (compare
strategies without exporting). Data goes to stdout and the target files;
logs go to stderr. Weights files of version 1 and 2 are read; ``export``
writes version 2.

Exit codes: 0 success, 1 I/O or file-format failure, 2 invalid usage or
validation failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from reslice.graph import (
    MODE_INPUT,
    MODES,
    ModelFormatError,
    ModelGraph,
    ValidationError,
    WeightStore,
    graph_to_dict,
    load_masks,
    load_model,
    save_masks,
    save_model,
    saves_as,
    validate_masks,
)
from reslice.interp import DEFAULT_TOLERANCE, DEFAULT_TRIALS, check_equivalence
from reslice.masks import (
    HEURISTICS,
    MODE_CONSTRAINED,
    MODE_UNCONSTRAINED,
    SCOPE_GLOBAL,
    SCOPE_PER_LAYER,
    achieved_sparsity,
    make_masks,
    score_channels,
)
from reslice.pipeline import export_model, plan_model
from reslice.planner import (
    MODE_STRATEGIES,
    STRATEGY_REORDER,
    apply_plan,
    copy_report,
    load_plans,
    save_plans,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 4


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's generators take no negative seed
        raise ValidationError([f"--seed must be non-negative, got {seed}"])


def cmd_prune(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    graph, weights = load_model(args.model, args.weights)
    scores = score_channels(graph, weights, args.heuristic, side=args.mode, seed=args.seed)
    mask_mode = MODE_CONSTRAINED if args.constrained else MODE_UNCONSTRAINED
    masks = make_masks(graph, scores, args.sparsity, mask_mode, side=args.mode,
                       scope=args.scope)
    save_masks(masks, args.out)
    print(f"achieved sparsity: {achieved_sparsity(scores, masks):.4f}")
    return EXIT_OK


def _print_stats(label: str, stats) -> None:
    print(f"{label}: total_reads={stats.total_reads} copied={stats.copied} "
          f"copied_fraction={stats.copied_fraction:.4f}")


def cmd_export(args: argparse.Namespace) -> int:
    graph, weights = load_model(args.model, args.weights)
    masks = load_masks(args.masks)
    result = export_model(graph, weights, masks, mode=args.mode, strategy=args.strategy)
    save_model(result.graph, result.weights,
               f"{args.out_prefix}.model.json", f"{args.out_prefix}.weights.json")
    save_plans(result.plans, f"{args.out_prefix}.plan.json")
    for plan in result.plans:
        _print_stats(f"segment {plan.segment} [{plan.strategy}]", plan.stats)
    _print_stats("total", result.totals)
    return EXIT_OK


def _exported(plans, graph: ModelGraph, weights: WeightStore, model_file: str,
              weights_file: str) -> tuple[ModelGraph, WeightStore] | None:
    """The exported model and weights, checked against one replay of the
    plans, or None where they differ. Files that ``save_model`` writes the
    replay as are not parsed; others (an older layout, weights version 1,
    an edit) are loaded, and a bad file is reported before a bad plan."""
    try:
        replayed = apply_plan(plans, graph, weights)
    except (ModelFormatError, ValidationError):
        load_model(model_file, weights_file)
        raise
    with suppress(OSError):  # load_model reports a file that cannot be read
        if saves_as(*replayed, Path(model_file).read_bytes(), Path(weights_file).read_bytes()):
            return replayed
    exported = load_model(model_file, weights_file)
    tensors = replayed[1].tensors
    same = (graph_to_dict(replayed[0]) == graph_to_dict(exported[0])
            and sorted(tensors) == sorted(exported[1].tensors)
            and all(np.array_equal(tensors[k], exported[1][k]) for k in tensors))
    return exported if same else None


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:  # usage errors, not failed verifications
        raise ValidationError([f"--trials must be at least 1, got {args.trials}"])
    if not 0 <= args.tol < float("inf"):
        raise ValidationError([f"--tol must be finite and non-negative, got {args.tol:g}"])
    _check_seed(args.seed)
    graph, weights = load_model(args.model, args.weights)
    masks = load_masks(args.masks) if args.masks else {}
    diags = validate_masks(graph, masks, args.mode)
    if diags:
        raise ValidationError(diags)
    try:
        plans = load_plans(f"{args.out_prefix}.plan.json")
        other = {plan.mode for plan in plans} - {args.mode}
        if other:  # replayed under the wrong mode, a sound plan would fail numerically
            print(f"verification failed: the plan is for {other.pop()} mode, "
                  f"but --mode is {args.mode}", file=sys.stderr)
            return EXIT_MISMATCH
        model_file = f"{args.out_prefix}.model.json"
        weights_file = f"{args.out_prefix}.weights.json"
        exported = _exported(plans, graph, weights, model_file, weights_file)
        if exported is None:
            print("verification failed: exported artifacts do not match the plan",
                  file=sys.stderr)
            return EXIT_MISMATCH
        report = check_equivalence(graph, weights, masks, exported[0], exported[1],
                                   trials=args.trials, tol=args.tol, seed=args.seed,
                                   mask_side=args.mode)
    except (ModelFormatError, ValidationError) as exc:
        # inside verification, a malformed or inapplicable plan IS the failure
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"max deviation: {report.max_deviation:.6e} (tolerance {args.tol:g})")
    if not report.passed:
        print("verification failed: deviation exceeds tolerance", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    graph, _weights = load_model(args.model, args.weights)
    masks = load_masks(args.masks)
    rows = []
    for strategy in MODE_STRATEGIES[args.mode]:
        plans, fallbacks = plan_model(graph, masks, mode=args.mode, strategy=strategy)
        rows.append((strategy, copy_report(plans), sorted(fallbacks)))
    if args.json:
        payload = [{"strategy": s, "total_reads": t.total_reads, "copied": t.copied,
                    "copied_fraction": round(t.copied_fraction, 6),
                    "fallback_segments": f} for s, t, f in rows]
        print(json.dumps({"mode": args.mode, "strategies": payload},
                         indent=2, sort_keys=True))
    else:
        for strategy, totals, _fallbacks in rows:
            _print_stats(strategy, totals)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reslice",
        description="Channel-pruning export: masks in, physically smaller model out.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, help="model graph file")
        p.add_argument("--weights", required=True, help="weights file")

    p = sub.add_parser("prune", help="score channels and write a mask file")
    add_model(p)
    p.add_argument("--heuristic", required=True, choices=HEURISTICS)
    p.add_argument("--sparsity", required=True, type=float,
                   help="fraction of (layer, channel) pairs to prune, in [0, 1)")
    p.add_argument("--mode", choices=MODES, default=MODE_INPUT)
    p.add_argument("--constrained", action="store_true",
                   help="prune whole shared channels so all readers agree")
    p.add_argument("--scope", choices=(SCOPE_GLOBAL, SCOPE_PER_LAYER), default=SCOPE_GLOBAL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="mask file to write")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("export", help="rewrite the model per the masks")
    add_model(p)
    p.add_argument("--masks", required=True)
    p.add_argument("--mode", choices=MODES, default=MODE_INPUT)
    p.add_argument("--strategy", default=STRATEGY_REORDER,
                   choices=MODE_STRATEGIES[MODE_INPUT])
    p.add_argument("--out-prefix", required=True,
                   help="writes PREFIX.model.json, PREFIX.weights.json (weights file "
                        "version 2), PREFIX.plan.json")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify", help="replay a plan and check equivalence")
    add_model(p)
    p.add_argument("--masks", help="masks the export was made with")
    p.add_argument("--mode", choices=MODES, default=MODE_INPUT)
    p.add_argument("--out-prefix", required=True, help="prefix used at export time")
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="compare export strategies without exporting")
    add_model(p)
    p.add_argument("--masks", required=True)
    p.add_argument("--mode", choices=MODES, default=MODE_INPUT)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_stats)
    return parser


# built once per process: building it costs about as much as parsing
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        for diag in exc.diagnostics:
            print(f"error: {diag}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
