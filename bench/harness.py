"""The measuring part of bench/run.py (which pins threads and finds src/).

A run builds one workload from its seed and writes its input files, then
spends ``--seconds`` measuring in cycles. A cycle loads the inputs (set-up),
runs ``reslice export`` and ``reslice verify`` in-process through
``reslice.cli.main``, and makes a batch of forward passes of the exported
model. The first cycle is a discarded warm-up. Outside that time the run
measures one export's peak memory in a child process and checks every
output. With ``--trace 1`` the commands run under a tracer instead, the
passes are profiled, and set-up is not timed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import numpy as np

from reslice.cli import main as reslice_main
from reslice.graph import load_masks, load_model
from reslice.pipeline import plan_model
from reslice.planner import copy_report, load_plans

from calibration import numpy_speed, python_speed
from executor import Executor, masked_original, nodes_from_graph
from tracing import LogCounter, Tracer, self_times, summarize
from workloads import SIZES, WORKLOADS, make_workload

# Each cycle loads the inputs, exports, verifies and runs a batch of passes,
# so every metric and every speed reading (calibration.py) samples the whole
# run: this machine's speed drifts by tens of percent within seconds, and
# phases run one after another would each see a different part of it.
MIN_CYCLES = 5
PASS_GROUPS, PASSES_PER_GROUP = 4, 10  # a speed reading after each group
# Passes right after export and verify ran up to 1.7x slower, recovering
# over about 150 ms; each cycle discards its passes for this long first.
CYCLE_WARMUP_S = 0.15
WARMUP_PASSES = 20
# exported against masked original, both float32 through up to 400 layers
REL_TOLERANCE = 1e-3
STRATEGIES = ("reorder", "baseline", "constrained")
REFERENCE_PASSES = 500

# spans reported as <name>_s (self time) and <name>_calls
CALLED_SPANS = ("graph.topo", "graph.validate", "planner.apply", "interp.run")
# per-layer metric -> the spans whose self times it adds up
SELF_TIME_METRICS = {
    "segments.find_s": ["segments.find"],
    "path_search.decompose_s": ["path_search.decompose"],
    "reorder_graph.build_s": ["reorder_graph.build"],
    "ordering.order_s": ["ordering.order"],
    "ordering.rescue_s": ["ordering.rescue"],
    "graph.load_s": ["graph.load"],
    "graph.save_s": ["graph.save"],
    "planner.plan_io_s": ["planner.save_plans", "planner.load_plans"],
    "planner.plan_s": ["planner.plan"],
    "pipeline.untraced_s": ["pipeline.export_model"],
}
COUNT_METRICS = ("segments.count", "reorder_graph.nodes", "reorder_graph.edges",
                 "ordering.rescue_found", "planner.copied_channels", "planner.gathers")


class Program:
    """Runs reslice commands in-process with their output captured.

    Nothing reslice prints or logs reaches this process's streams; lines
    and log records are counted instead.
    """

    def __init__(self):
        self.log = LogCounter()
        root = logging.getLogger()
        root.addHandler(self.log)  # also makes the CLI's basicConfig a no-op
        root.setLevel(logging.INFO)
        self.stdout_lines = 0
        self.errors: list[str] = []

    def __call__(self, argv: list[str]) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = reslice_main(argv)
        self.stdout_lines += out.getvalue().count("\n")
        if code != 0:
            self.errors.append(f"reslice {argv[0]} exited {code}: {err.getvalue().strip()}")
        return code


def timed(fn) -> tuple[float, object]:
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Run:
    def __init__(self, args: argparse.Namespace, src: Path):
        self.args = args
        self.src = src
        self.workload = make_workload(args.workload, args.seed, args.size)
        out_root = src.parent / ".bench_out"
        self.dir = out_root / (f"{args.workload}-{args.size}-seed{args.seed}"
                               f"-trace{args.trace}-pid{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.inputs = self.workload.write(self.dir / "input")
        self.prefix = self.dir / "export"
        self.program = Program()
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        n, h, w = self.workload.batch
        rng = np.random.default_rng([args.seed, 1])
        self.batch = rng.standard_normal(
            (n, self.workload.input_width, h, w)).astype(np.float32)
        self.problems: list[str] = []
        self.notes: list[str] = []

    # -- commands -------------------------------------------------------------

    def argv(self, command: str, prefix: Path, *extra: str) -> list[str]:
        argv = [command, "--model", str(self.inputs["model"]),
                "--weights", str(self.inputs["weights"]),
                "--masks", str(self.inputs["masks"]), "--out-prefix", str(prefix)]
        return argv + list(extra)

    def artifacts(self, prefix: Path) -> list[Path]:
        return [Path(f"{prefix}.{k}.json") for k in ("model", "weights", "plan")]

    def round(self, between=lambda: None,
              wrap=lambda name, fn: fn()) -> tuple[float | None, float | None]:
        """One export then one verify; both count as attempted operations.
        Returns their wall times, None for a command that failed.
        ``between`` runs after the export, ``wrap`` around each command."""
        for path in self.artifacts(self.prefix):
            path.unlink(missing_ok=True)
        self.attempted += 2
        t_export, code = timed(lambda: wrap("cli.export",
                                            lambda: self.program(self.argv("export", self.prefix))))
        between()
        if code != 0:
            self.failed += 2  # verify cannot run without the artifacts
            return None, None
        self.digests.add(digest(self.artifacts(self.prefix)))
        t_verify, code = timed(lambda: wrap("cli.verify",
                                            lambda: self.program(self.argv("verify", self.prefix))))
        if code != 0:
            self.failed += 1
            return t_export, None
        return t_export, t_verify

    # -- end-to-end measurement ---------------------------------------------------

    def setup_once(self) -> float:
        t, _ = timed(lambda: (load_model(self.inputs["model"], self.inputs["weights"]),
                              load_masks(self.inputs["masks"])))
        return t

    def warm_executor(self, prefix: Path | None = None) -> Executor:
        """An executor of the exported model, reloaded from disk, after
        warm-up passes."""
        graph, weights = load_model(*self.artifacts(prefix or self.prefix)[:2])
        ex = Executor(nodes_from_graph(graph), weights.tensors, self.batch)
        for _ in range(WARMUP_PASSES):
            ex.run()
        return ex

    def pass_times(self, ex: Executor, count: int) -> list[float]:
        clock = time.perf_counter
        times = []
        for _ in range(count):
            start = clock()
            ex.run()
            times.append(clock() - start)
        return times

    def peak_export_mb(self) -> float:
        """Maximum resident set of one export, alone in a child process."""
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from reslice.cli import main; sys.exit(main(sys.argv[2:]))")
        argv = [sys.executable, "-c", code, str(self.src),
                *self.argv("export", self.dir / "peak")]
        with open(self.dir / "peak.stderr", "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.problems.append(f"peak-memory export exited {proc.returncode}")
        return usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux

    def cycles(self, deadline: float, step) -> None:
        """Call ``step`` until ``deadline``, and at least MIN_CYCLES times."""
        done = 0
        while done < MIN_CYCLES or time.perf_counter() < deadline:
            step()
            done += 1

    def end_to_end(self, deadline: float) -> dict[str, float]:
        times: dict[str, list[float]] = {k: [] for k in ("setup", "export", "verify", "pass")}
        scaled_passes: list[float] = []
        # speed readings between every two timed steps, all through the run
        python_marks: list[float] = []
        numpy_marks: list[float] = []

        def cycle():
            python_marks.append(python_speed())
            times["setup"].append(self.setup_once())
            python_marks.append(python_speed())
            t_export, t_verify = self.round(lambda: python_marks.append(python_speed()))
            times["export"].extend([t_export] if t_export is not None else [])
            times["verify"].extend([t_verify] if t_verify is not None else [])
            python_marks.append(python_speed())
            warm_until = time.perf_counter() + CYCLE_WARMUP_S
            while time.perf_counter() < warm_until:
                ex.run()
            numpy_marks.append(numpy_speed())
            for _ in range(PASS_GROUPS):
                passes = self.pass_times(ex, PASSES_PER_GROUP)
                numpy_marks.append(numpy_speed())
                times["pass"].extend(passes)
                # slowdowns of a pass come in bursts of 50-100 ms, so a group
                # is scaled by the readings on either side of it
                factor = (numpy_marks[-2] + numpy_marks[-1]) / 2
                scaled_passes.extend(t / factor for t in passes)

        self.setup_once()  # warm-up, discarded
        self.round()
        ex = self.warm_executor()
        self.cycles(deadline, cycle)
        if not times["export"] or not times["verify"]:
            raise SystemExit("no reslice export and verify succeeded:\n"
                             + "\n".join(self.program.errors[:3]))
        python_factor = median(python_marks)
        self.notes.append("samples: " + ", ".join(f"{k} {len(v)}" for k, v in times.items()))
        self.notes.append("raw medians: " + ", ".join(
            f"{k} {1e3 * median(v):.3f} ms" for k, v in times.items()))
        self.notes.append(f"speed factors: python {python_factor:.4f}, "
                          f"numpy {median(numpy_marks):.4f}")
        totals = copy_report(load_plans(self.artifacts(self.prefix)[2]))
        return {
            "setup_s": median(times["setup"]) / python_factor,
            "export_s": median(times["export"]) / python_factor,
            "verify_s": median(times["verify"]) / python_factor,
            "infer_ms": 1e3 * median(scaled_passes),
            "infer_p90_ms": 1e3 * quantiles(scaled_passes, n=10)[-1],
            "sliced_reads": totals.total_reads - totals.copied,
            "artifact_mb": sum(p.stat().st_size for p in self.artifacts(self.prefix)) / 1e6,
            "export_peak_mb": self.peak_export_mb(),
        }

    # -- traced pass ----------------------------------------------------------

    def traced_round(self, tracer: Tracer) -> dict[str, float]:
        first = len(tracer.spans)
        counts_before = tracer.counts.copy()
        greedy = self.program.log.greedy
        self.round(wrap=tracer.span)
        stats = summarize(tracer.spans, first)
        counts = tracer.counts - counts_before
        metrics: dict[str, float] = {}
        for span in CALLED_SPANS:
            metrics[f"{span}_calls"], _, metrics[f"{span}_s"] = stats[span]
        for name, spans in SELF_TIME_METRICS.items():
            metrics[name] = sum(stats[span][2] for span in spans)
        metrics["path_search.solve_calls"] = counts["solve_mrap.calls"]
        metrics["path_search.greedy_calls"] = self.program.log.greedy - greedy
        metrics["ordering.rescue_calls"] = stats["ordering.rescue"][0]
        for name in COUNT_METRICS:
            metrics[name] = counts[name]
        metrics["pipeline.export_model_s"] = stats["pipeline.export_model"][1]
        metrics["cli.export_s"] = stats["cli.export"][1]
        self.check_remainder(tracer, first)
        return metrics

    def check_remainder(self, tracer: Tracer, first: int) -> None:
        """The self times of the spans under export_model plus its own
        (untraced) self time must add up to its wall time."""
        spans = tracer.spans
        root = next(i for i in range(first, len(spans))
                    if spans[i][0] == "pipeline.export_model")
        inside = {root}
        for i in range(root + 1, len(spans)):
            if spans[i][3] in inside:
                inside.add(i)
        own = self_times(spans, first)
        wall = spans[root][2] - spans[root][1]
        remainder = own[root - first]
        wrapped = sum(own[i - first] for i in inside if i != root)
        self.notes.append(f"traced export_model {wall:.6f} s = wrapped layers' self time "
                          f"{wrapped:.6f} s + untraced remainder {remainder:.6f} s")
        if abs(wrapped + remainder - wall) > 1e-9 * max(1.0, wall) or remainder < 0:
            self.problems.append("traced self times do not add up to export_model")

    def per_layer(self, deadline: float) -> dict[str, float]:
        tracer = Tracer()
        rounds, profiles = [], []

        def cycle():
            rounds.append(self.traced_round(tracer))
            profiles.extend(ex.run_profiled() for _ in range(PASS_GROUPS * PASSES_PER_GROUP))

        tracer.install()
        try:
            self.traced_round(tracer)  # warm-up, discarded
            ex = self.warm_executor()
            self.cycles(deadline, cycle)
        finally:
            tracer.uninstall()
        tracer.write(self.dir / "trace.json")
        metrics = {name: median([r[name] for r in rounds]) for name in rounds[0]}
        metrics["exported.gather_ms"] = 1e3 * median([p.get("gather", 0.0) for p, _ in profiles])
        metrics["exported.mix_ms"] = 1e3 * median([p.get("channel_mix", 0.0) for p, _ in profiles])
        metrics["exported.gather_mb"] = profiles[0][1] / 1e6
        return metrics

    # -- correctness ------------------------------------------------------------

    def check(self) -> None:
        wl = self.workload
        graph, weights = load_model(self.inputs["model"], self.inputs["weights"])
        masks = load_masks(self.inputs["masks"])
        out_graph, out_weights = load_model(*self.artifacts(self.prefix)[:2])
        totals = copy_report(load_plans(self.artifacts(self.prefix)[2]))

        exported = Executor(nodes_from_graph(out_graph), out_weights.tensors, self.batch)
        original = Executor(*masked_original(wl), self.batch)
        want = original.run().copy()
        got = exported.run().copy()
        scale = float(np.max(np.abs(want)))
        if not (np.all(np.isfinite(want)) and np.all(np.isfinite(got)) and scale > 0):
            self.problems.append("model outputs are not finite and non-zero")
        else:
            deviation = float(np.max(np.abs(want - got))) / scale
            self.notes.append(f"exported vs masked original: max relative deviation {deviation:.3e}")
            if deviation > REL_TOLERANCE:
                self.problems.append(f"exported model deviates by {deviation:.3e}")

        n, h, w = wl.batch
        _, gathered = exported.run_profiled()
        if gathered != totals.copied * n * h * w * np.dtype(np.float32).itemsize:
            self.problems.append(f"gathers wrote {gathered} bytes per pass, "
                                 f"plan says {totals.copied} copied channels")
        for consumer, kept in wl.masks.items():
            if out_graph.layer(consumer).in_channels != len(kept):
                self.problems.append(f"{consumer} reads {out_graph.layer(consumer).in_channels} "
                                     f"channels, its mask keeps {len(kept)}")
        baseline = copy_report(plan_model(graph, masks, strategy="baseline")[0])
        if totals.copied > baseline.copied:
            self.problems.append(f"reorder copies {totals.copied} channels, "
                                 f"baseline {baseline.copied}")
        if len(self.digests) > 1:
            self.problems.append("repeated exports wrote different artifacts")

    def reference(self) -> list[dict]:
        """Copied channels and pass latency of each export strategy."""
        rows = []
        for strategy in STRATEGIES:
            prefix = self.dir / f"ref-{strategy}"
            code = self.program(self.argv("export", prefix, "--strategy", strategy))
            if code != 0:
                rows.append({"strategy": strategy, "error": self.program.errors[-1]})
                continue
            totals = copy_report(load_plans(self.artifacts(prefix)[2]))
            passes = self.pass_times(self.warm_executor(prefix), REFERENCE_PASSES)
            rows.append({"strategy": strategy, "total_reads": totals.total_reads,
                         "copied": totals.copied, "infer_ms": 1e3 * median(passes),
                         "passes": len(passes)})
        return rows

    def cleanup(self) -> None:
        for path in self.dir.glob("*.json"):
            if path.name not in ("trace.json", "result.json"):
                path.unlink()


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=SIZES,
                        help="'smoke' builds every workload small enough to finish in seconds")
    parser.add_argument("--reference", action="store_true",
                        help="print copied channels and pass latency per export strategy "
                             "instead of the metrics")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str], src: Path) -> int:
    args = parse(argv)
    run = Run(args, src)
    try:
        if args.reference:
            for row in run.reference():
                print(json.dumps(row))
            return 0
        deadline = time.perf_counter() + args.seconds
        values = run.per_layer(deadline) if args.trace else run.end_to_end(deadline)
        run.check()
    finally:
        run.cleanup()
    run.notes.append(f"captured from reslice: {run.program.stdout_lines} stdout lines, "
                     f"log records {dict(run.program.log.records)}")
    for line in run.notes + run.program.errors[:3] + run.problems:
        print(line)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in values.items()},
    }
    line = json.dumps(result)
    (run.dir / "result.json").write_text(line + "\n")
    print(line)
    return 0


def _unit(name: str) -> str:
    """Units follow the metric names' suffixes; anything else is a count."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"
