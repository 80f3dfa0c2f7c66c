#!/usr/bin/env python3
"""Runs every workload at its smoke size, traced and untraced, and checks
the form of each result against BENCHMARK.json and that every correctness
check passed. It has no timing bound; it finishes in well under a minute.

    python3 bench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402


def check(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("a correctness check failed")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1):
        problems.append(f"attempted {attempted!r}, failed {failed!r}")
    elif failed:
        problems.append(f"{failed} of {attempted} operations failed")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: {got!r}, want a number in {unit}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        print(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
        return 1
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            else:
                problems = check(json.loads(lines[-1]), declared[trace])
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
