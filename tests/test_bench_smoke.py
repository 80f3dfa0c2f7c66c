"""The benchmark at smoke size: every workload runs, traced, and passes its
own correctness checks.

The traced pass looks reslice's functions up by name (``bench/tracing.py``),
so this also catches a rename that would break the tracer or leave a
patched name unused. No timing is checked.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["deep-chain", "fanout-solver", "wide-stream"])
def test_benchmark_smoke(workload):
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1", "--size", "smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["attempted"] >= 2
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["planner.apply_calls"]["value"] > 0
    assert metrics["graph.validate_calls"]["value"] > 0
