"""The benchmark at smoke size: every workload runs, traced, and passes its
own correctness checks.

The traced pass looks reslice's functions up by name (``bench/tracing.py``),
so this also catches a rename that would break the tracer or leave a
patched name unused. No timing is checked.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["deep-chain", "fanout-solver", "wide-stream"])
def test_benchmark_smoke(workload):
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1", "--size", "smoke"]
    # the run writes into .bench_out/ under a name that ends in its pid
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate(timeout=300)
    finally:
        proc.kill()  # a no-op unless the run timed out
        proc.wait()
        shutil.rmtree(ROOT / ".bench_out" / f"{workload}-smoke-seed1-trace1-pid{proc.pid}",
                      ignore_errors=True)
    assert proc.returncode == 0, stderr[-2000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True, stdout[-2000:]
    assert result["attempted"] >= 2
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["planner.apply_calls"]["value"] > 0
    assert metrics["graph.validate_calls"]["value"] > 0
