#!/usr/bin/env python3
"""Benchmark of the reslice export compiler.

    python3 bench/run.py --workload deep-chain --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/`` next
to this directory. The last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``. See bench/README.md.
"""

import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy is first imported: on a small shared
# machine, a second thread mostly adds scheduling noise to the timings.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "reslice" / "__init__.py").is_file():
        print(f"error: the reslice sources are missing ({SRC / 'reslice'}); "
              "run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main(sys.argv[1:], SRC))
