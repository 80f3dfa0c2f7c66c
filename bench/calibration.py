"""Machine-speed calibration for the end-to-end timings.

On the shared 2-CPU machine this benchmark was written on, the speed of the
same pure-Python loop drifted by up to 2x within seconds and by 20-50%
between runs minutes apart, on either CPU, in CPU time as much as in wall
time. A median over repetitions cannot remove drift slower than one run.

So a run times two fixed kernels between its timed steps, all through the
run: a pure-Python kernel (dictionary updates, integer arithmetic, string
formatting: what the compiler and its JSON files spend their time on)
between set-up, export and verify, and a numpy kernel (matrix products,
element-wise passes, a gather: what an inference pass does) between groups
of forward passes. A reading is the kernel's time over its nominal time
below (this machine's typical figures), so a scaled timing reads as seconds
on a machine where the kernels take their nominal time. The harness divides
command timings by the run's median Python reading and each group of
passes by the numpy readings on either side of it; bench/README.md gives
the measurements behind each choice. Raw medians are printed as well.
"""

from __future__ import annotations

import time

import numpy as np

PY_NOMINAL_S = 0.0150
NP_NOMINAL_S = 0.0055

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((2, 64, 28, 28)).astype(np.float32)
_Y = np.empty_like(_X)
_W = _rng.standard_normal((64, 64)).astype(np.float32)
_INDEX = _rng.permutation(64)[:40]
_G = np.empty((2, 40, 28, 28), dtype=np.float32)


def python_kernel() -> int:
    table: dict[int, int] = {}
    parts = []
    total = 0
    for i in range(50000):
        key = i & 511
        table[key] = table.get(key, 0) + i
        total += i * i % 7
        if i % 16 == 0:
            parts.append(f"{key}:{total % 1000}")
    return total + len(",".join(parts))


def numpy_kernel() -> None:
    src = _X.reshape(2, 64, 784)
    dst = _Y.reshape(2, 64, 784)
    for _ in range(24):
        np.matmul(_W, src, out=dst)
        np.maximum(_Y, 0.0, out=_Y)
        np.add(_X, _Y, out=_Y)
        np.take(_Y, _INDEX, axis=1, out=_G, mode="clip")


def python_speed() -> float:
    """Measured over nominal time of the Python kernel; above 1 means the
    machine is running slower than nominal."""
    start = time.perf_counter()
    python_kernel()
    return (time.perf_counter() - start) / PY_NOMINAL_S


def numpy_speed() -> float:
    """As ``python_speed``, for the numpy kernel."""
    start = time.perf_counter()
    numpy_kernel()
    return (time.perf_counter() - start) / NP_NOMINAL_S
