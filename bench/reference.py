"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host, other tenants slow every kind of work by 30-80% for
seconds to minutes at a time, and CPU time rises with wall time, so the
slowdown is not time spent waiting for the scheduler. The kernel below
does a fixed mix of the work dafa does (interpreter loops, dicts, string
formatting, json, small numpy products and reductions) and uses no dafa
code, so a change to dafa cannot move it. Timing it right before and
after a call into dafa and scaling the call by `NOMINAL_MS / kernel time`
gives the call's time at the host speed where the kernel takes
`NOMINAL_MS`. Importing this module imports numpy, so the caller pins
BLAS threading first.
"""

from __future__ import annotations

import io
import json
import statistics
from time import perf_counter

import numpy as np

# the kernel's time on a quiet 2-vCPU Xeon VM (Python 3.11, numpy 2.4, one BLAS thread)
NOMINAL_MS = 5.5
_A = np.random.default_rng(0).random((24, 24))


def kernel_ms() -> float:
    """Run the kernel once and return its wall time in ms."""
    start = perf_counter()
    for _ in range(6):
        table = {f"k{i}": [i * 0.5, str(i)] for i in range(400)}
        json.loads(json.dumps(table))
        for _ in range(40):
            b = np.exp(-(_A @ _A) / 24)
            b /= b.sum(axis=1, keepdims=True)
        out = io.StringIO()
        for row in b.tolist():
            out.write(",".join(f"{x:.6f}" for x in row) + "\n")
    return (perf_counter() - start) * 1e3


def sample_ms(repeats: int = 3) -> float:
    """Median kernel time over a few back-to-back runs."""
    return statistics.median(kernel_ms() for _ in range(repeats))
