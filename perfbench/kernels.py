"""GF(p) kernel micro-benchmark of the traced run: fixed shapes against
the BLAS flop floor.

The small shapes, their matrices and the timing loop are those of the
repository's backend comparison, benchmarks/bench_kernels.py, imported
from there.  This adds the 1944 x 5832 and 5832 x 1944 eliminations of
the 3-variable scan and the float64 matmul rate of the same process;
`measure()` reports them as `kernels.*` for the loaded backend.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_kernels  # noqa: E402

# (label, kind, rows, cols) as in bench_kernels.CASES: the stage-6 sizes
BIG = [
    ("rref 1944x5832", "rref", 1944, 5832),
    ("rref 5832x1944", "rref", 5832, 1944),
]
SMALL_REPEATS = 3  # bench_kernels' default; each big case runs once


def metric_name(label: str) -> str:
    return "kernels.bench_" + label.replace(" ", "_")


def blas_gflops(n: int = 1024, repeats: int = 5) -> float:
    """Best float64 n x n matmul rate, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    a @ b
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2 * n ** 3 / best / 1e9


def measure() -> dict:
    """Kernel metrics by name: best seconds per shape, the BLAS rate and,
    for rref, the factor above the flop floor 2*m*n*min(m, n) (a random
    matrix over GF(101) has full rank with probability about 99%)."""
    from lindef import _kernels

    gflops = blas_gflops()
    out = {"backend": _kernels.BACKEND, "kernels.blas_gflops": gflops}
    for cases, repeats in ((bench_kernels.CASES, SMALL_REPEATS), (BIG, 1)):
        for label, kind, rows, cols in cases:
            secs = bench_kernels.run_case(kind, rows, cols, repeats)
            name = metric_name(label)
            out[name + "_s"] = secs
            if kind == "rref":
                floor = 2 * rows * cols * min(rows, cols) / (gflops * 1e9)
                out[name + "_vs_blas"] = secs / floor
    return out
