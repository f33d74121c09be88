"""Timing comparison of the GF(p) elimination backends.

Runs the same workload under LINDEF_KERNELS=pure and =fast in child
processes (backend choice is made at import time) and prints one table
with a column per backend that loads. A backend that does not load (the
compiled one when `_speedups` is not built) gets a note on stderr
instead; the exit status is 1 only when no backend ran. Only
panel_jordan and its caller rref differ between backends; the matmul
layer is shared numpy/BLAS orchestration.

Usage: python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

P = 101

# (label, kind, rows, cols)
CASES = [
    ("panel 2000x64", "panel", 2000, 64),
    ("panel 8000x64", "panel", 8000, 64),
    ("rref 300x300", "rref", 300, 300),
    ("rref 600x600", "rref", 600, 600),
    ("rref 300x1200", "rref", 300, 1200),
]


def run_case(kind, rows, cols, repeat):
    from lindef import _kernels
    from lindef._kernels import rref

    rng = np.random.default_rng(rows * 31 + cols)
    best = float("inf")
    for _ in range(repeat):
        a = rng.integers(0, P, size=(rows, cols), dtype=np.int64)
        t0 = time.perf_counter()
        if kind == "panel":
            _kernels._panel_jordan(a, P)
        else:
            rref(a, P)
        best = min(best, time.perf_counter() - t0)
    return best


def worker(repeat):
    from lindef import _kernels

    out = {"backend": _kernels.BACKEND, "times": {}}
    for label, kind, rows, cols in CASES:
        out["times"][label] = run_case(kind, rows, cols, repeat)
    print(json.dumps(out))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.worker:
        worker(args.repeat)
        return

    results = {}
    for choice in ("pure", "fast"):
        env = dict(os.environ, LINDEF_KERNELS=choice)
        proc = subprocess.run(
            [sys.executable, __file__, "--worker", "--repeat", str(args.repeat)],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"note: backend {choice!r} not timed: {last}", file=sys.stderr)
            continue
        rec = json.loads(proc.stdout)
        assert rec["backend"] == choice, rec
        results[choice] = rec["times"]

    if not results:
        sys.exit(1)

    width = max(len(label) for label, *_ in CASES)
    header = f"{'case':<{width}}" + "".join(f"  {b:>10}" for b in results)
    both = len(results) == 2
    print(header + ("  speedup" if both else ""))
    for label, *_ in CASES:
        times = [results[b][label] for b in results]
        line = f"{label:<{width}}" + "".join(f"  {t:>9.4f}s" for t in times)
        if both:
            line += f"  {times[0] / times[1]:>6.2f}x"
        print(line)

if __name__ == "__main__":
    main()
