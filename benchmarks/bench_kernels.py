"""Timing comparison of the GF(p) elimination panels.

Times the same workload with each panel that loads, in one process: the
numpy panel `pure.panel_jordan` always, the compiled `_speedups` one
when it was built (otherwise a note on stderr says so). Each run sets
`_kernels._panel_jordan`, which `rref` calls, and restores it
afterwards. Only the panel differs; rref's orchestration and the matmul
layer are shared numpy/BLAS code.

Usage: python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
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


def panels():
    """The panels that load, by backend name."""
    from lindef._kernels import pure

    out = {"pure": pure.panel_jordan}
    try:
        from lindef._kernels import _speedups
    except ImportError as exc:
        print(f"note: backend 'fast' not timed: {exc}", file=sys.stderr)
    else:
        out["fast"] = _speedups.panel_jordan
    return out


def time_panel(panel, repeat):
    """Best seconds per case with `panel` as rref's panel."""
    from lindef import _kernels

    saved = _kernels._panel_jordan
    _kernels._panel_jordan = panel
    try:
        return {label: run_case(kind, rows, cols, repeat)
                for label, kind, rows, cols in CASES}
    finally:
        _kernels._panel_jordan = saved


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    results = {name: time_panel(panel, args.repeat)
               for name, panel in panels().items()}

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
