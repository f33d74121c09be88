"""Compare two sets of saved benchmark records (run.py --save).

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files or directories of them (one file per run,
any workloads and seeds).  Records are grouped by workload and trace mode;
per metric the medians and quartiles of each side are printed with their
ratio, and for end-to-end metrics whether NEW stays within the bound that
BENCHMARK.json fixes.  Refuses (exit 2) when the two sides ran on a
different kernel backend or BLAS thread count.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MATCH_KEYS = ("backend", "blas_threads")


def load(path: str) -> list:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(argv[0]), load(argv[1])
    for key in MATCH_KEYS:
        seen = {(r["env"].get(key)) for r in base + new}
        if len(seen) > 1:
            print(f"refusing to compare: {key} differs between runs "
                  f"({sorted(map(str, seen))})", file=sys.stderr)
            return 2
    spec = bounds()
    groups = sorted({(r["env"]["workload"], r["trace"]) for r in base + new})
    worse = 0
    for workload, trace in groups:
        a = [r for r in base if (r["env"]["workload"], r["trace"]) == (workload, trace)]
        b = [r for r in new if (r["env"]["workload"], r["trace"]) == (workload, trace)]
        print(f"{workload}  trace {trace}  runs {len(a)} vs {len(b)}  "
              f"failed {sum(r['failed'] for r in a)} vs {sum(r['failed'] for r in b)}")
        names = sorted({n for r in a + b for n in r["metrics"]})
        for name in names:
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            m = spec.get(name, {})
            verdict = ""
            if "bound" in m:
                change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                if m["better"] == "higher":
                    change = -change
                ok = change <= m["bound"]
                worse += not ok
                verdict = "ok" if ok else f"WORSE than bound {m['bound']}"
            unit = next(r["metrics"][name]["unit"] for r in a + b
                        if name in r["metrics"])
            print(f"  {name:<36} {qa[1]:>12.5g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                  f"{qb[1]:>12.5g} [{qb[0]:.4g}, {qb[2]:.4g}] {unit:<8} "
                  f"x{ratio:.3f} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
