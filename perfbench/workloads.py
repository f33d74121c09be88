"""Workload definitions: inputs made from a seed, one timed unit, its checks.

A unit is one whole workload instance: the entry calls a user would make,
timed from outside.  Inputs depend only on the benchmark seed; the program
sees the generated configs and ring text, never the seed itself.

scan-wide   lab.scan(nvars=3, nilpotency=3, horizon=5), one sample.  Every
            sample has dim 8, Hilbert function (1,3,4), b_5 = 243; the
            stage-6 kernel is a 1944 x 5832 elimination.
scan-many   lab.scan(nvars=2, nilpotency=4, horizon=6) over 32 light samples
            (two quadrics, dim 4) and 8 heavy ones (two cubics, dim 8): the
            32/8 split the default degree range gives on average, pinned so
            the work does not depend on the seed.
ci-dim100   cli.main(["analyze", ..., "--horizon", "5", "--format", "json"])
            on k[x,y]/(f,g) over GF(101), f and g dense degree-10 forms with
            seeded coefficients: a complete intersection of dim 100.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from contextlib import redirect_stdout

P = 101
MASK64 = (1 << 64) - 1

WORKLOADS = ("scan-wide", "scan-many", "ci-dim100")

# (label, ScanConfig keyword arguments besides seed)
SCAN_PARTS = {
    "scan-wide": [
        ("wide", dict(nvars=3, nilpotency=3, horizon=5, count=1)),
    ],
    "scan-many": [
        ("light", dict(nvars=2, nilpotency=4, horizon=6, count=32,
                       degree_range=(2, 2))),
        ("heavy", dict(nvars=2, nilpotency=4, horizon=6, count=8,
                       degree_range=(3, 3))),
    ],
}

CI_DEGREE = 10
CI_HORIZON = 5


class _SplitMix64:
    """Seeded integer stream for benchmark inputs (independent of lindef)."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next() % bound


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd_degree(a, b) -> int:
    """Degree of gcd(a, b) over GF(P); coefficient lists, low degree first."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], -1, P)
        while len(a) >= len(b):
            c = a[-1] * inv % P
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % P
            _trim(a)
        a, b = b, a
    return len(a) - 1


def ci_forms(seed: int):
    """Two dense degree-10 forms in x, y with no common factor.

    f(x, y) and g(x, y) share a factor exactly when they both vanish at
    y = 0 (both lack x^10) or f(x, 1), g(x, 1) have a common root, so
    f is drawn with a nonzero x^10 coefficient and pairs with a
    nontrivial univariate gcd are redrawn.
    """
    rs = _SplitMix64(seed ^ 0xC1D1)
    while True:
        f = [rs.below(P) for _ in range(CI_DEGREE + 1)]  # f[i] on x^i y^(10-i)
        g = [rs.below(P) for _ in range(CI_DEGREE + 1)]
        if f[CI_DEGREE] and _poly_gcd_degree(f, g) == 0:
            return f, g


def ci_ring_text(seed: int) -> str:
    def power(var, e):
        return "" if e == 0 else var if e == 1 else f"{var}^{e}"

    def form(c):
        terms = []
        for i, coef in enumerate(c):
            if coef:
                mono = "*".join(filter(None, (power("x", i),
                                              power("y", CI_DEGREE - i))))
                terms.append(f"{coef}*{mono}")
        return " + ".join(terms)

    f, g = ci_forms(seed)
    return f"char {P}\nvars x y\nideal {form(f)}, {form(g)}\n"


def ci_expected_betti():
    """(1+t)^2 / (1-t^2)^2 = sum (i+1) t^i (Tate 1957)."""
    return [i + 1 for i in range(CI_HORIZON + 1)]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_unit(workload: str, seed: int, tmpdir: str):
    """Run one workload instance.  Returns (entry-call seconds, outcome).

    outcome holds "digest" (sha256 of every output byte, in order) and
    "problems" (a list of failed checks; empty when every check passed).
    Only the entry calls are timed: input files are written before the
    clock starts and outputs are checked after it stops.
    """
    problems = []
    if workload in SCAN_PARTS:
        from lindef.lab import ScanConfig, exit_code_for_summary, scan

        jobs = []
        for label, kw in SCAN_PARTS[workload]:
            cfg = ScanConfig(seed=seed, **kw)
            jobs.append((label, cfg, os.path.join(tmpdir, f"{label}.jsonl")))
        t0 = time.perf_counter()
        summaries = [scan(cfg, out_path=path)[0] for _, cfg, path in jobs]
        wall = time.perf_counter() - t0
        blob = b""
        for (label, cfg, path), summary in zip(jobs, summaries):
            with open(path, "rb") as fh:
                data = fh.read()
            blob += data
            if exit_code_for_summary(summary) != 0:
                problems.append(f"{label}: {summary['violations']} violations")
            if summary["count"] != cfg.count or data.count(b"\n") != cfg.count:
                problems.append(f"{label}: expected {cfg.count} records")
        return wall, {"digest": digest(blob), "problems": problems}

    if workload == "ci-dim100":
        from lindef.cli import main

        ring = os.path.join(tmpdir, "ci.txt")
        with open(ring, "w", encoding="utf-8") as fh:
            fh.write(ci_ring_text(seed))
        argv = ["analyze", "--ring", ring, "--horizon", str(CI_HORIZON),
                "--format", "json"]
        out = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out):
            code = main(argv)
        wall = time.perf_counter() - t0
        text = out.getvalue()
        if code != 0:
            problems.append(f"analyze exited {code}")
        try:
            rec = json.loads(text)
        except ValueError:
            rec = {}
            problems.append("analyze printed no JSON record")
        if rec.get("dim") != CI_DEGREE * CI_DEGREE:
            problems.append(f"dim {rec.get('dim')} != {CI_DEGREE * CI_DEGREE}")
        if rec.get("nilpotency_index") != 2 * CI_DEGREE - 1:
            problems.append(f"nilpotency index {rec.get('nilpotency_index')} "
                            f"!= {2 * CI_DEGREE - 1}")
        if rec.get("betti") != ci_expected_betti():
            problems.append(f"betti {rec.get('betti')} != {ci_expected_betti()}")
        return wall, {"digest": digest(text.encode()), "problems": problems}

    raise ValueError(f"unknown workload {workload!r}")
