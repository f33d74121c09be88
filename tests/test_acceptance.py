"""Acceptance gate: one test per criterion, each printing a verdict line.

The random suites are generated once per run from pinned seeds and
shared by the criteria that quantify over them. Every ld/upsilon number
asserted here was derived independently before being frozen.
"""

import time

import pytest

from lindef.lab import ScanConfig, random_algebra, scan
from lindef.linear_part import defect_profile, linear_part
from lindef.presentation import algebra_from_text
from lindef.resolution import resolve
from lindef.tor_ladder import tor_ladder

# m^3 = 0 sample plans: 52 algebras, <= 3 variables
SUITE_M3 = (
    ScanConfig(nvars=2, nilpotency=3, extra_gens=1, count=30, horizon=6, seed=101),
    ScanConfig(nvars=2, nilpotency=3, extra_gens=2, count=10, horizon=6, seed=102),
    ScanConfig(nvars=3, nilpotency=3, extra_gens=3, count=12, horizon=6, seed=103),
)
# m^4 = 0 sample plans: 52 algebras
SUITE_M4 = (
    ScanConfig(nvars=2, nilpotency=4, extra_gens=2, count=30, horizon=6, seed=104),
    ScanConfig(nvars=2, nilpotency=4, extra_gens=3, count=22, horizon=6, seed=105),
)
SUITE_BUDGET_SECONDS = 600.0


@pytest.fixture(scope="module")
def suites():
    t0 = time.perf_counter()
    runs = {
        "m3": [scan(cfg) for cfg in SUITE_M3],
        "m4": [scan(cfg) for cfg in SUITE_M4],
    }
    elapsed = time.perf_counter() - t0
    reports = {
        key: [r for _, rs in runs[key] for r in rs] for key in ("m3", "m4")
    }
    return {"runs": runs, "reports": reports, "elapsed": elapsed}


def verdict(capsys, num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def ring(text):
    return algebra_from_text(text)


def test_criterion_1_closed_forms(capsys):
    per_case = {}

    t0 = time.perf_counter()
    res = resolve(ring("vars x\nideal x^2"), 9)
    prof = defect_profile(linear_part(res), 8)
    ok1 = (
        res.betti[:9] == [1] * 9
        and prof["classification"] == "ld=0 up to horizon"
    )
    per_case["x2"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    res = resolve(ring("vars x\nideal x^3"), 9)
    prof = defect_profile(linear_part(res), 8)
    entries = [res.diff[i].entry_string(0, 0) for i in range(1, 9)]
    ok2 = (
        res.betti[:9] == [1] * 9
        and entries == ["x", "x^2"] * 4
        and all(h > 0 for h in prof["h"])
    )
    per_case["x3"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    res = resolve(ring("vars x y\nideal x^2, x*y, y^2"), 9)
    prof = defect_profile(linear_part(res), 8)
    ok3 = (
        res.betti[:9] == [2**i for i in range(9)]
        and prof["h"] == [0] * 8
    )
    per_case["koszul2"] = time.perf_counter() - t0

    timing_ok = all(dt < 5.0 for dt in per_case.values())
    times = " ".join(f"{k}={v:.2f}s" for k, v in per_case.items())
    verdict(capsys, 1, ok1 and ok2 and ok3 and timing_ok,
            f"x2/x3/koszul2 closed forms exact; {times}")


def test_criterion_2_profile_oracles_agree(capsys, suites):
    reports = suites["reports"]["m3"] + suites["reports"]["m4"]
    n = len(reports)
    suite_ok = (
        len(suites["reports"]["m3"]) >= 50
        and len(suites["reports"]["m4"]) >= 50
        and all(r.dim <= 20 for r in reports)
        and all(r.nilpotency_index == 3 for r in suites["reports"]["m3"])
        and all(r.nilpotency_index <= 4 for r in suites["reports"]["m4"])
    )
    cls = sum(1 for r in reports if r.checks["oracle"]["classification_match"])
    raw = sum(1 for r in reports if r.checks["oracle"]["support_match"])
    from2 = sum(1 for r in reports if r.checks["oracle"]["support_match_from_2"])
    time_ok = suites["elapsed"] < SUITE_BUDGET_SECONDS
    # raw support equality cannot hold: v^n_1(k) = 0 always, while h_1
    # of the linear part is nonzero off the Koszul case; reported as data
    verdict(
        capsys, 2, suite_ok and cls == n and time_ok,
        f"classifications {cls}/{n} agree; raw supports {raw}/{n}, "
        f"supports from i>=2 {from2}/{n} (informational); "
        f"suites in {suites['elapsed']:.1f}s",
    )


def test_criterion_3_annihilation(capsys, suites):
    reports = suites["reports"]["m3"] + suites["reports"]["m4"]
    bad = 0
    for r in reports:
        ann = r.checks["annihilation"]
        assert set(ann) == set(range(6))
        if not all(ann[n] for n in range(6)):
            bad += 1
    verdict(capsys, 3, bad == 0,
            f"m*-annihilation of lin homology at n<=5: {bad} violations "
            f"across {len(reports)} algebras")


def test_criterion_4_preimage_equivalence(capsys, suites):
    reports = suites["reports"]["m3"] + suites["reports"]["m4"]
    bad = 0
    for r in reports:
        assert set(r.checks["preimage_condition"]) == set(range(7))
        if r.flags["preimage_mismatch"]:
            bad += 1
    verdict(capsys, 4, bad == 0,
            f"preimage condition vs rank v^1_i = 0 at i<=6: {bad} mismatches "
            f"across {len(reports)} algebras")


def test_criterion_5_vanishing_step(capsys, suites):
    reports = suites["reports"]["m4"]
    bad = 0
    applied = 0
    for r in reports:
        records = r.checks["vanishing_step"]
        assert records is not None
        for rec in records:
            if rec["antecedent"]:
                applied += 1
                if rec["holds"] is not True:
                    bad += 1
    verdict(capsys, 5, bad == 0 and applied > 0,
            f"v^1_i = 0 forced v^2_i = 0 in {applied - bad}/{applied} "
            f"applicable cells over {len(reports)} m^4=0 algebras")


def test_criterion_6_no_silence_tail(capsys):
    t0 = time.perf_counter()
    flagged = []
    total = 0
    for cfg in SUITE_M4:
        for index in range(cfg.count):
            algebra = random_algebra(cfg, index)
            res = resolve(algebra, 9)
            prof = defect_profile(linear_part(res), 8)
            total += 1
            if prof["silence_tail"]:
                flagged.append((cfg.seed, index, algebra))
    findings = []
    for seed, index, algebra in flagged:
        # deeper horizon needs a larger expansion budget
        res = resolve(algebra, 13,
                      max_expand_entries=2_000_000_000)
        prof = defect_profile(linear_part(res), 12)
        if prof["silence_tail"]:
            findings.append((seed, index))
    elapsed = time.perf_counter() - t0
    verdict(capsys, 6, not findings,
            f"silence tails at horizon 8: {len(flagged)}/{total} flagged, "
            f"{len(findings)} survived horizon 12; {elapsed:.1f}s")


# tier-1 runs without -O and so runs this criterion; under -O it skips
@pytest.mark.skipif(not __debug__, reason="criterion 7 needs assertions armed")
def test_criterion_7_structural_invariants(capsys, suites):
    # the suites ran with assertions armed; re-verify a spread of
    # resolutions independently of the builder's own checks
    assert __debug__, "acceptance must run with assertions enabled"
    targets = [
        ring("vars x\nideal x^3"),
        ring("vars x y\nideal x^2, x*y, y^2"),
    ]
    for cfg in (*SUITE_M3, *SUITE_M4):
        targets.append(random_algebra(cfg, 0))
    checked = 0
    ok = True
    for algebra in targets:
        field = algebra.field
        res = resolve(algebra, 5)
        lad = tor_ladder(res, 4)
        expands = [None] + [res.diff[i].expand() for i in range(1, 6)]
        for i in range(1, 5):
            ok = ok and field.is_zero(
                field.matmul(expands[i + 1], expands[i])
            )
            ok = ok and res.diff[i].is_minimal()
            null_i = expands[i].shape[0] - field.rank(expands[i])
            ok = ok and null_i == field.rank(expands[i + 1])
        ok = ok and all(lad.tor_dim(1, i) == res.betti[i] for i in range(5))
        checked += 1
    verdict(capsys, 7, ok,
            f"d∘d=0, minimality, exactness, Tor_i(k,k)=b_i re-verified on "
            f"{checked} resolutions; suite assertions all held")


def test_criterion_8_determinism(capsys, tmp_path):
    pairs = []
    for cfg in (SUITE_M3[0], SUITE_M4[0]):
        p1 = tmp_path / f"run1_{cfg.seed}.jsonl"
        p2 = tmp_path / f"run2_{cfg.seed}.jsonl"
        s1, _ = scan(cfg, out_path=p1)
        s2, _ = scan(cfg, out_path=p2)
        pairs.append((p1.read_bytes(), p2.read_bytes(), s1, s2))
    ok = all(b1 == b2 and len(b1) > 0 and s1 == s2 for b1, b2, s1, s2 in pairs)
    verdict(capsys, 8, ok,
            f"repeated scans byte-identical on {len(pairs)} configs")
