"""Random-algebra scans: sampling, full_check, summaries, JSONL output."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import lindef

from lindef.errors import LindefError, ParseError, ResourceLimitError
from lindef.lab import (
    FLAG_NAMES,
    ScanConfig,
    exit_code_for_summary,
    full_check,
    random_algebra,
    scan,
)
from lindef.presentation import algebra_from_text
from test_acceptance import SUITE_M3, SUITE_M4


def ring(text):
    return algebra_from_text(text)


class TestScanConfig:
    def test_defaults(self):
        cfg = ScanConfig()
        assert cfg.degree_range == (2, 3)
        assert cfg.exploratory is False

    def test_degree_range_caps_at_nilpotency(self):
        assert ScanConfig(nilpotency=3).degree_range == (2, 2)

    def test_exploratory_marker(self):
        assert ScanConfig(nilpotency=5).exploratory is True

    @pytest.mark.parametrize(
        "kw",
        [
            {"nvars": 0},
            {"nvars": 5},
            {"char": 0},
            {"char": 15},
            {"nilpotency": 6},
            {"nilpotency": 2},
            {"degree_range": (1, 2)},
            {"nilpotency": 4, "degree_range": (2, 4)},
            {"extra_gens": -1},
            {"horizon": 1},
            {"count": -1},
        ],
    )
    def test_rejections(self, kw):
        with pytest.raises(LindefError):
            ScanConfig(**kw)

    def test_describe_roundtrips_through_json(self):
        cfg = ScanConfig(nvars=3, nilpotency=3, count=7, seed=11)
        d = json.loads(json.dumps(cfg.describe()))
        assert d["nvars"] == 3 and d["seed"] == 11


class TestSampling:
    def test_same_index_same_algebra(self):
        cfg = ScanConfig(count=1, seed=5)
        a1 = random_algebra(cfg, 3)
        a2 = random_algebra(cfg, 3)
        assert a1.presentation == a2.presentation
        assert (a1.table == a2.table).all()

    def test_different_indices_differ(self):
        cfg = ScanConfig(count=1, seed=5)
        a1 = random_algebra(cfg, 0)
        a2 = random_algebra(cfg, 1)
        assert a1.presentation != a2.presentation

    def test_seed_changes_stream(self):
        a1 = random_algebra(ScanConfig(seed=1), 0)
        a2 = random_algebra(ScanConfig(seed=2), 0)
        assert a1.presentation != a2.presentation

    def test_no_resamples_with_quadratic_forms(self):
        # degree >= 2 forms cannot collapse the degree-1 part, so no
        # sample needs a redraw and every record says "resamples": 0
        cfg = ScanConfig(nvars=2, nilpotency=3, extra_gens=2, horizon=2, count=6, seed=9)
        for index in range(cfg.count):
            assert random_algebra(cfg, index).graded().dims[1] == 2
        summary, reports = scan(cfg)
        assert summary["resamples"] == 0
        assert all(r.to_json_dict()["resamples"] == 0 for r in reports)

    def test_nilpotency_bounded_by_cap(self):
        cfg = ScanConfig(nvars=2, nilpotency=4, extra_gens=1, seed=2)
        for index in range(4):
            algebra = random_algebra(cfg, index)
            assert algebra.nilpotency_index <= 4


class TestFullCheck:
    def test_koszul_algebra_clean(self):
        report = full_check(ring("vars x y\nideal x^2, x*y, y^2"), 3)
        assert report.lin["classification"] == "ld=0 up to horizon"
        assert report.has_violation is False
        assert all(report.flags[f] is False for f in FLAG_NAMES)

    def test_x3_oracles_agree_on_classification_not_support(self):
        report = full_check(ring("vars x\nideal x^3"), 4)
        oracle = report.checks["oracle"]
        assert oracle["classification_match"] is True
        assert oracle["support_match"] is False
        assert report.lin["nonzero_indices"] == [1, 2, 3, 4]
        assert report.upsilon["nonzero_indices"] == [2, 4]
        assert report.flags["oracle_mismatch"] is False

    def test_checks_sections_present(self):
        report = full_check(ring("vars x\nideal x^4"), 3)
        assert set(report.checks) == {
            "oracle",
            "annihilation",
            "cycle_equality",
            "vanishing_step",
            "preimage_condition",
        }
        assert set(report.checks["annihilation"]) == {0, 1, 2}
        assert set(report.checks["cycle_equality"]) == {1, 2}
        assert set(report.checks["preimage_condition"]) == {0, 1, 2, 3}
        assert report.checks["vanishing_step"] is not None

    def test_vanishing_step_skipped_beyond_m4(self):
        report = full_check(ring("vars x\nideal x^5"), 3)
        assert report.checks["vanishing_step"] is None
        assert report.flags["vanishing_step_violation"] is False

    # Each script breaks one invariant full_check re-verifies; run under
    # `python -O`, which strips bare asserts, it must still raise.
    BROKEN_INVARIANTS = {
        "tor_dim": """
            real = lab.tor_ladder
            def tor_ladder(res, horizon):
                ladder = real(res, horizon)
                right = ladder.tor_dim
                ladder.tor_dim = lambda n, i: right(n, i) + (i == 1)
                return ladder
            lab.tor_ladder = tor_ladder
        """,
        "upsilon_h1": """
            real = lab.upsilon_defect_profile
            def upsilon_defect_profile(ladder):
                out = real(ladder)
                out["h"][0] = 1
                return out
            lab.upsilon_defect_profile = upsilon_defect_profile
        """,
    }

    @pytest.mark.parametrize("broken", sorted(BROKEN_INVARIANTS))
    def test_invariant_checks_survive_python_O(self, broken):
        script = (
            "from lindef import lab\n"
            "from lindef.presentation import algebra_from_text\n"
            + textwrap.dedent(self.BROKEN_INVARIANTS[broken])
            + textwrap.dedent("""
                import sys
                if __debug__:
                    sys.exit("not running under -O")
                try:
                    lab.full_check(algebra_from_text("vars x\\nideal x^3"), 2)
                except AssertionError as exc:
                    print("raised:", exc)
                else:
                    sys.exit("full_check passed a broken invariant")
            """)
        )
        src = str(Path(lindef.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stdout.startswith("raised:")

    def test_betti_recorded_to_horizon(self):
        report = full_check(ring("vars x y\nideal x^2, x*y, y^2"), 3)
        assert report.betti == [1, 2, 4, 8]

    def test_report_serializes(self):
        report = full_check(ring("vars x\nideal x^3"), 2)
        blob = json.dumps(report.to_json_dict(seed=0), sort_keys=True)
        back = json.loads(blob)
        assert back["schema"] == 1
        assert back["dim"] == 3
        assert back["flags"]["oracle_mismatch"] is False

    def test_horizon_guard(self):
        with pytest.raises(LindefError):
            full_check(ring("vars x\nideal x^3"), 1)


class TestScan:
    CFG = ScanConfig(nvars=2, nilpotency=3, extra_gens=1, count=4,
                     horizon=3, seed=7)

    def test_summary_shape(self):
        summary, reports = scan(self.CFG)
        assert summary["schema"] == 1
        assert summary["rng"] == "splitmix64"
        assert summary["count"] == 4 == len(reports)
        assert sum(summary["classifications"].values()) == 4
        assert set(summary["flags"]) == set(FLAG_NAMES)
        assert summary["config"] == self.CFG.describe()

    def test_classifications_use_known_strings(self):
        summary, _ = scan(self.CFG)
        for cls in summary["classifications"]:
            assert cls == "ld=0 up to horizon" or cls.startswith("defect >= ")

    def test_no_violations_on_suite(self):
        summary, reports = scan(self.CFG)
        assert summary["violations"] == 0
        assert not any(r.has_violation for r in reports)

    def test_jsonl_output_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        scan(self.CFG, out_path=p1)
        scan(self.CFG, out_path=p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        assert len(b1) > 0

    def test_jsonl_records_well_formed(self, tmp_path):
        p = tmp_path / "out.jsonl"
        scan(self.CFG, out_path=p)
        lines = p.read_text().splitlines()
        assert len(lines) == self.CFG.count
        for k, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["schema"] == 1
            assert rec["index"] == k
            assert rec["seed"] == self.CFG.seed
            assert rec["presentation"]["char"] == self.CFG.char
            assert set(rec["flags"]) == set(FLAG_NAMES)

    def test_prime_near_2_31(self):
        # panels one column wide; every elimination runs the int64 loop
        cfg = ScanConfig(nvars=2, nilpotency=4, horizon=5, count=1, seed=1,
                         char=2**31 - 1)
        summary, reports = scan(cfg)
        assert summary["violations"] == 0
        assert reports[0].betti == [1, 2, 4, 8, 16, 32]

    def test_empty_scan(self, tmp_path):
        cfg = ScanConfig(count=0)
        p = tmp_path / "empty.jsonl"
        summary, reports = scan(cfg, out_path=p)
        assert summary["count"] == 0 and reports == []
        assert summary["violations"] == 0
        assert p.read_bytes() == b""

    @pytest.mark.parametrize("error", [LindefError, ResourceLimitError, ParseError])
    def test_failing_sample_named(self, error, monkeypatch):
        # the error escapes with its own type, now naming its sample
        fail_samples(monkeypatch, {
            2: lambda: (error("bad cell", 4, 2) if error is ParseError
                        else error("differential 7 would expand")),
        })
        with pytest.raises(error) as info:
            scan(self.CFG)
        assert type(info.value) is error
        assert str(info.value).startswith("sample 2: ")
        assert str(info.value).endswith(
            "line 4, column 2: bad cell" if error is ParseError
            else "differential 7 would expand")

    def test_exit_codes(self):
        summary, _ = scan(ScanConfig(count=0))
        assert exit_code_for_summary(summary) == 0
        assert exit_code_for_summary({"violations": 3}) == 2


def fail_samples(monkeypatch, errors, delay=None):
    """Make full_check raise errors[i]() on sample i, after sleeping
    delay[i] seconds if given. random_algebra tags each algebra with its
    index, so this holds in whichever process checks the sample."""
    import lindef.lab as lab

    real_sample, real_check = lab.random_algebra, lab.full_check
    delay = delay or {}

    def sample(cfg, index):
        algebra = real_sample(cfg, index)
        algebra.scan_index = index
        return algebra

    def check(algebra, horizon):
        index = algebra.scan_index
        time.sleep(delay.get(index, 0))
        if index in errors:
            raise errors[index]()
        return real_check(algebra, horizon)

    monkeypatch.setattr(lab, "random_algebra", sample)
    monkeypatch.setattr(lab, "full_check", check)


def pin_workers(monkeypatch, workers):
    import lindef.lab as lab

    monkeypatch.setattr(lab, "_workers", lambda count: min(count, workers))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelScan:
    """Samples split over forked workers give the serial bytes, and no
    worker outlives the scan."""

    CONFIGS = (TestScan.CFG, *SUITE_M3, *SUITE_M4)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_same_output_for_any_worker_count(self, cfg, tmp_path, monkeypatch):
        runs = []
        for workers in (1, 2, 3):
            pin_workers(monkeypatch, workers)
            path = tmp_path / f"w{workers}.jsonl"
            summary, reports = scan(cfg, out_path=path)
            assert_no_children()
            runs.append((path.read_bytes(), summary, reports))
        assert len(runs[0][0]) > 0 and len(runs[0][2]) == cfg.count
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_failing_index_wins(self, workers, monkeypatch, tmp_path):
        # sample 1 fails last, in another process than sample 2 (for
        # workers > 1), and still names the error
        pin_workers(monkeypatch, workers)
        fail_samples(
            monkeypatch,
            {1: lambda: ResourceLimitError("late"), 2: lambda: ParseError("early", 1, 1)},
            delay={1: 0.3},
        )
        path = tmp_path / "out.jsonl"
        with pytest.raises(ResourceLimitError, match="^sample 1: late$"):
            scan(TestScan.CFG, out_path=path)
        assert_no_children()
        lines = path.read_bytes().splitlines()
        assert [json.loads(line)["index"] for line in lines] == [0]

    @pytest.mark.parametrize("death", ["exit", "kill"])
    def test_dead_worker_fails_its_sample(self, death, monkeypatch, tmp_path):
        # with 2 workers sample 3 runs in the child, which dies unreported
        pin_workers(monkeypatch, 2)
        caller = os.getpid()

        def die():
            if os.getpid() == caller:
                return AssertionError("sample 3 ran in the caller")
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)

        fail_samples(monkeypatch, {3: die})
        path = tmp_path / "out.jsonl"
        with pytest.raises(LindefError) as info:
            scan(TestScan.CFG, out_path=path)
        assert type(info.value) is LindefError
        assert str(info.value).startswith("sample 3: ")
        assert ("status 3" if death == "exit" else "status -9") in str(info.value)
        assert_no_children()
        full = tmp_path / "full.jsonl"
        monkeypatch.undo()
        scan(TestScan.CFG, out_path=full)
        assert path.read_bytes() == b"".join(
            full.read_bytes().splitlines(keepends=True)[:3])

    def test_orphaned_worker_exits(self, tmp_path):
        # the caller dies while its child checks sample 1; the child ends
        # after that sample instead of running sample 3
        pidfile = tmp_path / "child.pid"
        script = textwrap.dedent(f"""
            import os, signal, time
            from lindef import lab
            lab._workers = lambda count: min(count, 2)
            real = lab.full_check
            caller = os.getpid()

            def check(algebra, horizon):
                if os.getpid() != caller:
                    with open({str(pidfile)!r}, "a") as fh:
                        fh.write(f"{{os.getpid()}}\\n")
                    time.sleep(1.0)
                else:
                    while not os.path.exists({str(pidfile)!r}):
                        time.sleep(0.01)
                    os.kill(caller, signal.SIGKILL)
                return real(algebra, horizon)

            lab.full_check = check
            lab.scan(lab.ScanConfig(nvars=2, nilpotency=3, extra_gens=1,
                                    count=4, horizon=3, seed=7))
        """)
        src = str(Path(lindef.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        pid = int(pidfile.read_text().split()[0])
        deadline = time.monotonic() + 30
        while _running(pid):
            if time.monotonic() > deadline:
                pytest.fail(f"orphaned scan worker {pid} still running")
            time.sleep(0.05)
        assert pidfile.read_text().split() == [str(pid)]  # sample 3 never ran


def _running(pid):
    """False once pid has exited (a zombie nobody reaps counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")
