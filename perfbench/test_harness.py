"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracer import TARGETS, Tracer

HERE = Path(__file__).resolve().parent


def _lindef_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "lindef" or name.startswith("lindef.")}


@pytest.fixture
def installed():
    import lindef.cli  # noqa: F401  (every import site loaded)

    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_every_target_is_wrapped(installed):
    assert len(installed.wrapped) == sum(len(p) for _, p in TARGETS.values())


def test_every_import_site_resolves_to_the_wrapper(installed):
    sites = 0
    for name, (original, wrapper) in installed.wrapped.items():
        for modname, mod in _lindef_modules().items():
            for attr, value in vars(mod).items():
                assert value is not original, (
                    f"{modname}.{attr} still calls the unwrapped {name}")
                if value is wrapper:
                    sites += 1
    # names bound by import in another module are rebound there too
    import lindef.cli
    import lindef.lab
    import lindef.linear_part
    import lindef.resolution
    import lindef.tor_ladder
    for mod, attr, name in [
        (lindef.lab, "resolve", "resolution.resolve"),
        (lindef.linear_part, "resolve", "resolution.resolve"),
        (lindef.lab, "mstar_annihilation_check",
         "linear_part.mstar_annihilation_check"),
        (lindef.lab, "mstar_cycle_boundary_equality",
         "linear_part.mstar_cycle_boundary_equality"),
        (lindef.lab, "msquared_preimage_condition",
         "tor_ladder.msquared_preimage_condition"),
        (lindef.lab, "build_algebra", "presentation.build_algebra"),
        (lindef.cli, "full_check", "lab.full_check"),
        (lindef.cli, "scan", "lab.scan"),
        (lindef.cli, "algebra_from_text", "presentation.algebra_from_text"),
        (lindef.resolution, "kernel_structured", "linalg.kernel_structured"),
        (lindef.tor_ladder, "kernel", "linalg.kernel"),
    ]:
        assert getattr(mod, attr) is installed.wrapped[name][1]
    assert sites >= len(installed.wrapped)


def test_uninstall_restores_originals():
    import lindef.cli  # noqa: F401

    tracer = Tracer()
    tracer.install()
    wrapped = dict(tracer.wrapped)
    tracer.uninstall()
    for original, wrapper in wrapped.values():
        for mod in _lindef_modules().values():
            assert wrapper not in vars(mod).values()
    from lindef import lab, resolution
    assert lab.resolve is resolution.resolve
    assert not hasattr(lab.resolve, "__lindef_traced__")


@pytest.mark.parametrize("memory", [False, True])
def test_scan_jsonl_identical_with_tracing_on_and_off(tmp_path, memory):
    from lindef import lab

    cfg = lab.ScanConfig(nvars=2, nilpotency=3, horizon=3, count=3, seed=5)
    plain = tmp_path / "plain.jsonl"
    traced = tmp_path / "traced.jsonl"
    lab.scan(cfg, out_path=str(plain))
    tracer = Tracer(track_memory=memory)
    tracer.install()
    try:
        lab.scan(cfg, out_path=str(traced))
    finally:
        tracer.uninstall()
    assert plain.read_bytes() == traced.read_bytes()
    assert tracer.stats["lab.scan"].calls == 1
    assert tracer.stats["kernels.rref"].calls > 0


def test_layer_self_times_account_for_the_wall(tmp_path):
    import time

    from lindef import lab

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        lab.scan(lab.ScanConfig(nvars=2, nilpotency=3, horizon=3, count=2, seed=1))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(wall)
    attributed = sum(m[f"{layer}.self_s"] for layer in TARGETS)
    assert attributed == pytest.approx(wall - m["trace.unattributed_s"])
    assert 0 <= m["trace.unattributed_s"] < 0.05 * wall
    assert m["resolution.rref_calls"] <= m["kernels.rref_calls"]


def test_ci_forms_are_coprime_and_seeded():
    f, g = workloads.ci_forms(3)
    assert (f, g) == workloads.ci_forms(3)
    assert workloads._poly_gcd_degree(f, g) == 0
    # (x + 1)(x + 2) and (x + 1)(x + 3) share x + 1
    assert workloads._poly_gcd_degree([2, 3, 1], [3, 4, 1]) == 1


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for src in HERE.glob("*.py"):
        (bench / src.name).write_text(src.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "scan-many",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_reported_metric():
    import json

    import kernels
    from run import E2E_UNITS, layer_unit

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    names = set(tracer.layer_metrics(1.0)) | set(tracer.peak_metrics())
    for label, kind, *_ in kernels.bench_kernels.CASES + kernels.BIG:
        names.add(kernels.metric_name(label) + "_s")
        if kind == "rref":
            names.add(kernels.metric_name(label) + "_vs_blas")
    names |= {"kernels.blas_gflops", "kernels.rref_vs_blas",
              "trace.overhead_ratio", "trace.memory_overhead_ratio"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: layer_unit(n) for n in names}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
