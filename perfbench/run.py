"""End-to-end and per-layer benchmark for lindef.

    python3 perfbench/run.py --workload scan-wide --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) in fresh worker processes, one unit
at a time (closed loop, no concurrency), checks every output, and prints
the metrics by name and unit.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0  end-to-end metrics: setup_s, wall_s, peak_rss_mb, success_rate
           (medians over the units of the run).
--trace 1  per-layer metrics of one traced unit (tracer.py), the kernel
           micro-benchmark (kernels.py) and trace.overhead_ratio against
           an untraced unit of the same input.

--save FILE writes the full record (environment, every unit, metrics) for
compare.py.  Must run from a checkout holding src/lindef.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BLAS_THREADS = 1  # steadier than 2 on a 2-core box; see README
SETUP_SAMPLES = 3  # set-up-only workers before each unit and after the last
# Workers still running at the run's deadline are killed and their units
# fail.  An untraced run starts units until --seconds, so its deadline is
# --seconds plus the longest unit allowed; a traced run does a fixed amount
# of work (three units and the kernel micro-benchmark, 70-115 s measured on
# a 2-core VM), whatever --seconds says.
UNIT_ALLOWANCE = 140.0
TRACED_LIMIT = 170.0
REFERENCE = HERE / "reference.json"

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "success_rate": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_gflops"):
        return "GFLOP/s"
    if name.endswith(("_ratio", "_vs_blas")):
        return "ratio"
    if name.endswith("_entries"):
        return "entries"
    return "count"


class Worker:
    """A worker.py process; set-up time is spawn to its ready line.

    The process is killed at `deadline` (a perf_counter value), so a hung
    or runaway unit fails instead of overrunning the run.
    """

    def __init__(self, env, deadline):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(ROOT), env=env,
        )
        self.timer = threading.Timer(max(0.0, deadline - self.t0), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.t0
        self.env = json.loads(line)["env"] if line else None

    def run(self, job: dict) -> dict:
        """Send one job, return its result and wait for the process."""
        line = ""
        try:
            if self.env is not None:
                self.proc.stdin.write(json.dumps(job) + "\n")
                self.proc.stdin.close()
                line = self.proc.stdout.readline()
        finally:
            self.close()
        if not line:
            return {"error": f"worker exited with code {self.proc.returncode}"}
        result = json.loads(line)
        if self.proc.returncode != 0 and "error" not in result:
            result["error"] = f"worker exited with code {self.proc.returncode}"
        return result

    def close(self):
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        self.proc.wait()
        self.timer.cancel()
        self.proc.stdout.close()


def worker_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def check_units(units, workload, seed):
    """Mark each unit ok or not; returns the reference digest used."""
    ref = load_reference().get(workload, {}).get(str(seed))
    first = next((u["digest"] for u in units if "digest" in u), None)
    expected = ref or first
    for u in units:
        problems = list(u.get("problems", []))
        if "error" in u:
            problems.append(u["error"])
        elif u.get("digest") != expected:
            what = "reference digest" if ref else "first unit of this run"
            problems.append(f"output differs from the {what}")
        u["problems"] = problems
        u["ok"] = not problems
    return ref


def run_unit(args, env, tmp, n, traced=None):
    """Run unit number n in a fresh worker; returns its record."""
    unit_dir = tmp / f"unit{n}"
    unit_dir.mkdir()
    w = Worker(env, args.deadline)
    t0 = time.perf_counter()
    rec = w.run({"job": "unit", "workload": args.workload,
                 "seed": args.seed, "tmpdir": str(unit_dir),
                 "trace": traced})
    rec.update(setup_s=w.setup_s, env=w.env, traced=traced,
               duration_s=w.setup_s + time.perf_counter() - t0)
    shutil.rmtree(unit_dir)
    return rec


def sample_setups(env, deadline, count):
    """Set-up times of `count` workers that exit without a job."""
    setups = []
    for _ in range(count):
        w = Worker(env, deadline)
        setups.append(w.setup_s)
        w.close()  # end of input: the worker exits without a job
    return setups


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure_e2e(args, env, tmp):
    """Units while the next one would end less than half a unit after
    --seconds, so that the unit count does not flip with small speed
    changes.  Set-up-only workers run before each unit and after the
    last, so the set-up median spans the whole run."""
    start = time.perf_counter()
    setups, units = [], []
    while True:
        setups += sample_setups(env, args.deadline, SETUP_SAMPLES)
        if units:
            est = statistics.median(u["duration_s"] for u in units)
            if time.perf_counter() - start + est / 2 > args.seconds:
                break
        units.append(run_unit(args, env, tmp, len(units)))
        setups.append(units[-1]["setup_s"])
    measured = [u for u in units if "wall_s" in u]
    metrics = {
        "setup_s": _median(setups),
        "wall_s": _median(u["wall_s"] for u in measured),
        "peak_rss_mb": _median(u["peak_rss_mb"] for u in measured),
    }
    return units, metrics, {"setup_samples": setups}


def measure_traced(args, env, tmp):
    """Untraced, time-traced and memory-traced units of one input, then
    the kernel micro-benchmark."""
    units = [run_unit(args, env, tmp, n, traced)
             for n, traced in enumerate([None, "time", "memory"])]
    kernel = Worker(env, args.deadline).run({"job": "kernels"})
    plain, traced, mem = units
    metrics = {**traced.get("layers", {}), **mem.get("layers", {})}
    for key, value in kernel.items():
        if key.startswith("kernels."):
            metrics[key] = value
    if "wall_s" in plain and "wall_s" in traced:
        metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    if "wall_s" in plain and "wall_s" in mem:
        metrics["trace.memory_overhead_ratio"] = mem["wall_s"] / plain["wall_s"]
    gflops = metrics.get("kernels.blas_gflops")
    if gflops and metrics.get("kernels.rref_flops"):
        floor = metrics["kernels.rref_flops"] / (gflops * 1e9)
        metrics["kernels.rref_vs_blas"] = metrics["kernels.rref_s"] / floor
    if "error" in kernel:
        units.append({"error": "kernel micro-benchmark: " + kernel["error"]})
    return units, metrics, {"kernels": kernel}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the full record as JSON here")
    args = ap.parse_args(argv)
    args.deadline = time.perf_counter() + (
        TRACED_LIMIT if args.trace else args.seconds + UNIT_ALLOWANCE)

    if not (ROOT / "src" / "lindef" / "__init__.py").is_file():
        print(f"error: no lindef sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    env = worker_env()
    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        measure = measure_traced if args.trace else measure_e2e
        units, metrics, extra = measure(args, env, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    ref = check_units(units, args.workload, args.seed)
    failed = sum(not u["ok"] for u in units)
    attempted = len(units)
    if not args.trace:
        metrics["success_rate"] = 1 - failed / attempted
    envs = [u["env"] for u in units if u.get("env")]
    env_rec = envs[0] if envs else {}
    env_rec["seed"] = args.seed
    env_rec["workload"] = args.workload

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {attempted}  backend {env_rec.get('backend')}  "
          f"blas {env_rec.get('blas', {}).get('name')} "
          f"{env_rec.get('blas', {}).get('version')} "
          f"threads {env_rec.get('blas_threads')}  nproc {env_rec.get('nproc')}  "
          f"numpy {env_rec.get('numpy')}  python {env_rec.get('python')}")
    for u in units:
        if not u["ok"]:
            print(f"FAILED unit: {'; '.join(u['problems'])}")
    if ref is None:
        print(f"no reference digest stored for seed {args.seed}; "
              "checked repeat-run identity only")
    unit_of = E2E_UNITS if not args.trace else {}
    out_metrics = {}
    for name in sorted(metrics):
        unit = unit_of.get(name) or layer_unit(name)
        out_metrics[name] = {"value": metrics[name], "unit": unit}
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        print(f"  {'error_rate':<36} {failed / attempted:>16.6g} ratio "
              f"({failed} of {attempted} units failed)")

    if args.save:
        record = {"env": env_rec, "trace": args.trace, "metrics": out_metrics,
                  "attempted": attempted, "failed": failed,
                  "units": [{k: v for k, v in u.items() if k != "env"}
                            for u in units], **extra}
        Path(args.save).write_text(json.dumps(record, indent=1) + "\n",
                                   encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
