"""One benchmark worker process: set up, report ready, run one job, exit.

Protocol (one JSON object per line): the worker imports lindef, warms up,
and prints {"ready": ..., "env": ...}.  It then reads one job from stdin
and prints one result.  Jobs:

  {"job": "unit", "workload": W, "seed": S, "tmpdir": D,
   "trace": null | "time" | "memory"}
  {"job": "kernels"}

End of input instead of a job makes it exit at once.

Started by run.py with PYTHONPATH pointing at src/ and the BLAS thread
count fixed in the environment.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys

import workloads


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    from lindef import _kernels

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "backend": _kernels.BACKEND,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def _warm_up():
    """Import every layer and run one tiny check: first-call costs land
    in set-up, not in the first timed unit."""
    import lindef.cli  # noqa: F401
    from lindef.lab import full_check
    from lindef.presentation import algebra_from_text

    full_check(algebra_from_text("vars x\nideal x^3"), 2)


def _run_unit(job) -> dict:
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer(track_memory=job["trace"] == "memory")
        tracer.install()
    try:
        wall, outcome = workloads.run_unit(job["workload"], job["seed"],
                                           job["tmpdir"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **outcome,
    }
    if tracer is not None and tracer.track_memory:
        out["layers"] = tracer.peak_metrics()
    elif tracer is not None:
        out["layers"] = tracer.layer_metrics(wall)
    return out


def main():
    # protocol lines go to the real stdout; anything lindef prints goes
    # to stderr, so it cannot be mistaken for a result
    channel, sys.stdout = sys.stdout, sys.stderr
    _warm_up()
    print(json.dumps({"ready": True, "env": environment()}), file=channel,
          flush=True)
    line = sys.stdin.readline()
    if not line:
        return
    job = json.loads(line)
    try:
        if job["job"] == "unit":
            result = _run_unit(job)
        elif job["job"] == "kernels":
            import kernels

            result = kernels.measure()
        else:
            raise ValueError(f"unknown job {job['job']!r}")
    except Exception as err:  # reported to run.py, which counts the failure
        import traceback

        traceback.print_exc()
        result = {"error": f"{type(err).__name__}: {err}"}
    print(json.dumps(result), file=channel, flush=True)


if __name__ == "__main__":
    main()
