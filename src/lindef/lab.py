"""Randomized scanning of small Artinian algebras.

A scan draws algebras k[x..]/I with m^c = 0 forced by adjoining all
degree-c monomials to the ideal, runs every check the library knows
against each sample, and streams one JSON record per sample. Records
are environment-free (no timestamps), so identical configurations
produce byte-identical files.

The two linearity-defect oracles are compared on their horizon
classification (the largest index with visible defect). Per-index
supports are recorded for diffing but deliberately not flagged: the
oracles provably differ index by index. At i = 1 the map v^n_1
vanishes identically for M = k (a stage-1 cycle x has d1(x) in
m^{n+1} = d1(m^n F_1), so x falls into the denominator of the target
Tor) while lin-homology h_1 is nonzero whenever the algebra is not
Koszul; and rings with eventually periodic resolutions (hypersurfaces,
complete intersections) have alternating v-rows against lin-homology
supported everywhere. Both oracles still bound the defect from below
by the same number, which is what the classification compares.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass, field as dataclass_field

from .errors import LindefError
from .fields import Field
from .linear_part import (
    CLASSIFICATION_CLEAN,
    GradedComplex,
    defect_profile,
    mstar_annihilation_check,
    mstar_cycle_boundary_equality,
)
from .poly import Polynomial, degrevlex_key
from .presentation import Presentation, build_algebra
from .resolution import resolve
from .rng import ALGORITHM, stream_for_sample
from .tor_ladder import (
    msquared_preimage_condition,
    tor_ladder,
    upsilon_defect_profile,
    upsilon_one_implies_two,
)

__all__ = [
    "ScanConfig",
    "AlgebraReport",
    "random_algebra",
    "full_check",
    "scan",
    "FLAG_NAMES",
]

_VARNAMES = ("x", "y", "z", "w")

FLAG_NAMES = (
    "oracle_mismatch",
    "annihilation_violation",
    "cycle_equality_violation",
    "vanishing_step_violation",
    "preimage_mismatch",
    "silence_tail",
)

# silence_tail is informational: a candidate for a deeper horizon, not
# a violation of anything proved.
VIOLATION_FLAGS = tuple(f for f in FLAG_NAMES if f != "silence_tail")

@dataclass(frozen=True)
class ScanConfig:
    """Parameters of one scan; same config and seed => same samples."""

    nvars: int = 2
    char: int = 101
    nilpotency: int = 4
    extra_gens: int = 2
    degree_range: tuple = None
    horizon: int = 6
    count: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.nvars <= 4:
            raise LindefError(f"variable count must be 1..4, got {self.nvars}")
        if self.char <= 0:
            raise LindefError("scanning needs a finite field (char > 0)")
        Field(self.char)
        if self.nilpotency not in (3, 4, 5):
            raise LindefError(
                f"nilpotency target must be 3, 4 or 5, got {self.nilpotency}"
            )
        if self.degree_range is None:
            hi = min(3, self.nilpotency - 1)
            object.__setattr__(self, "degree_range", (2, hi))
        lo, hi = self.degree_range
        if not 2 <= lo <= hi <= self.nilpotency - 1:
            raise LindefError(
                f"extra-generator degrees must lie in [2, {self.nilpotency - 1}], "
                f"got {self.degree_range}"
            )
        if self.extra_gens < 0:
            raise LindefError("extra-generator count must be >= 0")
        if self.horizon < 2:
            raise LindefError(f"scan horizon must be >= 2, got {self.horizon}")
        if self.count < 0:
            raise LindefError("sample count must be >= 0")

    @property
    def exploratory(self) -> bool:
        return self.nilpotency == 5

    def describe(self) -> dict:
        return {
            "nvars": self.nvars,
            "char": self.char,
            "nilpotency": self.nilpotency,
            "extra_gens": self.extra_gens,
            "degree_range": list(self.degree_range),
            "horizon": self.horizon,
            "count": self.count,
            "seed": self.seed,
        }


def _monomials_of_degree(nvars: int, deg: int):
    """All exponent tuples of total degree deg, descending degrevlex."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), deg, nvars)
    out.sort(key=degrevlex_key, reverse=True)
    return out


def random_algebra(cfg: ScanConfig, index: int):
    """Sample `index` of the scan.

    The ideal is all degree-c monomials plus cfg.extra_gens random
    forms with degree drawn from cfg.degree_range. Zero forms are
    dropped (harmless; the draw is still consumed, keeping the stream
    aligned). ScanConfig keeps every generator in degree >= 2, so the
    ideal lies in m^2 and the embedding dimension is always nvars.
    """
    rs = stream_for_sample(cfg.seed, index)
    field = Field(cfg.char)
    gens = [
        Polynomial.from_monomial(field, cfg.nvars, m, 1)
        for m in _monomials_of_degree(cfg.nvars, cfg.nilpotency)
    ]
    lo, hi = cfg.degree_range
    for _ in range(cfg.extra_gens):
        deg = lo + rs.below(hi - lo + 1)
        coeffs = {
            m: rs.below(cfg.char) for m in _monomials_of_degree(cfg.nvars, deg)
        }
        form = Polynomial(field, cfg.nvars, coeffs)
        if not form.is_zero:
            gens.append(form)
    return build_algebra(Presentation(field, list(_VARNAMES[: cfg.nvars]), gens))


@dataclass
class AlgebraReport:
    """Everything full_check measured for one algebra."""

    presentation: dict | None
    char: int
    dim: int
    nilpotency_index: int
    filtration_dims: list
    betti: list
    lin: dict
    upsilon: dict
    checks: dict
    flags: dict
    certificate: dict | None = None
    index: int | None = None

    @property
    def has_violation(self) -> bool:
        return any(self.flags[f] for f in VIOLATION_FLAGS)

    def to_json_dict(self, seed=None) -> dict:
        out = {"schema": 1}
        if seed is not None:
            out["seed"] = seed
        if self.index is not None:
            out["index"] = self.index
        out.update(
            {
                "presentation": self.presentation,
                "char": self.char,
                "dim": self.dim,
                "nilpotency_index": self.nilpotency_index,
                "filtration_dims": self.filtration_dims,
                "betti": self.betti,
                "lin": self.lin,
                "upsilon": self.upsilon,
                "checks": self.checks,
                "flags": self.flags,
                "certificate": self.certificate,
                # scan samples are never redrawn; the field keeps the schema
                "resamples": 0,
            }
        )
        return out


def full_check(algebra, horizon: int) -> AlgebraReport:
    """Run every check against one algebra's residue field.

    Violation flags are recorded, never raised, so a scan always
    finishes; only invariants that hold unconditionally (complexes
    compose to zero, Tor_i(k,k) = b_i, upsilon h_1 = 0 for k) stay
    assertions.
    """
    if horizon < 2:
        raise LindefError(f"full_check horizon must be >= 2, got {horizon}")
    module = algebra.residue_field()
    res = resolve(module, horizon + 1, max_expand_entries=80_000_000)
    complex_ = GradedComplex(res)
    lin = defect_profile(complex_, horizon)
    ladder = tor_ladder(res, horizon)
    ups = upsilon_defect_profile(ladder)

    for i in range(horizon + 1):
        if ladder.tor_dim(1, i) != res.betti[i]:
            raise AssertionError(
                f"Tor_{i}(k, k) = {ladder.tor_dim(1, i)} but b_{i} = {res.betti[i]}"
            )
    if ups["h"][0] != 0:
        raise AssertionError("v^n_1(k) must vanish for every n")

    oracle = {
        "classification_match": lin["classification"] == ups["classification"],
        "support_match": lin["nonzero_indices"] == ups["nonzero_indices"],
        "support_match_from_2": [i for i in lin["nonzero_indices"] if i >= 2]
        == [i for i in ups["nonzero_indices"] if i >= 2],
    }
    oracle_mismatch = not oracle["classification_match"]

    annihilation = {}
    cycle_equality = {}
    certificate = None
    for n in range(0, horizon):
        ok, cert = mstar_annihilation_check(complex_, n)
        annihilation[n] = ok
        if not ok and certificate is None:
            certificate = cert
        if n >= 1:
            cycle_equality[n] = mstar_cycle_boundary_equality(complex_, n)
    annihilation_violation = not all(annihilation.values())

    # the premise "ld <= d" is horizon-evidenced only on clean samples,
    # so only those can raise the flag; values are recorded for all
    clean = lin["classification"] == CLASSIFICATION_CLEAN
    cycle_equality_violation = clean and not all(cycle_equality.values())

    if algebra.nilpotency_index <= 4:
        vanishing = upsilon_one_implies_two(ladder)
        vanishing_step_violation = any(r["holds"] is False for r in vanishing)
    else:
        vanishing = None
        vanishing_step_violation = False

    preimage = {}
    preimage_mismatch = False
    for i in range(0, horizon + 1):
        cond = msquared_preimage_condition(res, i)
        preimage[i] = cond
        if cond != (ladder.rank(1, i) == 0):
            preimage_mismatch = True

    flags = {
        "oracle_mismatch": bool(oracle_mismatch),
        "annihilation_violation": annihilation_violation,
        "cycle_equality_violation": cycle_equality_violation,
        "vanishing_step_violation": vanishing_step_violation,
        "preimage_mismatch": preimage_mismatch,
        "silence_tail": lin["silence_tail"],
    }
    return AlgebraReport(
        presentation=algebra.presentation,
        char=algebra.field.p,
        dim=algebra.dim,
        nilpotency_index=algebra.nilpotency_index,
        filtration_dims=[s.dim for s in algebra.filtration],
        betti=list(res.betti[: horizon + 1]),
        lin={
            "h": lin["h"],
            "by_degree": lin["by_degree"],
            "nonzero_indices": lin["nonzero_indices"],
            "dmax": lin["dmax"],
            "classification": lin["classification"],
            "silence_tail": lin["silence_tail"],
        },
        upsilon={
            "table": ups["table"],
            "h": ups["h"],
            "nonzero_indices": ups["nonzero_indices"],
            "dmax": ups["dmax"],
            "classification": ups["classification"],
        },
        checks={
            "oracle": oracle,
            "annihilation": annihilation,
            "cycle_equality": cycle_equality,
            "vanishing_step": vanishing,
            "preimage_condition": preimage,
        },
        flags=flags,
        certificate=certificate,
    )


def scan(cfg: ScanConfig, out_path=None):
    """Run the whole scan; returns (summary, reports).

    When out_path is given, one compact JSON record per sample is
    written there (JSONL), each as soon as it and every sample before
    it are checked. Records carry no timing or environment data:
    re-running the same config yields identical bytes, in one process
    or many. On a failing sample the error names it ("sample i: ..."),
    and only the records before it are written.

    Samples run in one process per usable CPU (`os.sched_getaffinity`):
    this one and forked children, each taking every w-th index.
    `taskset -c 0 lindef scan ...` gives a serial run. Each process
    keeps its own BLAS thread pool; set OPENBLAS_NUM_THREADS=1 so that
    w processes do not run w times as many BLAS threads as CPUs.
    """
    reports = []
    fh = None if out_path is None else open(out_path, "w", encoding="utf-8")

    def emit(report):
        reports.append(report)
        if fh is not None:
            fh.write(
                json.dumps(
                    report.to_json_dict(seed=cfg.seed),
                    separators=(",", ":"),
                    sort_keys=True,
                )
            )
            fh.write("\n")
            fh.flush()

    try:
        _interleaved(cfg, _workers(cfg.count), emit)
    finally:
        if fh is not None:
            fh.close()

    classifications = {}
    flag_counts = {name: 0 for name in FLAG_NAMES}
    for r in reports:
        cls = r.lin["classification"]
        classifications[cls] = classifications.get(cls, 0) + 1
        for name in FLAG_NAMES:
            if r.flags[name]:
                flag_counts[name] += 1
    violations = sum(flag_counts[name] for name in VIOLATION_FLAGS)
    summary = {
        "schema": 1,
        "rng": ALGORITHM,
        "config": cfg.describe(),
        "exploratory": cfg.exploratory,
        "count": len(reports),
        "classifications": dict(sorted(classifications.items())),
        "flags": flag_counts,
        "violations": violations,
        "resamples": 0,
    }
    return summary, reports


def _workers(count: int) -> int:
    """Processes a scan of `count` samples runs in: one per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (and no fork) on this OS
        return 1
    return max(1, min(count, cpus))


def _check_sample(cfg: ScanConfig, index: int) -> AlgebraReport:
    try:
        report = full_check(random_algebra(cfg, index), cfg.horizon)
    except LindefError as err:
        # same type and traceback, with the failing sample named
        err.args = (f"sample {index}: {err}",)
        raise
    report.index = index
    return report


@dataclass
class _Child:
    pid: int
    next_index: int  # the sample it is on; count once it stops reporting
    buffer: bytearray = dataclass_field(default_factory=bytearray)


def _interleaved(cfg: ScanConfig, workers: int, emit) -> None:
    """Check every sample, calling emit on each report in index order.

    This process takes the indices = 0 (mod workers), and one forked
    child takes each other residue class (none with workers = 1). A
    child pickles each (index, report, error) down its pipe as soon as
    it is done and stops at its first error. The error of the lowest
    failing index is raised once every index below it is emitted; a
    child that dies without reporting fails the sample it was on. Every
    child is killed and reaped before this returns or raises.
    """
    import select
    import signal

    count = cfg.count
    parent = os.getpid()
    children = {}  # read end of its pipe -> _Child
    pipes = select.poll()
    results = {}  # index -> (report, error), not yet emitted
    failed = count  # lowest failing index known
    try:
        for start in range(1, workers):
            read_end, write_end = os.pipe()
            children[read_end] = child = _Child(0, start)
            pipes.register(read_end, select.POLLIN)
            # a Ctrl-C between fork and the child's try must not send the
            # child back into the caller's code: hold SIGINT until then
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
            try:
                child.pid = os.fork()
                if child.pid == 0:
                    _child(cfg, start, workers, write_end, list(children),
                           mask, parent)
            finally:
                os.close(write_end)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        own, emitted = 0, 0
        while True:
            while emitted in results:
                report, err = results.pop(emitted)
                if err is not None:
                    raise err
                emit(report)
                emitted += 1
            if emitted == count:
                return
            # every index below `failed` not yet in results is either ours
            # or on an open pipe, so a blocking wait always ends
            for fd, _ in pipes.poll(0 if own < failed else None):
                child = children[fd]
                data = os.read(fd, 1 << 16)
                child.buffer += data
                while len(child.buffer) >= 8:
                    size = int.from_bytes(child.buffer[:8], "little")
                    if len(child.buffer) < 8 + size:
                        break
                    index, report, err = pickle.loads(child.buffer[8 : 8 + size])
                    del child.buffer[: 8 + size]
                    results[index] = report, err
                    child.next_index = count if err is not None else index + workers
                    if err is not None:
                        failed = min(failed, index)
                if data:
                    continue
                pipes.unregister(fd)
                status = os.waitpid(child.pid, 0)[1]
                child.pid = 0
                if child.next_index < count:
                    index = child.next_index
                    results[index] = None, LindefError(
                        f"sample {index}: its worker process exited without "
                        f"a report (status {os.waitstatus_to_exitcode(status)})"
                    )
                    failed = min(failed, index)
            if own < failed:
                try:
                    results[own] = _check_sample(cfg, own), None
                except Exception as err:
                    results[own] = None, err
                    failed = own
                own += workers
    finally:
        for fd, child in children.items():
            os.close(fd)
            if child.pid:
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)


def _child(cfg, start, step, write_end, inherited, mask, parent):
    """Body of a forked scan worker; leaves only through os._exit, so no
    buffer or exit handler inherited from the parent runs twice."""
    import signal

    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for index in range(start, cfg.count, step):
            if os.getppid() != parent:  # orphaned: nobody reads the results
                break
            try:
                message = index, _check_sample(cfg, index), None
            except Exception as err:
                message = index, None, err
            try:
                data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            except Exception as err:  # an exception type pickle cannot take
                data = pickle.dumps((index, None, LindefError(
                    f"sample {index}: {message[2]!r} (not picklable: {err})"
                )))
            data = memoryview(len(data).to_bytes(8, "little") + data)
            while data:
                data = data[os.write(write_end, data):]
            if message[2] is not None:
                break
        else:
            code = 0
    finally:
        os._exit(code)


def exit_code_for_summary(summary: dict) -> int:
    return 2 if summary["violations"] else 0
