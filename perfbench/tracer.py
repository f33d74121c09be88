"""Outside-in tracing of lindef's layers.

`Tracer.install()` replaces selected functions and methods of each layer
module with wrappers that record a span per call: wall time, self time
(span minus child spans), a few counts computed from arguments and
results and, with track_memory, the peak traced bytes above the span's
entry level (tracemalloc).
Nothing under src/ is edited.  A function imported by name into another
module (`lab` binds `resolve`, `tor_ladder`, `mstar_*`, ...) is rebound
there too: every lindef module attribute that is the original becomes
the wrapper, so no call site escapes.

`layer_metrics()` turns the spans of a timing pass into per-layer times
and counts; `peak_metrics()` turns those of a memory pass into peaks.
The two are separate runs because tracemalloc's allocation hooks slow
numpy-heavy code several-fold, which would distort the times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

MB = 1024 * 1024

# layer -> (module, [attribute paths]).  Class attributes are "Cls.name".
TARGETS = {
    "presentation": ("lindef.presentation", [
        "parse_presentation", "buchberger", "quotient_basis",
        "build_algebra", "algebra_from_text", "load_structure_constants",
    ]),
    "algebra": ("lindef.algebra", [
        "FiniteLocalAlgebra.__init__", "FiniteLocalAlgebra._validate_laws",
        "compute_filtration", "quotient_module", "GradedAlgebra.__init__",
        "GradedAlgebra.component_product", "RModule._validate",
    ]),
    "resolution": ("lindef.resolution", [
        "resolve", "minimal_generators", "AlgebraMatrix.expand",
        "MinimalResolution.syzygy",
    ]),
    "linear_part": ("lindef.linear_part", [
        "GradedComplex.__init__", "GradedComplex.homology",
        "GradedComplex.slice_matrix", "defect_profile",
        "mstar_annihilation_check", "mstar_cycle_boundary_equality",
    ]),
    "tor_ladder": ("lindef.tor_ladder", [
        "UpsilonLadder.__init__", "_TorComplex.__init__", "upsilon",
        "upsilon_defect_profile", "upsilon_one_implies_two",
        "msquared_preimage_condition",
    ]),
    "lab": ("lindef.lab", ["random_algebra", "full_check", "scan"]),
    "linalg": ("lindef.linalg", [
        "Subspace.from_rows", "Subspace.sum", "Subspace.intersect",
        "Subspace.adapted_reps", "Subspace.coords", "Subspace.contains_rows",
        "QuotientCoords.__init__", "QuotientCoords.coords",
        "kernel_structured", "kernel", "row_space", "image",
        "induced_map_on_quotients",
    ]),
    "kernels": ("lindef._kernels", [
        "rref", "matmul_mod", "_panel_jordan", "_inv_small",
    ]),
}

LAYERS = tuple(TARGETS)


def span_name(layer: str, path: str) -> str:
    return f"{layer}.{path.replace('.__init__', '')}"


def _rref_counts(args, result):
    m, n = args[0].shape
    return {"flops": 2 * m * n * len(result[1])}


def _matmul_counts(args, result):
    (m, k), (_, n) = args[0].shape, args[1].shape
    p = args[2]
    if k * (p - 1) ** 2 < (1 << 53):
        # int64 operands read, float64 copies written, float64 product,
        # its int64 cast and the reduced int64 result
        return {"bytes": 8 * (2 * (m * k + k * n) + 3 * m * n)}
    return {"bytes": 8 * (m * k + k * n + 2 * m * n)}


def _expand_counts(args, result):
    return {"entries": result.shape[0] * result.shape[1]}


COUNTERS = {
    "kernels.rref": _rref_counts,
    "kernels.matmul_mod": _matmul_counts,
    "resolution.AlgebraMatrix.expand": _expand_counts,
}


class _Stat:
    __slots__ = ("calls", "incl", "self_", "peak", "extra")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_ = 0.0
        self.peak = 0
        self.extra = {}


class Tracer:
    """Span recorder plus the monkey-patching that feeds it."""

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.stats: dict[str, _Stat] = {}
        # (ancestor layer, span name) -> [calls, inclusive seconds]
        self.within: dict[tuple, list] = {}
        self.wrapped = {}  # span name -> (original, wrapper)
        self._patches = []  # (owner, attribute, previous value)
        # frame: [start, child seconds, entry bytes, max bytes seen, layers]
        self._stack = [[0.0, 0.0, 0, 0, frozenset()]]

    # -- spans ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        stack = self._stack
        stats = self.stats
        within = self.within
        counter = COUNTERS.get(name)
        track = self.track_memory
        clock = time.perf_counter
        get_mem = tracemalloc.get_traced_memory
        reset_peak = tracemalloc.reset_peak
        stat = stats.setdefault(name, _Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            cur = 0
            if track:
                cur, peak = get_mem()
                if peak > parent[3]:
                    parent[3] = peak
                reset_peak()
            frame = [clock(), 0.0, cur, cur, parent[4] | {layer}]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                parent[1] += dur
                stat.calls += 1
                stat.incl += dur
                stat.self_ += dur - frame[1]
                if track:
                    top = max(get_mem()[1], frame[3])
                    if top - frame[2] > stat.peak:
                        stat.peak = top - frame[2]
                    if top > parent[3]:
                        parent[3] = top
                for anc in parent[4]:
                    cell = within.get((anc, name))
                    if cell is None:
                        cell = within[(anc, name)] = [0, 0.0]
                    cell[0] += 1
                    cell[1] += dur
            if counter is not None:
                for key, value in counter(args, result).items():
                    if key == "entries":
                        stat.extra[key] = max(stat.extra.get(key, 0), value)
                    else:
                        stat.extra[key] = stat.extra.get(key, 0) + value
            return result

        wrapper.__lindef_traced__ = fn
        return wrapper

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target and rebind it at every lindef import site."""
        originals = {}
        for layer, (modname, paths) in TARGETS.items():
            mod = importlib.import_module(modname)
            for path in paths:
                name = span_name(layer, path)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    is_cm = isinstance(raw, classmethod)
                    fn = raw.__func__ if is_cm else raw
                    wrapper = self._wrap(fn, name, layer)
                    self._set(cls, attr, classmethod(wrapper) if is_cm else wrapper)
                    self.wrapped[name] = (fn, wrapper)
                else:
                    fn = getattr(mod, path)
                    wrapper = self._wrap(fn, name, layer)
                    originals[id(fn)] = (fn, wrapper)
                    self.wrapped[name] = (fn, wrapper)
        # rebind module-level functions wherever they were imported
        for modname, mod in list(sys.modules.items()):
            if modname != "lindef" and not modname.startswith("lindef."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        if self.track_memory:
            tracemalloc.start()

    def uninstall(self):
        if self.track_memory and tracemalloc.is_tracing():
            tracemalloc.stop()
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def _stat(self, name) -> _Stat:
        return self.stats.get(name) or _Stat()

    def _within(self, layer, name, idx):
        return self.within.get((layer, name), [0, 0.0])[idx]

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer times and counts from the spans of one traced unit.

        Values are plain numbers; the caller attaches units.  `wall_s` is
        the traced entry-call time, against which the layers' self times
        are reconciled (trace.unattributed_s is the part no span covers).
        """
        out = {}
        total_self = 0.0
        for layer in LAYERS:
            names = [n for n in self.stats if n.startswith(layer + ".")]
            self_s = sum(self.stats[n].self_ for n in names)
            total_self += self_s
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.calls"] = sum(self.stats[n].calls for n in names)
        s = self._stat
        out["presentation.groebner_s"] = s("presentation.buchberger").incl
        out["presentation.table_s"] = s("presentation.build_algebra").self_
        out["algebra.validate_s"] = s("algebra.FiniteLocalAlgebra._validate_laws").incl
        out["algebra.filtration_s"] = s("algebra.compute_filtration").incl
        out["resolution.resolve_s"] = s("resolution.resolve").incl
        out["resolution.mingens_s"] = s("resolution.minimal_generators").incl
        out["resolution.kernel_s"] = self._within(
            "resolution", "linalg.kernel_structured", 1)
        out["resolution.rref_calls"] = self._within(
            "resolution", "kernels.rref", 0)
        out["resolution.max_expand_entries"] = s(
            "resolution.AlgebraMatrix.expand").extra.get("entries", 0)
        out["linear_part.homology_s"] = s("linear_part.GradedComplex.homology").incl
        out["linear_part.checks_s"] = (
            s("linear_part.mstar_annihilation_check").incl
            + s("linear_part.mstar_cycle_boundary_equality").incl)
        out["tor_ladder.ladder_s"] = s("tor_ladder.UpsilonLadder").incl
        out["tor_ladder.preimage_s"] = s(
            "tor_ladder.msquared_preimage_condition").incl
        out["tor_ladder.complexes"] = s("tor_ladder._TorComplex").calls
        out["lab.sample_s"] = s("lab.random_algebra").incl
        out["lab.full_check_s"] = s("lab.full_check").self_
        out["lab.write_s"] = s("lab.scan").self_
        out["linalg.subspace_s"] = sum(
            s(name).self_ for name in (
                "linalg.Subspace.from_rows", "linalg.Subspace.sum",
                "linalg.Subspace.intersect", "linalg.kernel_structured"))
        rref = s("kernels.rref")
        out["kernels.rref_s"] = rref.incl
        out["kernels.rref_self_s"] = rref.self_
        out["kernels.rref_calls"] = rref.calls
        out["kernels.rref_flops"] = rref.extra.get("flops", 0)
        out["kernels.panel_s"] = s("kernels._panel_jordan").incl
        out["kernels.panel_calls"] = s("kernels._panel_jordan").calls
        mm = s("kernels.matmul_mod")
        out["kernels.matmul_s"] = mm.incl
        out["kernels.matmul_calls"] = mm.calls
        out["kernels.matmul_bytes"] = mm.extra.get("bytes", 0)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - total_self
        out["trace.spans"] = sum(st.calls for st in self.stats.values())
        return out

    def peak_metrics(self) -> dict:
        """Peak traced MB above entry level, per layer and for named spans.

        Only meaningful with track_memory=True, whose allocation hooks slow
        the run several-fold; times from such a run are not reported.
        """
        out = {}
        for layer in LAYERS:
            names = [n for n in self.stats if n.startswith(layer + ".")]
            out[f"{layer}.peak_mb"] = max(
                (self.stats[n].peak for n in names), default=0) / MB
        out["algebra.validate_peak_mb"] = self._stat(
            "algebra.FiniteLocalAlgebra._validate_laws").peak / MB
        return out
