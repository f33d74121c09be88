"""Graded strands: the resolution by internal degree against one block.

`reference_resolution` runs every stage as one block. Resolving strand
by strand must give the same Betti numbers and the same entry arrays,
byte for byte, on graded rings of every kind of field, and a ring whose
table is not graded must take the one-block path. Likewise the linear
part's homology, taken one linear strand at a time, must give the cells
that `one_block_homology` gets from whole slices, and the same
`full_check` record.
"""

import numpy as np
import pytest

from lindef import resolution
from lindef.lab import ScanConfig, full_check, random_algebra
from lindef.linear_part import GradedComplex, linear_part
from lindef.presentation import algebra_from_text
from lindef.resolution import MinimalResolution, resolve

from references import dense_change, one_block_homology, reference_resolution

# the ci-dim100 benchmark ring of seed 1: two dense degree-10 forms
CI_DIM100 = (
    "char 101\nvars x y\nideal "
    "25*y^10 + 58*x*y^9 + 48*x^2*y^8 + 59*x^3*y^7 + 53*x^4*y^6 + 44*x^5*y^5"
    " + 89*x^6*y^4 + 13*x^7*y^3 + 60*x^8*y^2 + 15*x^9*y + 50*x^10, "
    "30*y^10 + 13*x*y^9 + 78*x^2*y^8 + 40*x^3*y^7 + 4*x^4*y^6 + 32*x^5*y^5"
    " + 50*x^6*y^4 + 97*x^7*y^3 + 20*x^8*y^2 + 25*x^9*y + 27*x^10\n"
)

# name -> (ring builder, horizon, graded table)
CASES = {
    "scan-wide seed 1": (lambda: random_algebra(
        ScanConfig(nvars=3, nilpotency=3, horizon=5, count=1, seed=1), 0), 5, True),
    "scan-many heavy seed 1": (lambda: random_algebra(
        ScanConfig(nvars=2, nilpotency=4, horizon=6, count=8,
                   degree_range=(3, 3), seed=1), 0), 7, True),
    "ci-dim100 seed 1": (lambda: algebra_from_text(CI_DIM100), 6, True),
    "QQ": (lambda: algebra_from_text(
        "char 0\nvars x y\nideal x^2, x*y, y^3"), 4, True),
    "GF(2)": (lambda: algebra_from_text(
        "char 2\nvars x y z\nideal x^2, y^3, x*y*z, z^2, y*z"), 6, True),
    "GF(2^31-1)": (lambda: algebra_from_text(
        "char 2147483647\nvars x y\nideal x^3, x*y^2, y^4"), 6, True),
    "rebased": (lambda: algebra_from_text(
        "char 101\nvars x y\nideal x^2 - y^5, x*y, y^6"), 6, False),
}


def assert_same_resolution(res, module, horizon):
    betti, entries = reference_resolution(module, horizon)
    assert res.betti == betti
    for i, want in enumerate(entries, start=1):
        got = res.diff[i].entries
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        if module.field.p:
            assert got.tobytes() == want.tobytes()
        else:
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("name", CASES)
def test_strands_match_one_block(name):
    build, horizon, graded = CASES[name]
    algebra = build()
    assert (resolution._basis_degrees(algebra) is not None) is graded
    k = algebra.residue_field()
    assert_same_resolution(resolve(k, horizon), k, horizon)


def test_non_homogeneous_generators_fall_back_to_one_block(monkeypatch):
    # over k[x,y]/(x^2,y^3) d_2 has rows (x, -y), (y^2, 0), (0, x) of
    # degrees 2, 3, 2; adding the second row to the first keeps a minimal
    # generating
    # set, whose rows touch two strands: stage 2 and every later one run
    # as one block, with the same Betti numbers
    algebra = algebra_from_text("vars x y\nideal x^2, y^3")
    k = algebra.residue_field()
    want = resolve(k, 5)
    real = resolution.minimal_generators
    stages = []

    def recombining(space, blocks, ops):
        reps = real(space, blocks, ops)
        stages.append(len(stages))
        if len(stages) == 3:
            reps = reps.copy()
            reps[0] = algebra.field.add(reps[0], reps[1])
        return reps

    one_block = []
    real_one_block = MinimalResolution._one_block

    def spying(self, i, *args):
        one_block.append(i)
        return real_one_block(self, i, *args)

    monkeypatch.setattr(resolution, "minimal_generators", recombining)
    monkeypatch.setattr(MinimalResolution, "_one_block", spying)
    res = resolve(k, 5)
    assert res.betti == want.betti == [1, 2, 3, 4, 5, 6]
    assert one_block == [2, 3, 4, 5]
    assert not np.array_equal(res.diff[2].entries, want.diff[2].entries)


def test_syzygy_module_resolves_like_the_tail():
    # a syzygy module's coordinates are a kernel basis, not a graded one:
    # its resolution (split or not) is the tail of the resolution of k
    algebra = algebra_from_text("vars x y\nideal x^2, y^3")
    res = resolve(algebra.residue_field(), 6)
    module = res.syzygy(2)
    tail = resolve(module, 3)
    assert tail.betti == res.betti[3:7]
    assert_same_resolution(tail, module, 3)


# the Dress–Krämer fibre product k[x,y]/(x^2,y^3,xy^2) x_k k[z]/(z^3)
FIBRE = "vars x y z\nideal x^2, y^3, x*y^2, z^3, x*z, y*z"
SCAN_WIDE = ScanConfig(nvars=3, nilpotency=3, horizon=5, count=1, seed=1)

# name -> (ring builder, homology through stage, linear strands)
LINEAR_CASES = {
    "fibre product GF(2)": (lambda: algebra_from_text(f"char 2\n{FIBRE}"), 5, True),
    "fibre product GF(101)": (lambda: algebra_from_text(FIBRE), 5, True),
    "fibre product QQ": (lambda: algebra_from_text(f"char 0\n{FIBRE}"), 2, True),
    "scan-wide seed 1": (lambda: random_algebra(SCAN_WIDE, 0), 5, True),
    "dense basis GF(101)": (
        lambda: dense_change(algebra_from_text(FIBRE), 3), 4, False),
    "dense basis QQ": (lambda: dense_change(algebra_from_text(
        "char 0\nvars x y\nideal x^2, x*y, y^3"), 5), 3, False),
}


def assert_same_subspace(got, want):
    assert got.ambient_dim == want.ambient_dim
    assert got.pivots == want.pivots
    assert got.basis.dtype == want.basis.dtype
    assert got.basis.shape == want.basis.shape
    if got.field.p:
        assert got.basis.tobytes() == want.basis.tobytes()
    else:
        assert got.basis.tolist() == want.basis.tolist()


@pytest.mark.parametrize("name", LINEAR_CASES)
def test_linear_strands_match_whole_slices(name, monkeypatch):
    build, top, by_strand = LINEAR_CASES[name]
    res = resolve(build().residue_field(), top + 1)
    assert all(d is not None for d in res.degrees) is by_strand
    assert all(d is None for d in res.degrees) is not by_strand
    paths = {}
    real_slice, real_cell = GradedComplex.slice_matrix, GradedComplex._strand_cell
    monkeypatch.setattr(GradedComplex, "slice_matrix", lambda self, i, j: (
        paths.setdefault(stage, set()).add("slice") or real_slice(self, i, j)))
    monkeypatch.setattr(GradedComplex, "_strand_cell", lambda self, i, j: (
        paths.setdefault(stage, set()).add("strand") or real_cell(self, i, j)))
    lin = linear_part(res)
    cells = {}
    for stage in range(top + 1):
        cells[stage] = lin.homology(stage)
    # a stage runs by strand, building its blocks and never a whole
    # slice, or eliminates whole slices; graded rings split somewhere
    assert all(len(p) == 1 for p in paths.values())
    assert any(p == {"strand"} for p in paths.values()) is by_strand
    for i, got in cells.items():
        want = one_block_homology(linear_part(res), i)
        assert got.keys() == want.keys()
        for j, (cycles, boundaries) in want.items():
            assert_same_subspace(got[j].cycles, cycles)
            assert_same_subspace(got[j].boundaries, boundaries)


@pytest.mark.parametrize("name, horizon", [
    ("fibre product GF(2)", 4), ("fibre product QQ", 2), ("scan-wide seed 1", 4),
])
def test_full_check_unchanged_by_linear_strands(name, horizon, monkeypatch):
    algebra = LINEAR_CASES[name][0]()
    got = full_check(algebra, horizon).to_json_dict()
    # no generator degrees anywhere: every cell from whole slices
    monkeypatch.setattr(GradedComplex, "strands", lambda self, i: None)
    assert full_check(algebra, horizon).to_json_dict() == got
