"""Strands: the resolution by internal degree against one block.

`reference_resolution` runs every stage as one block. Resolving strand
by strand must give the same Betti numbers and the same entry arrays,
byte for byte, on rings of every kind of field: graded ones in the
filtration grading, and ungraded ones (and a module whose coordinates
are not graded) in the trivial grading, one strand per stage. Likewise
the linear part's homology, taken one linear strand at a time, must give
the cells that `one_block_homology` gets from whole slices, and the same
`full_check` record.
"""

import pytest

from lindef import linear_part as linear_part_module
from lindef import resolution
from lindef.lab import ScanConfig, full_check, random_algebra
from lindef.linalg import HomologyCell
from lindef.linear_part import GradedComplex, linear_part
from lindef.presentation import algebra_from_text
from lindef.resolution import resolve

from references import dense_change, one_block_homology, reference_resolution

# the ci-dim100 benchmark ring of seed 1: two dense degree-10 forms
CI_DIM100 = (
    "char 101\nvars x y\nideal "
    "25*y^10 + 58*x*y^9 + 48*x^2*y^8 + 59*x^3*y^7 + 53*x^4*y^6 + 44*x^5*y^5"
    " + 89*x^6*y^4 + 13*x^7*y^3 + 60*x^8*y^2 + 15*x^9*y + 50*x^10, "
    "30*y^10 + 13*x*y^9 + 78*x^2*y^8 + 40*x^3*y^7 + 4*x^4*y^6 + 32*x^5*y^5"
    " + 50*x^6*y^4 + 97*x^7*y^3 + 20*x^8*y^2 + 25*x^9*y + 27*x^10\n"
)

GF2_RING = "char 2\nvars x y z\nideal x^2, y^3, x*y*z, z^2, y*z"
QQ_RING = "char 0\nvars x y\nideal x^2, x*y, y^3"
BIG_RING = "char 2147483647\nvars x y\nideal x^3, x*y^2, y^4"

# name -> (ring builder, horizon, graded table)
CASES = {
    "scan-wide seed 1": (lambda: random_algebra(
        ScanConfig(nvars=3, nilpotency=3, horizon=5, count=1, seed=1), 0), 5, True),
    "scan-many heavy seed 1": (lambda: random_algebra(
        ScanConfig(nvars=2, nilpotency=4, horizon=6, count=8,
                   degree_range=(3, 3), seed=1), 0), 7, True),
    "ci-dim100 seed 1": (lambda: algebra_from_text(CI_DIM100), 6, True),
    "QQ": (lambda: algebra_from_text(QQ_RING), 4, True),
    "GF(2)": (lambda: algebra_from_text(GF2_RING), 6, True),
    "GF(2^31-1)": (lambda: algebra_from_text(BIG_RING), 6, True),
    "rebased": (lambda: algebra_from_text(
        "char 101\nvars x y\nideal x^2 - y^5, x*y, y^6"), 6, False),
    "dense basis QQ": (lambda: dense_change(algebra_from_text(QQ_RING), 1), 4, False),
    "dense basis GF(2)": (
        lambda: dense_change(algebra_from_text(GF2_RING), 1), 5, False),
    "dense basis GF(2^31-1)": (
        lambda: dense_change(algebra_from_text(BIG_RING), 1), 5, False),
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
    res = resolve(k, horizon)
    # the filtration grading on graded tables, the trivial one otherwise
    assert res.m_degree == (1 if graded else 0)
    if not graded:
        assert all(not d.any() for d in res.degrees)
    assert_same_resolution(res, k, horizon)


def test_generator_row_in_two_strands_raises(monkeypatch):
    # over k[x,y]/(x^2,y^3) d_2 has rows (x, -y), (y^2, 0), (0, x) of
    # degrees 2, 3, 2; adding the second row to the first keeps a minimal
    # generating set, whose rows touch two strands, which
    # minimal_generators never builds: stage 2 raises
    algebra = algebra_from_text("vars x y\nideal x^2, y^3")
    k = algebra.residue_field()
    assert resolve(k, 5).betti == [1, 2, 3, 4, 5, 6]
    real = resolution.minimal_generators
    stages = []

    def recombining(space, blocks, ops):
        reps = real(space, blocks, ops)
        stages.append(len(stages))
        if len(stages) == 3:
            reps = reps.copy()
            reps[0] = algebra.field.add(reps[0], reps[1])
        return reps

    monkeypatch.setattr(resolution, "minimal_generators", recombining)
    with pytest.raises(AssertionError,
                       match="stage 2 has a generator row in two strands"):
        resolve(k, 5)
    assert stages == [0, 1, 2]


def test_syzygy_module_resolves_like_the_tail():
    # a syzygy module's coordinates are a kernel basis, not a graded one:
    # over a graded table its first syzygy space does not split by
    # strand, so it runs in the trivial grading, and its resolution is
    # the tail of the resolution of k
    algebra = algebra_from_text("vars x y\nideal x^2, y^3")
    assert resolution._basis_degrees(algebra) is not None
    res = resolve(algebra.residue_field(), 6)
    assert res.m_degree == 1
    module = res.syzygy(2)
    tail = resolve(module, 3)
    assert tail.m_degree == 0
    assert tail.betti == res.betti[3:7]
    assert_same_resolution(tail, module, 3)


# the Dress–Krämer fibre product k[x,y]/(x^2,y^3,xy^2) x_k k[z]/(z^3)
FIBRE = "vars x y z\nideal x^2, y^3, x*y^2, z^3, x*z, y*z"
SCAN_WIDE = ScanConfig(nvars=3, nilpotency=3, horizon=5, count=1, seed=1)

# name -> (ring builder, homology through stage, graded table)
LINEAR_CASES = {
    "fibre product GF(2)": (lambda: algebra_from_text(f"char 2\n{FIBRE}"), 5, True),
    "fibre product GF(101)": (lambda: algebra_from_text(FIBRE), 5, True),
    "fibre product QQ": (lambda: algebra_from_text(f"char 0\n{FIBRE}"), 2, True),
    "fibre product GF(2^31-1)": (
        lambda: algebra_from_text(f"char 2147483647\n{FIBRE}"), 4, True),
    "scan-wide seed 1": (lambda: random_algebra(SCAN_WIDE, 0), 5, True),
    "dense basis GF(101)": (
        lambda: dense_change(algebra_from_text(FIBRE), 3), 4, False),
    "dense basis GF(2^31-1)": (lambda: dense_change(
        algebra_from_text(f"char 2147483647\n{FIBRE}"), 3), 3, False),
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
def test_linear_strands_match_whole_slices(name):
    build, top, graded = LINEAR_CASES[name]
    res = resolve(build().residue_field(), top + 1)
    assert res.m_degree == (1 if graded else 0)
    lin = linear_part(res)
    cells = {stage: lin.homology(stage) for stage in range(top + 1)}
    # graded rings split into linear strands somewhere, ungraded ones
    # have one linear strand per stage
    assert any(len(lin.strands(i)) > 1 for i in range(top + 2)) is graded
    for i, got in cells.items():
        want = one_block_homology(linear_part(res), i)
        assert got.keys() == want.keys()
        for j, (cycles, boundaries) in want.items():
            assert_same_subspace(got[j].cycles, cycles)
            assert_same_subspace(got[j].boundaries, boundaries)


@pytest.mark.parametrize("name", LINEAR_CASES)
def test_each_strand_block_built_once(name, monkeypatch):
    build, top, _ = LINEAR_CASES[name]
    res = resolve(build().residue_field(), top + 1)
    lin = linear_part(res)
    gr = lin.gr
    # the (i, j, s) blocks the cells of stages 0..top read: outgoing from
    # stage i, and incoming from stage i + 1
    wanted = set()
    for i in range(top + 1):
        for j in lin.degree_range(i):
            for s in lin.strands(i):
                if gr.component_dim(j - i + 1) and s in lin.strands(i - 1):
                    wanted.add((i, j, s))
                if gr.component_dim(j - i - 1) and s in lin.strands(i + 1):
                    wanted.add((i + 1, j, s))
    built, expanded = [], []
    real_block = GradedComplex._strand_block
    real_expand = linear_part_module.block_expand

    def recording(self, i, j, s):
        built.append((i, j, s))
        return real_block(self, i, j, s)

    def counting(field, entries, ops):
        expanded.append(entries.shape)
        return real_expand(field, entries, ops)

    monkeypatch.setattr(GradedComplex, "_strand_block", recording)
    monkeypatch.setattr(linear_part_module, "block_expand", counting)
    # stage 0 first, then full_check's order: the profile's stages, then 0
    for stages in ([0, *range(1, top + 1)], [*range(1, top + 1), 0]):
        built.clear()
        expanded.clear()
        lin = linear_part(res)
        for i in stages:
            lin.homology(i)
        assert sorted(built) == sorted(wanted)
        assert len(expanded) == len(wanted)


@pytest.mark.parametrize("name, horizon", [
    ("fibre product GF(2)", 4), ("scan-wide seed 1", 4), ("dense basis GF(101)", 3),
])
def test_full_check_builds_each_strand_block_once(name, horizon, monkeypatch):
    # full_check resolves to horizon + 1 and reads lin(F) at spots
    # 0..horizon: every linear-strand block of d_1..d_{horizon+1} once
    built = []
    real = GradedComplex._strand_block

    def recording(self, i, j, s):
        built.append((i, j, s))
        return real(self, i, j, s)

    monkeypatch.setattr(GradedComplex, "_strand_block", recording)
    full_check(LINEAR_CASES[name][0](), horizon)
    assert len(built) == len(set(built))
    assert {i for i, _, _ in built} == set(range(1, horizon + 2))


def one_block_cells(self, i):
    return {j: HomologyCell(*cell) for j, cell in one_block_homology(self, i).items()}


@pytest.mark.parametrize("name, horizon", [
    ("fibre product GF(2)", 4), ("fibre product QQ", 2), ("scan-wide seed 1", 4),
    ("dense basis GF(101)", 3),
])
def test_full_check_unchanged_by_linear_strands(name, horizon, monkeypatch):
    algebra = LINEAR_CASES[name][0]()
    got = full_check(algebra, horizon).to_json_dict()
    # every cell from whole slices
    monkeypatch.setattr(GradedComplex, "homology", one_block_cells)
    assert full_check(algebra, horizon).to_json_dict() == got
