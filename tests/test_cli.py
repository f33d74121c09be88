"""Command-line interface: subcommands, formats, exit codes."""

import json

import pytest

from lindef.cli import main
from lindef.errors import ResourceLimitError
from lindef.presentation import algebra_from_text, parse_presentation
from lindef.resolution import AlgebraMatrix

from references import pairwise_table


X2 = "vars x\nideal x^2\n"
X3 = "vars x\nideal x^3\n"
KOSZUL2 = "vars x y\nideal x^2, x*y, y^2\n"
FIELD = "vars x\nideal x\n"


@pytest.fixture
def ring_file(tmp_path):
    def write(text, name="ring.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


class TestAnalyze:
    def test_text_report_clean(self, ring_file, capsys):
        code = main(["analyze", "--ring", ring_file(X2), "--horizon", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ld=0 up to horizon" in out
        assert "betti" in out.lower()

    def test_text_report_defective_still_exit_zero(self, ring_file, capsys):
        # a nonzero defect is a finding, not a violation
        code = main(["analyze", "--ring", ring_file(X3), "--horizon", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "defect >= 4" in out

    def test_json_report(self, ring_file, capsys):
        code = main(
            ["analyze", "--ring", ring_file(KOSZUL2), "--horizon", "3",
             "--format", "json"]
        )
        rec = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rec["schema"] == 1
        assert rec["dim"] == 3
        assert rec["betti"] == [1, 2, 4, 8]
        assert rec["flags"]["oracle_mismatch"] is False

    def test_prime_near_2_31(self, ring_file, capsys):
        # panels one column wide; every elimination runs the int64 loop.
        # Two quadrics cut a complete intersection, so b_i = i + 1 (Tate).
        ring = ("char 2147483647\nvars x y\n"
                "ideal x^2 + 3*x*y + 5*y^2, 7*x*y + 2*y^2, x^3, y^3\n")
        code = main(["analyze", "--ring", ring_file(ring), "--horizon", "4",
                     "--format", "json"])
        rec = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rec["dim"] == 4
        assert rec["betti"] == [1, 2, 3, 4, 5]
        assert not any(rec["flags"].values())

    def test_missing_file(self, tmp_path, capsys):
        code = main(["analyze", "--ring", str(tmp_path / "absent.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error(self, ring_file, capsys):
        code = main(["analyze", "--ring", ring_file("vars x\nideal q^2\n")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_table_input(self, tmp_path, capsys):
        # k[x]/x^2 given directly by structure constants
        table = {
            "char": 101,
            "dim": 2,
            "basis": ["1", "x"],
            "unit": 0,
            "m_generators": [1],
            "table": [
                [[1, 0], [0, 1]],
                [[0, 1], [0, 0]],
            ],
        }
        p = tmp_path / "t.json"
        p.write_text(json.dumps(table))
        code = main(["analyze", "--table", str(p), "--horizon", "3",
                     "--format", "json"])
        rec = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rec["dim"] == 2
        assert rec["betti"] == [1, 1, 1, 1]

    def test_bad_table_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code = main(["analyze", "--table", str(p)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("change, key", [
        ({"dim": "x"}, "dim"),
        ({"dim": 2.5}, "dim"),
        ({"char": "101"}, "char"),
        ({"unit": None}, "unit"),
        ({"basis": 2}, "basis"),
        ({"m_generators": 1}, "m_generators"),
        ({"m_generators": [1.0]}, "m_generator"),
        ({"table": 7}, "table"),
        ({"table": [[1, [0, 1]], [[0, 1], [0, 0]]]}, "table[0][0]"),
        ({"table": [[["1.5", 0], [0, 1]], [[0, 1], [0, 0]]]}, "table[0][0]"),
        ({"table": [[[1, None], [0, 1]], [[0, 1], [0, 0]]]}, "table[0][0]"),
        ({"char": 0, "table": [[[1, 0], [0, "1/0"]], [[0, 1], [0, 0]]]},
         "table[0][1]"),
    ])
    def test_malformed_table_is_an_error(self, tmp_path, capsys, change, key):
        table = {
            "char": 101,
            "dim": 2,
            "basis": ["1", "x"],
            "unit": 0,
            "m_generators": [1],
            "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        }
        p = tmp_path / "t.json"
        p.write_text(json.dumps({**table, **change}))
        code = main(["analyze", "--table", str(p)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and key in err

    def test_integer_over_digit_limit_is_an_error(self, tmp_path, capsys):
        # json.load raises a plain ValueError past Python's 4300-digit
        # int-string limit
        p = tmp_path / "t.json"
        p.write_text(
            '{"char": 101, "dim": 2, "basis": ["1", "x"], "unit": 0, '
            '"m_generators": [1], "table": [[[1' + "0" * 5000
            + ', 0], [0, 1]], [[0, 1], [0, 0]]]}'
        )
        code = main(["analyze", "--table", str(p)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_table_must_be_an_object(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        p.write_text(json.dumps("char dim basis unit m_generators table"))
        assert main(["analyze", "--table", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestResolve:
    def test_x2_betti_row(self, ring_file, capsys):
        code = main(["resolve", "--ring", ring_file(X2), "--horizon", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "betti: 1,1,1,1,1,1" in out

    def test_field_module_stops(self, ring_file, capsys):
        code = main(["resolve", "--ring", ring_file(FIELD), "--horizon", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "betti: 1,0,0,0,0" in out

    def test_horizon_zero(self, ring_file, capsys):
        code = main(["resolve", "--ring", ring_file(X3), "--horizon", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "betti: 1"

    def test_verbose_prints_differentials(self, ring_file, capsys):
        code = main(["resolve", "--ring", ring_file(X3), "--horizon", "2",
                     "--verbose"])
        out = capsys.readouterr().out
        assert code == 0
        assert "differential 1" in out
        assert "x" in out and "x^2" in out


class TestUpsilon:
    def test_x3_honest_nonzero_cell(self, ring_file, capsys):
        code = main(["upsilon", "--ring", ring_file(X3), "-i", "2", "-n", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "v^1_2" in out
        assert "rank 1" in out

    def test_x3_zero_cell(self, ring_file, capsys):
        code = main(["upsilon", "--ring", ring_file(X3), "-i", "1", "-n", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank 0" in out

    def test_forced_cell_notes_free_source(self, ring_file, capsys):
        code = main(["upsilon", "--ring", ring_file(X3), "-i", "1", "-n", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "note:" in out and "free module R" in out

    def test_index_zero(self, ring_file, capsys):
        code = main(["upsilon", "--ring", ring_file(X3), "-i", "0", "-n", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank 1" in out


class TestScan:
    ARGS = ["scan", "--vars", "2", "--nilpotency", "3", "--count", "3",
            "--seed", "7", "--horizon", "3", "--extra-gens", "1"]

    def test_summary_on_stdout(self, capsys):
        code = main(self.ARGS)
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["count"] == 3
        assert summary["violations"] == 0
        assert summary["exploratory"] is False

    def test_out_files_byte_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        assert main(self.ARGS + ["--out", str(p1)]) == 0
        assert main(self.ARGS + ["--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_failing_sample_named_on_stderr(self, capsys, monkeypatch):
        import lindef.lab as lab

        def over_cap(algebra, horizon):
            raise ResourceLimitError("differential 7 would expand to a 16200 x 6480 block")

        monkeypatch.setattr(lab, "full_check", over_cap)
        code = main(self.ARGS)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: sample 0: differential 7 would expand to a 16200 x 6480 block\n")

    def test_count_zero(self, capsys):
        code = main(["scan", "--count", "0"])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["count"] == 0

    def test_exploratory_marker(self, capsys):
        code = main(["scan", "--nilpotency", "5", "--count", "0"])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["exploratory"] is True

    def test_extra_degrees_flag(self, capsys):
        code = main(["scan", "--nilpotency", "4", "--count", "1",
                     "--horizon", "2", "--extra-degrees", "2:2", "--seed", "3"])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["config"]["degree_range"] == [2, 2]

    def test_bad_extra_degrees(self, capsys):
        code = main(["scan", "--extra-degrees", "nope"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestNonAdaptedRing:
    """x^2 = y^5 puts a degree-2 standard monomial into m^5, so the
    monomial basis is not adapted to the m-adic filtration and the ring
    is rebased at load."""

    TEXT = "char 101\nvars x y\nideal x^2 - y^5, x*y, y^6\n"
    # captured before rebasing existed; entries stay in the monomial labels
    RESOLVE_GOLDEN = """\
betti: 1,2,3,4,5
differential 1: 2 -> 1
  [y]
  [x]
differential 2: 3 -> 2
  [x, 0]
  [y^4, 100*x]
  [0, y]
differential 3: 4 -> 3
  [y, 0, 0]
  [x, 100*y, 0]
  [0, x, y^4]
  [0, 0, x]
differential 4: 5 -> 4
  [x, 0, 0, 0]
  [y^4, 100*x, 0, 0]
  [0, y^4, x, 0]
  [0, 0, y, 100*x]
  [0, 0, 0, y]
"""

    def test_table_export_analyzes_like_the_ring(self, ring_file, tmp_path,
                                                  capsys):
        pres = parse_presentation(self.TEXT)
        labels = algebra_from_text(self.TEXT).labels
        table = pairwise_table(pres)
        d = len(labels)
        data = {
            "char": 101,
            "dim": d,
            "basis": labels,
            "unit": labels.index("1"),
            "m_generators": [labels.index("x"), labels.index("y")],
            "table": [[[int(c) for c in table[i, j]] for j in range(d)]
                      for i in range(d)],
        }
        p = tmp_path / "t.json"
        p.write_text(json.dumps(data))
        records = []
        for source in (["--table", str(p)], ["--ring", ring_file(self.TEXT)]):
            code = main(["analyze", *source, "--horizon", "4",
                         "--format", "json"])
            assert code in (0, 2)
            records.append(json.loads(capsys.readouterr().out))
        from_table, from_ring = records
        assert from_table.pop("presentation") is None
        assert from_ring.pop("presentation") is not None
        assert from_table == from_ring

    def test_verbose_resolve_prints_input_labels(self, ring_file, capsys):
        code = main(["resolve", "--ring", ring_file(self.TEXT), "--horizon",
                     "4", "--verbose"])
        assert code == 0
        assert capsys.readouterr().out == self.RESOLVE_GOLDEN


GRADED = "vars x y\nideal x^3, y^3, x*y^2\n"  # m^4 = 0
REBASED = "vars x y\nideal x^2 - y^5, x*y, y^6\n"  # ungraded table, m^6 = 0


def test_no_command_expands_a_whole_differential(ring_file, tmp_path, capsys,
                                                 monkeypatch):
    """Every command builds strand blocks only: with
    `AlgebraMatrix.expand` raising, each prints its usual output."""
    commands = []
    for text, t in ((GRADED, 4), (REBASED, 6)):
        path = ring_file(text, f"ring{t}.txt")
        commands += [
            ["analyze", "--ring", path, "--horizon", "4", "--format", "json"],
            ["analyze", "--ring", path, "--horizon", "4"],
            ["resolve", "--ring", path, "--horizon", "4", "--verbose"],
        ]
        # n = 0, honest cells, the last honest n, and forced cells
        for n, i in ((0, 1), (1, 0), (1, 2), (t - 2, 1), (t - 1, 2), (t + 1, 1)):
            commands.append(["upsilon", "--ring", path, "-i", str(i), "-n", str(n)])
    out = tmp_path / "scan.jsonl"
    commands.append(["scan", "--vars", "2", "--nilpotency", "3", "--count", "3",
                     "--seed", "7", "--horizon", "3", "--extra-gens", "1",
                     "--out", str(out)])

    def run_all():
        runs = []
        for argv in commands:
            code = main(argv)
            runs.append((code, capsys.readouterr()))
        return runs, out.read_text()

    usual = run_all()
    assert all(code in (0, 2) and not captured.err for code, captured in usual[0])

    def whole_expand(self, rows=None, cols=None):
        raise AssertionError("a whole differential was expanded")

    monkeypatch.setattr(AlgebraMatrix, "expand", whole_expand)
    assert run_all() == usual
