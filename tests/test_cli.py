"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sepscope import (
    GptOpSet,
    ReductionParams,
    SubsystemDims,
    all_subsets,
    evaluate,
    horodecki_3x3,
    load_state,
    ppt_check,
    random_separable,
    werner,
)
from sepscope.cli import build_parser, main
from sepscope.errors import ParamOutOfRange, ParseError

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, *args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports sepscope from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


# (field, entry as JSON text, the end of the message): each makes load_state
# raise ParseError naming the field, checked or not, before any arithmetic,
# and check exit 2 with that message as its one line.
BAD_ENTRIES = [
    ("re", '"0.25"', "found a string"),
    ("re", "true", "found true or false"),
    ("re", "false", "found true or false"),
    ("im", "false", "found true or false"),
    ("re", "null", "found null, an object or an integer outside the 64-bit range"),
    ("re", "{}", "found null, an object or an integer outside the 64-bit range"),
    ("re", str(10**30), "found null, an object or an integer outside the 64-bit range"),
    ("re", "NaN", "found nan"),
    ("re", "Infinity", "found inf"),
    ("re", "1e400", "found inf"),
    ("im", "Infinity", "found inf"),
    ("im", "-Infinity", "found -inf"),
    ("im", '"0"', "found a string"),
]


# (field, whether the key is absent or holds a JSON null, the whole message
# after the field's name): an absent key and a null are told apart.
ABSENT_OR_NULL = [
    ("m", "absent", "missing"),
    ("m", "null", "expected a positive integer, got null"),
    ("n", "null", "expected a positive integer, got null"),
    ("re", "absent", "missing"),
    ("re", "null", "expected a 2-D array of numbers, found null"),
    ("im", "absent", "missing"),
    ("im", "null", "expected a 2-D array of numbers, found null"),
    ("name", "null", "expected text, got null"),
    ("params", "null", "expected an object, got null"),
]


def bad_entry_file(field, text):
    """A 1x2 state file whose field holds text at (0, 1), and, where text is
    true, true in every entry, so that no number sits beside it."""
    entries = {"re": ["0.5", "0", "0", "0.5"], "im": ["0", "0", "0", "0"]}
    if text == "true":
        entries[field] = [text] * 4
    else:
        entries[field][1] = text
    rows = {key: "[[{}, {}], [{}, {}]]".format(*values) for key, values in entries.items()}
    return f'{{"m": 1, "n": 2, "re": {rows["re"]}, "im": {rows["im"]}}}'


def verdict_rows(output):
    """Parse the fixed-column verdict table from check output."""
    rows = []
    for line in output.splitlines():
        parts = line.split()
        if parts and parts[0] in {"generalized-reduction", "ppt", "reduction", "realignment"}:
            rows.append({
                "criterion": parts[0],
                "yset": parts[1],
                "statistic": float(parts[2]),
                "bound": float(parts[3]),
                "violation": float(parts[4]),
                "entangled": parts[5],
            })
    return rows


class TestCheck:
    def test_werner_grc_detects(self, capsys):
        code = main([
            "check", "--builtin", "werner", "--d", "3", "--f", "-1",
            "--criterion", "grc", "--a", "0", "--b", "0", "--yset", "cA,rB",
        ])
        assert code == 1
        rows = verdict_rows(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["violation"] == pytest.approx(2 / 3, abs=1e-9)
        assert rows[0]["entangled"] == "yes"
        # the CLI does no arithmetic of its own; printed values round-trip
        direct = evaluate(werner(3, -1.0).state, ReductionParams(0, 0), GptOpSet(cA=True, rB=True))
        assert rows[0]["statistic"] == direct.statistic
        assert rows[0]["violation"] == direct.violation

    def test_horodecki_ppt_clean(self, capsys):
        code = main(["check", "--builtin", "horodecki", "--c", "0.5", "--criterion", "ppt"])
        assert code == 0
        rows = verdict_rows(capsys.readouterr().out)
        assert rows[0]["entangled"] == "no"
        direct = ppt_check(horodecki_3x3(0.5).state)
        assert rows[0]["statistic"] == direct.statistic

    def test_all_criteria_sixteen_plus_three_rows(self, capsys):
        code = main(["check", "--builtin", "werner", "--f", "-1"])
        assert code == 1
        rows = verdict_rows(capsys.readouterr().out)
        assert len(rows) == 16 + 3

    def test_lone_subset_prints_its_all_row(self, capsys):
        argv = ["check", "--builtin", "random", "--seed", "11", "--criterion", "grc",
                "--a", "0.3", "--a-im", "0.2", "--b", "-0.7"]
        main(argv + ["--yset", "all"])
        rows = capsys.readouterr().out.splitlines()[2:18]
        for y, row in zip(all_subsets(), rows, strict=True):
            main(argv + ["--yset", y.code])
            assert capsys.readouterr().out.splitlines()[2] == row

    def test_product_state_violation_prints_zero(self, tmp_path, capsys):
        # On |00><00| both oracles read a statistic of 0, so an excess of -0.0.
        mat = np.zeros((4, 4))
        mat[0, 0] = 1.0
        path = tmp_path / "product.json"
        path.write_text(json.dumps({"m": 2, "n": 2, "re": mat.tolist(),
                                    "im": np.zeros((4, 4)).tolist()}))
        assert main(["check", "--file", str(path)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row[4] for row in rows if row[0] in ("ppt", "reduction")] == ["0", "0"]

    def test_bad_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        mat = (np.eye(4) * 0.225).tolist()
        path.write_text(json.dumps({"m": 2, "n": 2, "re": mat, "im": np.zeros((4, 4)).tolist()}))
        assert main(["check", "--file", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unchecked_file_accepted(self, tmp_path):
        path = tmp_path / "bad.json"
        mat = (np.eye(4) * 0.225).tolist()
        path.write_text(json.dumps({"m": 2, "n": 2, "re": mat, "im": np.zeros((4, 4)).tolist()}))
        code = main(["check", "--file", str(path), "--unchecked", "--criterion", "realignment"])
        assert code in (0, 1)

    @pytest.mark.parametrize("field,text,found", BAD_ENTRIES)
    @pytest.mark.parametrize("unchecked", [[], ["--unchecked"]], ids=["checked", "unchecked"])
    def test_bad_entry_exits_two_naming_its_field(self, tmp_path, capsys, field, text, found,
                                                    unchecked):
        path = tmp_path / "entries.json"
        path.write_text(bad_entry_file(field, text))
        with pytest.raises(ParseError, match=f"^field '{field}': .*{found}$"):
            load_state(path, unchecked=bool(unchecked))
        assert main(["check", "--file", str(path), *unchecked]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: field '{field}': ")
        assert lines[0].endswith(found)

    @pytest.mark.parametrize("field,how,message", ABSENT_OR_NULL)
    def test_absent_or_null_field_exits_two_naming_it(self, tmp_path, capsys, field, how,
                                                      message):
        payload = {"m": 1, "n": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}
        if how == "absent":
            del payload[field]
        else:
            payload[field] = None
        path = tmp_path / "fields.json"
        path.write_text(json.dumps(payload))
        full = f"field '{field}': {message}"
        with pytest.raises(ParseError, match=f"^{full}$"):
            load_state(path)
        assert main(["check", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {full}"]

    def test_unknown_yset_exits_two(self, capsys):
        assert main(["check", "--builtin", "werner", "--yset", "qZ"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["check", "--builtin", "werner"],
        ["sweep", "--family", "werner-3", "--out", "never-written.csv"],
    ], ids=["check", "sweep"])
    def test_repeated_yset_flag_exits_two(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--yset", "rA,rA"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: repeated transposition flag 'rA' in 'rA,rA'"]
        assert list(tmp_path.iterdir()) == []

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["check", "--file", str(tmp_path / "nope.json")]) == 2

    def test_out_of_range_param_exits_two(self):
        assert main(["check", "--builtin", "werner", "--f", "2.0"]) == 2

    @pytest.mark.parametrize("builtin", ["separable", "random"])
    def test_negative_seed_exits_two_naming_it(self, capsys, builtin):
        assert main(["check", "--builtin", builtin, "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: seed must be a non-negative integer, got -3"]

    @pytest.mark.parametrize("argv", [["check", "--builtin"], ["gen", "--out", "x.json"]],
                             ids=["check", "gen"])
    def test_one_dimensional_random_state_exits_two_naming_it(self, capsys, monkeypatch,
                                                               tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "random", "--m", "1", "--n", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: m*n must be >= 2, got m*n = 1 (m=1, n=1)"]
        assert not (tmp_path / "x.json").exists()

    # Each state constructor's range error leads with the option it blames;
    # of m and n, the first bad one.
    @pytest.mark.parametrize("argv,line", [
        (["horodecki", "--c", "1.5"], "c: parameter must lie strictly inside (0, 1), got 1.5"),
        (["werner", "--d", "1"], "d: Werner dimension must be >= 2, got 1"),
        (["werner", "--f", "2"], "f: Werner parameter must lie in [-1, 1], got 2.0"),
        (["separable", "--k", "0"], "k: term count must be >= 1, got 0"),
        (["separable", "--m", "0"], "m: subsystem dimensions must be >= 1, got (0, 3)"),
        (["separable", "--n", "0"], "n: subsystem dimensions must be >= 1, got (3, 0)"),
        (["random", "--m", "0", "--n", "0"], "m: subsystem dimensions must be >= 1, got (0, 0)"),
    ], ids=["c", "d", "f", "k", "m", "n", "m-and-n"])
    def test_out_of_range_field_exits_two_naming_it(self, capsys, argv, line):
        assert main(["check", "--builtin", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {line}"]

    # Finite (a, b) whose map (ab overflows), bound (a squared factor
    # overflows) or statistic and bound (both overflow) are not finite.
    @pytest.mark.parametrize("a,b,yset", [
        ("1e200", "1e200", "cA,rB"),
        ("1e300", "1e7", "all"),
        ("1e154", "1e154", "cA,rB"),
    ])
    def test_overflowing_params_exit_two(self, capsys, a, b, yset):
        code = main(["check", "--builtin", "random", "--m", "2", "--n", "2",
                     "--a", a, "--b", b, "--criterion", "grc", "--yset", yset])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0] == ("error: the map, its trace norm or the bound is not finite"
                            f" at a={float(a):g}, b={float(b):g}")

    @pytest.mark.parametrize("criterion", ["grc", "ppt", "reduction", "realignment", "all"])
    def test_overflowing_unchecked_file_exits_two(self, tmp_path, capsys, criterion):
        # Finite entries whose magnitudes sum past the float range.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"m": 2, "n": 2, "re": (np.eye(4) * 1e308).tolist(),
                                    "im": np.zeros((4, 4)).tolist()}))
        code = main(["check", "--file", str(path), "--unchecked", "--criterion", criterion])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: matrix ")
        assert "a=" not in lines[0] and "b=" not in lines[0]

    @staticmethod
    def skewed_separable_file(path, defect):
        """random_separable 3x3 (k = 12, seed 0) with i defect/2 added at
        [3i, 3i+1] and [3i+1, 3i], i = 0..2: a Hermiticity defect of defect."""
        mat = random_separable(SubsystemDims(3, 3), 12, 0).state.mat.copy()
        for i in range(3):
            mat[3 * i, 3 * i + 1] += 0.5j * defect
            mat[3 * i + 1, 3 * i] += 0.5j * defect
        path.write_text(json.dumps({"m": 3, "n": 3, "re": mat.real.tolist(),
                                    "im": mat.imag.tolist()}))

    def test_state_inside_hermiticity_tolerance_answers(self, tmp_path, capsys):
        # Validation accepts a defect of 0.9e-12.  The defect of I kron rho_B -
        # rho sums several of the state's, so the reduction oracle checks the
        # state's own.
        path = tmp_path / "skewed.json"
        self.skewed_separable_file(path, 0.9e-12)
        assert main(["check", "--file", str(path), "--criterion", "all"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = verdict_rows(captured.out)
        assert len(rows) == 16 + 3 and all(row["entangled"] == "no" for row in rows)

    @pytest.mark.parametrize("criterion", ["ppt", "reduction"])
    def test_unchecked_non_hermitian_exits_two(self, tmp_path, capsys, criterion):
        path = tmp_path / "skewed.json"
        self.skewed_separable_file(path, 1e-9)
        code = main(["check", "--file", str(path), "--unchecked", "--criterion", criterion])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == ["error: max |M_ij - conj(M_ji)| = 1.000e-09 exceeds 1e-12"]

    # numpy's allocation failure is a MemoryError naming the array's shape;
    # a test must not make a real huge allocation, so the constructor raises it.
    @pytest.mark.parametrize("constructor,argv", [
        ("werner", ["check", "--builtin", "werner", "--d", "1000"]),
        ("random_separable", ["gen", "separable", "--m", "3000", "--n", "3000", "--out", "x.json"]),
    ])
    def test_allocation_failure_exits_two(self, monkeypatch, capsys, tmp_path, constructor, argv):
        import sepscope.states as states

        message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"

        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(states, constructor, fail)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "x.json").exists()


class TestGen:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "w.json"
        assert main(["gen", "werner", "--d", "3", "--f", "-0.5", "--out", str(out)]) == 0
        loaded = load_state(out)
        np.testing.assert_allclose(loaded.state.mat, werner(3, -0.5).state.mat, atol=1e-15)

    def test_separable_deterministic(self, tmp_path):
        one = tmp_path / "a.json"
        two = tmp_path / "b.json"
        argv = ["gen", "separable", "--m", "3", "--n", "3", "--k", "20", "--seed", "7"]
        assert main(argv + ["--out", str(one)]) == 0
        assert main(argv + ["--out", str(two)]) == 0
        assert one.read_text() == two.read_text()

    def test_horodecki_boundary_exits_two(self, tmp_path, capsys):
        assert main(["gen", "horodecki", "--c", "1", "--out", str(tmp_path / "h.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_random_density_file_is_valid(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["gen", "random", "--m", "2", "--n", "2", "--seed", "3", "--out", str(out)]) == 0
        load_state(out)  # validates invariants


class TestSweep:
    def test_werner_csv_summary(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = main([
            "sweep", "--family", "werner-3", "--a", "0",
            "--b-start", "0", "--b-stop", "0", "--b-step", "1",
            "--param-start", "-1", "--param-stop", "1", "--param-step", "0.5",
            "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "max N = 0.6666666667" in text
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 5
        assert float(rows[0]["violation"]) == pytest.approx(2 / 3, abs=1e-12)

    def test_json_output(self, tmp_path):
        out = tmp_path / "h.json"
        code = main([
            "sweep", "--family", "horodecki", "--a", "0",
            "--b-start", "0", "--b-stop", "0", "--b-step", "1",
            "--param-start", "0.2", "--param-stop", "0.8", "--param-step", "0.2",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 4
        assert all(entry["violation"] > 1e-8 for entry in payload)

    def test_complement_differs_only_in_yset(self, tmp_path):
        tables = []
        for yset in ("rA,cB", "cA,rB"):
            out = tmp_path / f"{yset}.csv"
            assert main(["sweep", "--family", "horodecki", "--a", "0.7", "--yset", yset,
                         "--out", str(out)]) == 0
            tables.append(list(csv.DictReader(out.read_text().splitlines())))
        assert len(tables[0]) == len(tables[1]) == 41 * 19
        for row, other in zip(*tables):
            assert (row.pop("yset"), other.pop("yset")) == ("rA,cB", "cA,rB")
            assert row == other

    def test_file_family(self, tmp_path):
        state_path = tmp_path / "w.json"
        main(["gen", "werner", "--f", "-1", "--out", str(state_path)])
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--family", "file", "--file", str(state_path),
            "--b-start", "0", "--b-stop", "0", "--b-step", "1",
            "--out", str(out),
        ])
        assert code == 0

    def test_bad_range_exits_two(self, tmp_path, capsys):
        code = main([
            "sweep", "--family", "werner-3",
            "--param-start", "-3", "--param-stop", "1", "--param-step", "0.5",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value,axis", [
        ("--b-stop", "inf", "b axis"),
        ("--b-start", "nan", "b axis"),
        ("--param-stop", "nan", "family parameter axis"),
        ("--param-step", "inf", "family parameter axis"),
        ("--a", "nan", "a"),
        ("--a", "-inf", "a"),
    ], ids=["b-stop-inf", "b-start-nan", "param-stop-nan", "param-step-inf", "a-nan", "a-inf"])
    def test_non_finite_axis_exits_two(self, tmp_path, capsys, option, value, axis):
        out = tmp_path / "x.csv"
        # option=value, so argparse takes "-inf" as a value, not an option.
        code = main(["sweep", "--family", "werner-3", f"{option}={value}", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {axis} must be finite")
        assert not out.exists()

    def test_oversized_grid_exits_two(self, tmp_path, capsys, monkeypatch):
        import sepscope.sweep as sweep

        # Building the 2e9 points would take tens of GB.
        monkeypatch.setattr(sweep, "axis_points", lambda *axis: pytest.fail("axis built"))
        out = tmp_path / "x.csv"
        code = main(["sweep", "--family", "werner-3", "--b-step", "1e-9",
                     "--param-start", "0", "--param-stop", "0", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: grid of 1 family parameter x 2000000000 b points exceeds 1000000 points"]
        assert not out.exists()

    def test_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEPSCOPE_THREADS", "4")
        out = tmp_path / "t.csv"
        serial = tmp_path / "s.csv"
        argv = [
            "sweep", "--family", "werner-3", "--a", "0",
            "--b-start", "-1", "--b-stop", "1", "--b-step", "0.5",
            "--param-start", "-1", "--param-stop", "1", "--param-step", "0.5",
        ]
        assert main(argv + ["--out", str(out)]) == 0
        monkeypatch.setenv("SEPSCOPE_THREADS", "1")
        assert main(argv + ["--out", str(serial)]) == 0
        assert out.read_text() == serial.read_text()


# Small grids whose sweep output was recorded before sweeps streamed: two
# 9-point b axes, so three-map stacks split every family parameter in three.
STREAM_CASES = {
    "werner": (["--family", "werner-3", "--a", "0.5", "--b-step", "0.25", "--param-step", "0.5"],
               "grid: 45 points; max N = 0.6666666667 at param=-1 b=0.5",
               {"csv": "33a1b30eec5ba4608831eafc48d5002cc9c2d77bdd8053afbf594b3fdc8898ae",
                "json": "ed11a829eec31400eb85868a469e7249a6421c5c644beec02b014c00a1bb24ac"}),
    # One state at three family parameters: every maximum ties three times.
    "file-ties": (["--family", "file", "--b-step", "0.25", "--param-start", "0",
                   "--param-stop", "2", "--param-step", "1"],
                  "grid: 27 points; max N = 0.6666666667 at param=0 b=0",
                  {"csv": "8d1580a173a686941694878eda2b2fe7a3fc5ad3772fa893e4dc18cd2c397ecd",
                   "json": "33166f7711a6f4ecd4528c972b225644a875a6b0541e82d99110903b6b77dff9"}),
}


class TestSweepStreaming:
    @pytest.fixture(autouse=True)
    def small_stacks(self, monkeypatch):
        import sepscope.sweep as sweep

        monkeypatch.setattr(sweep, "STACK_MAPS", 3)

    @staticmethod
    def argv(case, tmp_path):
        argv = ["sweep", *STREAM_CASES[case][0]]
        if case == "file-ties":
            state = tmp_path / "w.json"
            assert main(["gen", "werner", "--f", "-1", "--out", str(state)]) == 0
            argv += ["--file", str(state)]
        return argv

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_bytes_and_summary_unchanged(self, tmp_path, capsys, case, format):
        argv = self.argv(case, tmp_path)
        capsys.readouterr()
        out = tmp_path / f"out.{format}"
        assert main(argv + ["--format", format, "--out", str(out)]) == 0
        _, summary, digests = STREAM_CASES[case]
        assert capsys.readouterr().out == f"{summary}; wrote {out}\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[format]

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_kernel_error_on_second_stack_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                         format):
        import sepscope.sweep as sweep

        calls = []
        kernel = sweep.verdict_blocks

        def failing_kernel(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ParamOutOfRange("the map is not finite at the second stack")
            return kernel(*args)

        monkeypatch.setattr(sweep, "verdict_blocks", failing_kernel)
        argv = self.argv("werner", tmp_path) + ["--format", format, "--out"]
        out = tmp_path / "out"
        for before in (None, b"kept bytes"):
            if before is not None:
                out.write_bytes(before)
            calls.clear()
            assert main(argv + [str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: the map is not finite at the second stack\n"
            assert len(calls) == 2
            assert os.listdir(tmp_path) == ([] if before is None else ["out"])
            assert out.exists() == (before is not None)
            if before is not None:
                assert out.read_bytes() == before

    def test_dev_stdout(self, tmp_path):
        # Writing to /dev/stdout worked before sweeps streamed through a
        # temporary file, and still writes in place.
        argv = ["sweep", *STREAM_CASES["werner"][0]]
        assert main(argv + ["--out", str(tmp_path / "ref.csv")]) == 0
        result = run_python("import sys; from sepscope.cli import main; sys.exit(main(sys.argv[1:]))",
                            *argv, "--out", "/dev/stdout")
        assert result.returncode == 0 and result.stderr == b""
        summary = f"{STREAM_CASES['werner'][1]}; wrote /dev/stdout\n".encode()
        assert result.stdout == (tmp_path / "ref.csv").read_bytes() + summary

    # With stdout redirected to a file, reopening /dev/stdout wrote from
    # offset 0: under > the summary line then overwrote the head of the
    # document, and under >> the document overwrote what the file held.
    @pytest.mark.parametrize("mode", ["wb", "ab"], ids=["truncate", "append"])
    def test_dev_stdout_redirected_to_file(self, tmp_path, mode):
        argv = ["sweep", *STREAM_CASES["werner"][0]]
        assert main(argv + ["--out", str(tmp_path / "ref.json"), "--format", "json"]) == 0
        out = tmp_path / "out.txt"
        out.write_bytes(b"earlier line\n")
        with open(out, mode) as stdout:
            result = run_python("import sys; from sepscope.cli import main;"
                                " sys.exit(main(sys.argv[1:]))",
                                *argv, "--format", "json", "--out", "/dev/stdout", stdout=stdout)
        assert result.returncode == 0 and result.stderr == b""
        earlier = b"earlier line\n" if mode == "ab" else b""
        summary = f"{STREAM_CASES['werner'][1]}; wrote /dev/stdout\n".encode()
        assert out.read_bytes() == earlier + (tmp_path / "ref.json").read_bytes() + summary


RUN_ALL = """
import contextlib, io, json, sys
from sepscope.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.getvalue(), err.getvalue(), code])
print(json.dumps(results))
"""


class TestParserReuse:
    def test_built_once_per_process(self, tmp_path, capsys):
        import sepscope.cli as cli

        cli._parser.cache_clear()
        assert main(["check", "--builtin", "werner", "--criterion", "ppt"]) == 1
        assert main(["gen", "werner", "--out", str(tmp_path / "w.json")]) == 0
        assert cli._parser.cache_info().misses == 1
        capsys.readouterr()

    def test_back_to_back_matches_first_run(self, tmp_path):
        commands = [
            ["check", "--builtin", "werner", "--f", "-1"],
            ["sweep", "--family", "werner-3", "--b-step", "0.5", "--param-step", "0.5",
             "--out", str(tmp_path / "s.csv")],
            ["compare", "--family", "separable", "--count", "1"],
            ["gen", "horodecki", "--c", "0.3", "--out", str(tmp_path / "h.json")],
            ["check", "--builtin", "werner", "--yset", "qZ"],
            ["sweep", "--family", "werner-3"],
        ]

        def run(argvs):
            result = run_python(RUN_ALL, json.dumps(argvs))
            assert result.returncode == 0, result.stderr
            return json.loads(result.stdout)

        first = [run([argv])[0] for argv in commands]
        assert [code for _, _, code in first] == [1, 0, 0, 0, 2, 2]
        assert first[5][1].endswith("error: the following arguments are required: --out\n")
        assert run(commands) == first


# sha256 of compare's stdout for each family it takes, fixed before compare
# settled verdicts by a norm bound: any byte change in compare fails here.
COMPARE_CASES = {
    "werner-3": (["--family", "werner-3", "--count", "9"],
                 "77b6cfba7c023182c6542567050416de72f5055820c6143181e1c63354a3d7c8"),
    "horodecki": (["--family", "horodecki", "--count", "9"],
                  "89c24f46407c392b3b0020532e48f2bc84096aa10d7b548a7729035df0640288"),
    "separable-2x3": (["--family", "separable", "--m", "2", "--n", "3", "--k", "6", "--seed", "5",
                       "--count", "6"],
                      "4a7f7808aac0d263c8dcb906b6d2366d6743c94ccbc2ee9e06a72a44ec43b4ba"),
    "separable-3x3": (["--family", "separable", "--seed", "0", "--count", "6"],
                      "6dd23b601077e3bf560d7acb56f2ce0c7361eab9a80bfb5c10eea475ab310aea"),
    "random": (["--family", "random", "--seed", "9", "--count", "6"],
               "032f7dead3e46d642f34cf8e6903f238a9c67ac2511096bc425a01dc3e276b6c"),
    # Mostly NPT ensembles at other dims, fixed before compare took its grc
    # flag from the PPT oracle's; seed 5 of the 2x4 one is not flagged at all.
    "random-2x4": (["--family", "random", "--m", "2", "--n", "4", "--count", "8", "--seed", "3"],
                   "c813317a3d5773a5e149f674dc18434594fd3266213f10447008674ed0f3422d"),
    "random-4x2": (["--family", "random", "--m", "4", "--n", "2", "--count", "8", "--seed", "4"],
                   "186a338323c46994447ef60ab8f306da81161dab54ed2cb84df8a9c429fedca6"),
}

# The corpora of tools/compare_digest.py that COMPARE_CASES leaves out, six
# members each from seed 0, fixed before compare read its realignment column
# off ZZZG's residual on interior-PPT members.
COMPARE_CORPUS_CASES = {
    "random-2x2": (["--family", "random", "--m", "2", "--n", "2"],
                   "6945c53d0ebe8736a2ef2a5550c596a5d6184018599aa4677763b005775e842e"),
    "separable-2x2-k1": (["--family", "separable", "--m", "2", "--n", "2", "--k", "1"],
                         "98139b3afa3724e7fdbc242715bedeb16caab6326610d2d0408b502dfafcf7ee"),
    "separable-2x2-k12": (["--family", "separable", "--m", "2", "--n", "2", "--k", "12"],
                          "a05ed0fda9b0090c92ac8a2b4d0cc785398ab8b444e87c3a73976df36a3ea06a"),
    "separable-2x4-k1": (["--family", "separable", "--m", "2", "--n", "4", "--k", "1"],
                         "ae2c74d02254e3c0bd65badd10de2a1bd2212345ec44363a8d1ade193fa8e8b4"),
    "separable-2x4-k12": (["--family", "separable", "--m", "2", "--n", "4", "--k", "12"],
                          "7bfeacb2c9e2e60cbe2fd638538d90508cbc9c81b7d73358bc66853944921537"),
    "separable-4x2-k1": (["--family", "separable", "--m", "4", "--n", "2", "--k", "1"],
                         "5c1c79d1aadb2f9e7907de8a222e39adc1d3eb899a8fec35d64b684775fc5ed5"),
    "separable-4x2-k12": (["--family", "separable", "--m", "4", "--n", "2", "--k", "12"],
                          "ce1792acf6f466cd46a57ffefea82b3d37bdc30afd037299483e3c17700a79c3"),
    "separable-3x3-k1": (["--family", "separable", "--k", "1"],
                         "0213a770622d329ca7e94293c01e2ed12702834e3ac946ef738cc6317efc7bd3"),
}


class TestCompare:
    @pytest.mark.parametrize("case", sorted(COMPARE_CASES))
    def test_bytes_unchanged(self, capsys, case):
        argv, digest = COMPARE_CASES[case]
        assert main(["compare", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("case", sorted(COMPARE_CORPUS_CASES))
    def test_corpus_bytes_unchanged(self, capsys, case):
        argv, digest = COMPARE_CORPUS_CASES[case]
        assert main(["compare", *argv, "--count", "6"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_separable_ensemble_all_clean(self, capsys):
        code = main([
            "compare", "--family", "separable", "--count", "4",
            "--m", "2", "--n", "2", "--k", "8", "--seed", "11",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "flagged totals: ppt=0  reduction=0  realignment=0  grc=0" in text

    def test_werner_ensemble_expected_pattern(self, capsys):
        # 9 points: f = -1, -0.75, ..., 1; ppt flags f<0 (4), realignment
        # flags f<-1/3 (3), reduction flags none for d=3, grc >= both.
        code = main(["compare", "--family", "werner-3", "--count", "9"])
        assert code == 0
        text = capsys.readouterr().out
        assert "flagged totals: ppt=4  reduction=0  realignment=3  grc=4" in text

    @pytest.mark.parametrize("family,count", [("werner-3", "0"), ("horodecki", "-2")])
    def test_count_below_one_exits_two(self, capsys, family, count):
        assert main(["compare", "--family", family, "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "count" in captured.err

    def test_members_built_when_their_row_is_due(self, monkeypatch):
        import io

        import sepscope.cli as cli

        out, lines_at_build = io.StringIO(), []
        family = cli.FAMILIES["werner-3"]
        monkeypatch.setitem(cli.FAMILIES, "werner-3", family._replace(
            build=lambda o, f: lines_at_build.append(out.getvalue().count("\n"))
            or family.build(o, f)))
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["compare", "--family", "werner-3", "--count", "4"]) == 0
        # Member 0 before the header; member i once the header and rows 0..i-1 are out.
        assert lines_at_build == [0, 2, 3, 4]

    @pytest.mark.parametrize("extra,message", [
        (["--seed", "-2"], "non-negative"),
        (["--k", "0"], "term count"),
        (["--seed", "-3"], "seed must be a non-negative integer, got -3"),
        (["--family", "random", "--seed", "-3"], "seed must be a non-negative integer, got -3"),
    ])
    def test_bad_first_member_leaves_stdout_empty(self, capsys, extra, message):
        assert main(["compare", "--family", "separable", "--count", "3", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_horodecki_ensemble(self, capsys):
        code = main(["compare", "--family", "horodecki", "--count", "3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "flagged totals: ppt=0  reduction=0  realignment=3  grc=3" in text


# The exit code and sha256 of `check --criterion all` stdout, fixed before the
# single-state path was trimmed: every printed statistic, bound and violation
# of the 16 subsets and the three oracles is pinned, at real and complex (a, b).
CHECK_CASES = {
    "random-3x3": (["--builtin", "random", "--seed", "7", "--a", "0.3", "--b", "-0.7"], 1,
                   "bb82247b69ffe4bd7b7f99b99715268b54909c23897a8db7c032a1a9eba60c8e"),
    "random-3x3-origin": (["--builtin", "random", "--seed", "12"], 1,
                          "c9f9918096bfdf1666518ba2c2df293ccc5336a1d7618b078f7a12c52c4cf053"),
    "separable-2x4-complex-a": (["--builtin", "separable", "--m", "2", "--n", "4", "--k", "6",
                                 "--seed", "3", "--a", "0.4", "--a-im", "-0.25", "--b", "-0.5"], 0,
                                "0061fa6a6359602d8e8035da23be5aba4055d0cf3890e2794a3686e43ec4fe4a"),
    "werner-3-f-1": (["--builtin", "werner", "--f", "-1"], 1,
                     "416d986fb35e51b3ce839528281c1e3f77d8724cb5eff5bcde708c2baedec764"),
    "werner-3-f-0.3": (["--builtin", "werner", "--f", "-0.3", "--a", "1",
                        "--b", "-0.3333333333333333"], 1,
                       "804245fd3e986121955f909685e7a47a2251600cff2a0ea12d1500dfa5f3ff9a"),
    "werner-3-f0.5": (["--builtin", "werner", "--f", "0.5", "--a", "0.6666666666666666",
                       "--b", "2"], 0,
                      "9763995efeb65a7c64956976a869a8b271438374b77e5e04a32ad908051046c1"),
    "horodecki-c0.1": (["--builtin", "horodecki", "--c", "0.1"], 1,
                       "b1da4708152dda018a85f0e315cf9bba3fcccd2ae1c23b012a76836da41e0312"),
    "horodecki-c0.5": (["--builtin", "horodecki", "--c", "0.5", "--a", "-1", "--b", "0.5"], 1,
                       "0523f7e0abf7cbdab279e68a347637e6df12082df0ba1ce59f7cf1c963d2b52a"),
    "horodecki-c0.9": (["--builtin", "horodecki", "--c", "0.9", "--a", "1", "--b", "1"], 1,
                       "208c144340b2ca5320b03c642461bf8912a17233dd94077f0af08d0e343551ef"),
}

# float.hex of find_threshold on werner-3 for the benchmark's seven cases,
# (criterion, a, b, yset), each from one fixed bracket (lo, hi).  They change
# with find_threshold's sequence of probes.
THRESHOLD_CASES = (
    ("grc", 0.0, 0.0, "cA,rB", -0.75, 0.5, "-0x1.5555560121cbep-2"),
    ("grc", 0.0, 2.0 / 3.0, "cA,rB", -0.9, 0.3, "-0x1.5555560121cc9p-2"),
    ("grc", 1.0, -1.0 / 3.0, "cA,rB", -0.6, 0.8, "-0x1.555556acee43ep-2"),
    ("grc", 1.0, 1.0, "cA,rB", -0.55, 0.25, "-0x1.555556acee443p-2"),
    ("grc", 0.0, 0.0, "rA,cA", -0.7, 0.9, "-0x1.01b2b26745e80p-26"),
    ("ppt", 0.0, 0.0, "none", -0.8, 0.6, "-0x1.01b2b29bffffcp-25"),
    ("realignment", 0.0, 0.0, "none", -1.0, 1.0, "-0x1.5555560121cc8p-2"),
)


class TestCheckBits:
    @pytest.mark.parametrize("first", ["ppt", "detected"])
    @pytest.mark.parametrize("case", sorted(CHECK_CASES))
    def test_cached_spectra_bit_for_bit(self, case, first):
        from sepscope.cli import _resolve_state
        from sepscope.criteria import AB_TEST_GRID, detected
        from sepscope.gptops import partial_transpose

        state = _resolve_state(build_parser().parse_args(["check", *CHECK_CASES[case][0]])).state
        assert state.spectrum.tobytes() == np.linalg.eigvalsh(state.mat).tobytes()
        want = float(np.linalg.eigvalsh(partial_transpose(state.mat, state.dims))[0]).hex()
        if first == "detected":
            grid = [(complex(a), complex(b)) for a in AB_TEST_GRID for b in AB_TEST_GRID]
            detected(state, grid, all_subsets())
        assert ppt_check(state).statistic.hex() == want
        assert not state.spectrum.flags.writeable and not state.pt_spectrum.flags.writeable

    @pytest.mark.parametrize("case", sorted(CHECK_CASES))
    def test_bytes_unchanged(self, capsys, case):
        argv, code, digest = CHECK_CASES[case]
        assert main(["check", *argv, "--criterion", "all"]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("case", THRESHOLD_CASES,
                             ids=lambda c: f"{c[0]}-{c[1]:g}-{c[2]:g}-{c[3]}")
    def test_thresholds_unchanged(self, case):
        from sepscope import find_threshold

        criterion, a, b, code, lo, hi, want = case
        got = find_threshold("werner-3", a, b, GptOpSet.from_code(code), lo, hi,
                             criterion=criterion)
        assert got.hex() == want


def family_choices(command, option):
    """The choices argparse accepts for one option of one subcommand."""
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    return next(a for a in sub._actions if option in a.option_strings or a.dest == option).choices


class TestFamilies:
    @pytest.mark.parametrize("command,option,expected", [
        ("check", "--builtin", ("werner", "horodecki", "separable", "random")),
        ("gen", "family", ("werner", "horodecki", "separable", "random")),
        ("sweep", "--family", ("werner-3", "horodecki", "file")),
        ("compare", "--family", ("werner-3", "horodecki", "separable", "random")),
    ])
    def test_choices_per_command(self, command, option, expected):
        assert tuple(family_choices(command, option)) == expected

    @pytest.mark.parametrize("family,extra,params", [
        ("werner-3", [], "d=3 f=-1"),
        ("horodecki", [], "c=0.5"),
        ("separable", ["--seed", "5"], "m=3 n=3 k=12 seed=5"),
        ("random", ["--seed", "5"], "m=3 n=3 seed=5"),
    ])
    def test_compare_params_column(self, capsys, family, extra, params):
        assert main(["compare", "--family", family, "--count", "1", *extra]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row[:32] == f"{0:<6} {params:<24} "

    def test_rebound_constructor_is_reached(self, monkeypatch, capsys):
        import sepscope.states as states
        from sepscope import find_threshold, run_sweep
        from sepscope.sweep import GridSpec

        calls = []
        original = states.werner
        monkeypatch.setattr(states, "werner", lambda d, f: calls.append((d, f)) or original(d, f))

        def reached(run):
            calls.clear()
            run()
            return list(calls)

        y = GptOpSet.from_code("cA,rB")
        assert reached(lambda: main(["check", "--builtin", "werner", "--f", "-0.5",
                                     "--criterion", "ppt"])) == [(3, -0.5)]
        assert reached(lambda: main(["compare", "--family", "werner-3", "--count", "2"])) == [
            (3, -1.0), (3, 1.0)]
        assert reached(lambda: run_sweep(GridSpec("werner-3", 0.0, (0.0, 0.0, 1.0),
                                                  (-1.0, 0.0, 1.0), y))) == [(3, -1.0), (3, 0.0)]
        bisection = reached(lambda: find_threshold("werner-3", 0.0, 0.0, y, -1.0, 1.0))
        assert len(bisection) > 2 and all(d == 3 for d, _ in bisection)
        capsys.readouterr()
