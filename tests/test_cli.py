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
    evaluate,
    horodecki_3x3,
    load_state,
    ppt_check,
    werner,
)
from sepscope.cli import build_parser, main
from sepscope.errors import ParamOutOfRange

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports sepscope from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env,
                          timeout=120)


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

    def test_unknown_yset_exits_two(self, capsys):
        assert main(["check", "--builtin", "werner", "--yset", "qZ"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["check", "--file", str(tmp_path / "nope.json")]) == 2

    def test_out_of_range_param_exits_two(self):
        assert main(["check", "--builtin", "werner", "--f", "2.0"]) == 2

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
    ], ids=["b-stop-inf", "b-start-nan", "param-stop-nan", "param-step-inf"])
    def test_non_finite_axis_exits_two(self, tmp_path, capsys, option, value, axis):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--family", "werner-3", option, value, "--out", str(out)])
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


class TestCompare:
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

    def test_horodecki_ensemble(self, capsys):
        code = main(["compare", "--family", "horodecki", "--count", "3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "flagged totals: ppt=0  reduction=0  realignment=3  grc=3" in text


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
