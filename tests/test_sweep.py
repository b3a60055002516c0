"""Tests for the grid sweep engine, threshold bisection and emission."""

import csv
import io
import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sepscope import (
    GptOpSet,
    GridSpec,
    NoSignChange,
    ParamOutOfRange,
    ReductionParams,
    SweepRecord,
    all_subsets,
    axis_points,
    emit,
    evaluate,
    find_threshold,
    load_records,
    run_sweep,
    save_state,
    werner,
)

REALIGN_Y = GptOpSet(cA=True, rB=True)


class TestAxisPoints:
    def test_exact_multiple_hits_stop(self):
        pts = axis_points(-1.0, 1.0, 0.05)
        assert len(pts) == 41
        assert pts[0] == -1.0 and pts[-1] == 1.0

    def test_single_point(self):
        assert axis_points(0.3, 0.3, 0.1) == [0.3]

    def test_non_multiple_stays_below_stop(self):
        pts = axis_points(0.0, 1.0, 0.3)
        assert pts == pytest.approx([0.0, 0.3, 0.6, 0.9])

    def test_rejects_bad_axis(self):
        with pytest.raises(ParamOutOfRange):
            axis_points(0.0, 1.0, 0.0)
        with pytest.raises(ParamOutOfRange):
            axis_points(1.0, 0.0, 0.1)


class TestRunSweep:
    def test_werner_known_violations(self):
        spec = GridSpec("werner-3", 0.0, (0.0, 0.0, 1.0), (-1.0, 1.0, 0.5), REALIGN_Y)
        records = run_sweep(spec)
        got = [rec.violation for rec in records]
        np.testing.assert_allclose(got, [2 / 3, 1 / 6, 0.0, 0.0, 0.0], atol=1e-12)

    def test_equivalent_b_columns_for_a_one(self):
        lo = run_sweep(GridSpec("werner-3", 1.0, (-1 / 3, -1 / 3, 1.0), (-1.0, 1.0, 0.25), REALIGN_Y))
        hi = run_sweep(GridSpec("werner-3", 1.0, (1.0, 1.0, 1.0), (-1.0, 1.0, 0.25), REALIGN_Y))
        np.testing.assert_allclose(
            [rec.violation for rec in lo], [rec.violation for rec in hi], atol=1e-9
        )

    def test_symmetry_regression_b_zero_vs_two_thirds(self):
        lo = run_sweep(GridSpec("werner-3", 0.0, (0.0, 0.0, 1.0), (-1.0, 1.0, 0.1), REALIGN_Y))
        hi = run_sweep(GridSpec("werner-3", 0.0, (2 / 3, 2 / 3, 1.0), (-1.0, 1.0, 0.1), REALIGN_Y))
        np.testing.assert_allclose(
            [rec.violation for rec in lo], [rec.violation for rec in hi], atol=1e-9
        )

    def test_horodecki_all_detected_at_b_zero(self):
        spec = GridSpec("horodecki", 0.0, (0.0, 0.0, 1.0), (0.1, 0.9, 0.1), REALIGN_Y)
        records = run_sweep(spec)
        assert len(records) == 9
        assert all(rec.violation > 1e-8 for rec in records)

    def test_records_match_direct_evaluate(self):
        spec = GridSpec("werner-3", 0.35, (-0.4, 0.6, 0.25), (-1.0, 0.0, 0.2), REALIGN_Y)
        records = run_sweep(spec)
        rng = np.random.default_rng(77)
        for idx in rng.choice(len(records), size=10, replace=False):
            rec = records[idx]
            direct = evaluate(
                werner(3, rec.family_param).state, ReductionParams(rec.a, rec.b), REALIGN_Y
            )
            assert rec.statistic == direct.statistic
            assert rec.bound == direct.bound
            assert rec.violation == direct.violation

    def test_grid_order_param_major(self):
        spec = GridSpec("werner-3", 0.0, (0.0, 0.5, 0.5), (-1.0, -0.5, 0.5), REALIGN_Y)
        records = run_sweep(spec)
        assert [(rec.family_param, rec.b) for rec in records] == [
            (-1.0, 0.0), (-1.0, 0.5), (-0.5, 0.0), (-0.5, 0.5),
        ]

    def test_parallel_matches_serial(self):
        spec = GridSpec("werner-3", 0.0, (-1.0, 1.0, 0.5), (-1.0, 1.0, 0.5), REALIGN_Y)
        assert run_sweep(spec, workers=4) == run_sweep(spec, workers=1)

    def test_file_family(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(werner(3, -1.0), path)
        spec = GridSpec("file", 0.0, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0), REALIGN_Y, path=str(path))
        records = run_sweep(spec)
        assert records[0].violation == pytest.approx(2 / 3, abs=1e-12)

    def test_out_of_range_family_param(self):
        spec = GridSpec("werner-3", 0.0, (0.0, 0.0, 1.0), (-2.0, 1.0, 0.5), REALIGN_Y)
        with pytest.raises(ParamOutOfRange):
            run_sweep(spec)

    def test_unknown_family(self):
        spec = GridSpec("isotropic", 0.0, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0), REALIGN_Y)
        with pytest.raises(ParamOutOfRange):
            run_sweep(spec)


class TestGridLimit:
    def test_limit_reached_exactly_is_accepted(self):
        # 1000 x 1000 points; only counted, never built.
        GridSpec("werner-3", 0.0, (0.0, 999.0, 1.0), (-1.0, 0.998, 0.002), REALIGN_Y)

    @pytest.mark.parametrize("b_axis,param_axis,sizes", [
        ((-1.0, 1.0, 1e-9), (0.0, 0.0, 1.0), "1 family parameter x 2000000000 b"),
        ((0.0, 1000.0, 1.0), (-1.0, 0.998, 0.002), "1000 family parameter x 1001 b"),
        ((-1e308, 1e308, 1.0), (-1.0, 1.0, 0.5), "5 family parameter x inf b"),
    ], ids=["b-axis", "product", "past-float-range"])
    def test_oversized_grid_rejected_without_building(self, monkeypatch, b_axis, param_axis,
                                                      sizes):
        import sepscope.sweep as sweep

        monkeypatch.setattr(sweep, "axis_points", lambda *axis: pytest.fail("axis built"))
        with pytest.raises(ParamOutOfRange,
                           match=f"^grid of {sizes} points exceeds 1000000 points$"):
            GridSpec("werner-3", 0.0, b_axis, param_axis, REALIGN_Y)

    @pytest.mark.parametrize("axis", [(-1.0, 1.0, 0.05), (0.0, 1.0, 0.3), (0.3, 0.3, 0.1),
                                      (0.05, 0.95, 0.05), (-1.0, 0.998, 0.002)])
    def test_count_matches_axis_points(self, axis):
        from sepscope.sweep import _axis_size

        assert _axis_size(*axis) == len(axis_points(*axis))


class TestFindThreshold:
    def test_realignment_boundary(self):
        thr = find_threshold("werner-3", 0.0, 0.0, REALIGN_Y, -1.0, 0.0)
        assert abs(thr - (-1.0 / 3.0)) <= 1e-6

    def test_ppt_boundary(self):
        thr = find_threshold("werner-3", 0.0, 0.0, REALIGN_Y, -1.0, 1.0, criterion="ppt")
        assert abs(thr) <= 1e-6

    def test_realignment_oracle_boundary(self):
        thr = find_threshold("werner-3", 0.0, 0.0, REALIGN_Y, -1.0, 0.0, criterion="realignment")
        assert abs(thr - (-1.0 / 3.0)) <= 1e-6

    def test_unknown_criterion(self):
        with pytest.raises(ParamOutOfRange, match="'nope'"):
            find_threshold("werner-3", 0.0, 0.0, REALIGN_Y, -1.0, 0.0, criterion="nope")

    def test_unknown_criterion_before_bad_lo(self):
        with pytest.raises(ParamOutOfRange, match="'nope'"):
            find_threshold("werner-3", 0.0, 0.0, REALIGN_Y, -2.0, 0.0, criterion="nope")

    def test_evaluate_looked_up_when_called(self, monkeypatch):
        import sepscope.sweep as sweep

        calls = []
        monkeypatch.setattr(sweep, "evaluate", lambda *args: calls.append(args) or evaluate(*args))
        find_threshold("werner-3", 0.0, 0.0, REALIGN_Y, -1.0, 0.0)
        assert len(calls) == 22
        assert all(args[1:] == (ReductionParams(0.0, 0.0), REALIGN_Y) for args in calls)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_threshold("werner-3", 0.0, 0.0, REALIGN_Y, 0.1, 0.9)

    # A reversed bracket never entered the bisection loop and returned its
    # midpoint, -0.5, for a boundary at -1/3; NaN compared the same way.
    @pytest.mark.parametrize("criterion", ["grc", "ppt"])
    @pytest.mark.parametrize("lo,hi", [(0.0, -1.0), (-0.5, -0.5), (float("nan"), 0.0),
                                       (-1.0, float("nan"))])
    def test_bracket_needs_lo_below_hi(self, monkeypatch, criterion, lo, hi):
        import sepscope.states as states

        built = []
        monkeypatch.setattr(states, "werner", lambda *args: built.append(args))
        with pytest.raises(ParamOutOfRange, match=f"lo={lo}, hi={hi}"):
            find_threshold("werner-3", 0.0, 0.0, REALIGN_Y, lo, hi, criterion=criterion)
        assert built == []


def reference_bytes(records):
    """emit's two formats by the formulas it must match byte for byte:
    json.dump with indent 1, and csv.writer with floats to 17 digits."""
    expected_json = io.StringIO()
    json.dump([asdict(rec) for rec in records], expected_json, indent=1)
    expected_json.write("\n")
    expected_csv = io.StringIO(newline="")
    writer = csv.writer(expected_csv)
    writer.writerow(("family_param", "a", "b", "yset", "statistic", "bound", "violation"))
    fmt = lambda value: format(float(value), ".17g")  # noqa: E731
    for rec in records:
        writer.writerow([fmt(rec.family_param), fmt(rec.a), fmt(rec.b), rec.yset,
                         fmt(rec.statistic), fmt(rec.bound), fmt(rec.violation)])
    return expected_json.getvalue().encode(), expected_csv.getvalue().encode()


class TestEmit:
    @staticmethod
    def sample_records():
        spec = GridSpec("werner-3", 0.0, (0.0, 0.0, 1.0), (-1.0, -0.5, 0.5), REALIGN_Y)
        return run_sweep(spec)

    def test_csv_layout(self, tmp_path):
        records = self.sample_records()
        path = tmp_path / "out.csv"
        emit(records, "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "family_param,a,b,yset,statistic,bound,violation"
        reader = list(csv.DictReader(lines))
        assert reader[0]["yset"] == "cA,rB"
        assert float(reader[0]["violation"]) == records[0].violation
        # 17 significant digits survive the round trip exactly
        assert float(reader[0]["statistic"]) == records[0].statistic

    def test_json_round_trip(self, tmp_path):
        records = self.sample_records()
        path = tmp_path / "out.json"
        emit(records, "json", path)
        assert load_records(path) == records

    def test_bytes_match_reference_formulas(self, tmp_path):
        records = self.sample_records() + [
            SweepRecord(-0.0, 0.0, -0.0, "rA,cA,rB", 0.0, -0.0, 0.0),
            SweepRecord(1e-300, 2.5e22, -1.0 / 3.0, "none", 1.2345678901234567e-7,
                        6.02214076e23, 1e-5),
        ]
        expected_json, expected_csv = reference_bytes(records)
        emit(records, "json", tmp_path / "out.json")
        emit(records, "csv", tmp_path / "out.csv")
        assert (tmp_path / "out.json").read_bytes() == expected_json
        csv_bytes = (tmp_path / "out.csv").read_bytes()
        assert csv_bytes == expected_csv
        # The comma in a yset code is quoted, -0.0 keeps its sign and tiny or
        # huge values keep their exponent.
        assert b'"cA,rB"' in csv_bytes and b'\r\n-0,0,-0,"rA,cA,rB",0,-0,0\r\n' in csv_bytes
        assert b"\r\n1e-300,2.4999999999999998e+22," in csv_bytes and b",1.0000000000000001e-05\r\n" in csv_bytes
        assert b'"b": -0.0' in (tmp_path / "out.json").read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "csv", tmp_path / "never.csv")

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_generator_matches_list(self, tmp_path, format):
        records = self.sample_records()
        emit(records, format, tmp_path / "list")
        emit((rec for rec in records), format, tmp_path / "generator")
        assert (tmp_path / "generator").read_bytes() == (tmp_path / "list").read_bytes()

    @pytest.mark.parametrize("format", ["csv", "json", "xml"])
    def test_empty_generator_rejected_before_any_file(self, tmp_path, format):
        with pytest.raises(ValueError, match="empty"):
            emit(iter(()), format, tmp_path / "never")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_failure_partway_leaves_path_as_it_was(self, tmp_path, format):
        records = self.sample_records()

        def failing():
            yield from records * 2000  # past one write batch
            raise ParamOutOfRange("stack 2 failed")

        with pytest.raises(ParamOutOfRange, match="stack 2 failed"):
            emit(failing(), format, tmp_path / "new")
        assert os.listdir(tmp_path) == []
        old = tmp_path / "old"
        old.write_bytes(b"previous bytes")
        old.chmod(0o640)
        with pytest.raises(ParamOutOfRange, match="stack 2 failed"):
            emit(failing(), format, old)
        assert os.listdir(tmp_path) == ["old"]
        assert old.read_bytes() == b"previous bytes"
        emit(records, format, old)
        assert os.listdir(tmp_path) == ["old"]
        assert old.stat().st_mode & 0o777 == 0o640

    def test_symlink_written_through(self, tmp_path):
        records = self.sample_records()
        target = tmp_path / "target.csv"
        target.write_text("old")
        (tmp_path / "link.csv").symlink_to(target)
        emit(records, "csv", tmp_path / "link.csv")
        assert (tmp_path / "link.csv").is_symlink()
        emit(records, "csv", tmp_path / "plain.csv")
        assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit(self.sample_records(), "xml", tmp_path / "never.xml")

    def test_io_error_propagates(self, tmp_path):
        path = tmp_path / "missing" / "deep.csv"
        with pytest.raises(OSError) as info:
            emit(self.sample_records(), "csv", path)
        assert str(info.value) == f"[Errno 2] No such file or directory: {str(path)!r}"


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308]),
    st.builds(np.float64, st.floats(allow_nan=False, allow_infinity=False)),
)
VALUE = st.one_of(
    FINITE,
    st.integers(-10**300, 10**300),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)]),
)


def records_of(values):
    return st.builds(SweepRecord, family_param=values, a=values, b=values,
                     yset=st.sampled_from([y.code for y in all_subsets()]),
                     statistic=values, bound=values, violation=values)


# Lists of finite floats only, which the format templates write, and lists
# that mix in values json's and csv's own encoders must write.
RECORDS = st.one_of(st.lists(records_of(FINITE), min_size=1, max_size=6),
                    st.lists(st.one_of(records_of(FINITE), records_of(VALUE)),
                             min_size=1, max_size=6))


class TestEmitProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=RECORDS)
    def test_bytes_match_reference_formulas(self, tmp_path, records):
        expected_json, expected_csv = reference_bytes(records)
        emit(records, "json", tmp_path / "out.json")
        emit(records, "csv", tmp_path / "out.csv")
        assert (tmp_path / "out.json").read_bytes() == expected_json
        assert (tmp_path / "out.csv").read_bytes() == expected_csv

    @settings(max_examples=20, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=RECORDS, repeats=st.integers(200, 1100))
    def test_batches_match_reference_formulas(self, tmp_path, records, repeats):
        # Long enough to span several write batches.
        records = records * repeats
        expected_json, expected_csv = reference_bytes(records)
        emit(iter(records), "json", tmp_path / "out.json")
        emit(iter(records), "csv", tmp_path / "out.csv")
        assert (tmp_path / "out.json").read_bytes() == expected_json
        assert (tmp_path / "out.csv").read_bytes() == expected_csv


class TestRecordInvariant:
    def test_violation_definition(self):
        records = run_sweep(
            GridSpec("werner-3", 0.0, (-1.0, 1.0, 0.5), (-1.0, 1.0, 0.5), REALIGN_Y)
        )
        for rec in records:
            assert rec.violation == max(rec.statistic - rec.bound, 0.0)
        assert isinstance(records[0], SweepRecord)
