"""Tests for the grid sweep engine, threshold search and emission."""

import csv
import io
import json
import logging
import math
import os
import re
from dataclasses import asdict, replace

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
from sepscope.criteria import ORACLES, flag_margin

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

    @pytest.mark.parametrize("axis,message", [
        ((0.0, float("inf"), 1.0), "axis must be finite, got (start, stop, step) = (0.0, inf, 1.0)"),
        ((0.0, 1.0, float("nan")), "axis must be finite, got (start, stop, step) = (0.0, 1.0, nan)"),
        ((0.0, 1e308, 1e-300), "axis (start, stop, step) = (0.0, 1e+308, 1e-300) has inf points,"
                               " more than 1000000"),
    ], ids=["infinite-stop", "nan-step", "past-float-range"])
    def test_unbuildable_axis_named(self, axis, message):
        # Each once raised a bare OverflowError from int(inf).
        with pytest.raises(ParamOutOfRange, match=f"^{re.escape(message)}$"):
            axis_points(*axis)


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

    def test_takes_no_workers(self):
        # The sweep runs in the calling thread; its old ignored workers
        # parameter is gone.
        spec = GridSpec("werner-3", 0.0, (-1.0, 1.0, 0.5), (-1.0, 1.0, 0.5), REALIGN_Y)
        assert run_sweep(spec) == run_sweep(spec)
        with pytest.raises(TypeError):
            run_sweep(spec, workers=1)

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
        assert len(calls) == 5
        assert all(args[1:] == (ReductionParams(0.0, 0.0), REALIGN_Y) for args in calls)

    # ReductionParams raised a plain ValueError here, while GridSpec raises
    # ParamOutOfRange for the same a.
    @pytest.mark.parametrize("a,b", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
    def test_non_finite_a_or_b_rejected_before_any_state(self, monkeypatch, a, b):
        import sepscope.states as states

        built = []
        monkeypatch.setitem(states.FAMILIES, "werner-3", states.FAMILIES["werner-3"]._replace(
            build=lambda _options, f: built.append(f)))
        with pytest.raises(ParamOutOfRange, match=f"a={a}, b={b}"):
            find_threshold("werner-3", a, b, REALIGN_Y, -1.0, 0.0)
        assert built == []

    @pytest.mark.parametrize("criterion", ["ppt", "realignment"])
    def test_oracles_ignore_a_and_b(self, criterion):
        finite = find_threshold("werner-3", 0.0, 0.0, REALIGN_Y, -1.0, 1.0, criterion=criterion)
        assert find_threshold("werner-3", math.nan, math.inf, REALIGN_Y, -1.0, 1.0,
                              criterion=criterion) == finite

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


# (criterion, a, b, yset, threshold) on werner-3: the four {cA,rB} pairs of
# the acceptance suite, grc at {rA,cA}, and the ppt and realignment oracles.
SEARCH_CASES = [
    ("grc", 0.0, 0.0, "cA,rB", -1 / 3),
    ("grc", 0.0, 2 / 3, "cA,rB", -1 / 3),
    ("grc", 1.0, -1 / 3, "cA,rB", -1 / 3),
    ("grc", 1.0, 1.0, "cA,rB", -1 / 3),
    ("grc", 0.0, 0.0, "rA,cA", 0.0),
    ("ppt", 0.0, 0.0, "none", 0.0),
    ("realignment", 0.0, 0.0, "none", -1 / 3),
]


def linear(f):
    return f


# werner-3 reparametrised by a monotone map of [-1, 1] onto itself, so every
# verdict's margin is curved on both sides, and its inverse.
def quadratic(f):
    return -1.0 + 2.0 * ((f + 1.0) / 2.0) ** 2


def unquadratic(w):
    return 2.0 * math.sqrt((w + 1.0) / 2.0) - 1.0


def searched(criterion, a, b, code, lo, hi, sign=1.0, warp=linear):
    """find_threshold's result on werner-3, its member at f built as
    werner(3, sign * warp(f)), and the family parameters of the states it
    built, in order."""
    import sepscope.states as states

    built = []
    family = states.FAMILIES["werner-3"]._replace(
        build=lambda _options, f: built.append(f) or werner(3, sign * warp(f)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(states.FAMILIES, "werner-3", family)
        result = find_threshold("werner-3", a, b, GptOpSet.from_code(code), lo, hi,
                                criterion=criterion)
    return result, built


def flagged(criterion, a, b, code, f):
    rho = werner(3, f).state
    if criterion == "grc":
        return evaluate(rho, ReductionParams(a, b), GptOpSet.from_code(code)).entangled
    return ORACLES[criterion](rho).entangled


def assert_last_bracket(criterion, a, b, code, result, built, sign=1.0, warp=linear):
    """The last bracket's ends are the nearest probes on either side; they
    are 1e-6 apart at most and have different verdicts."""
    below = max(f for f in built if f < result)
    above = min(f for f in built if f > result)
    assert result == 0.5 * (below + above) and above - below <= 1e-6
    assert (flagged(criterion, a, b, code, sign * warp(below))
            != flagged(criterion, a, b, code, sign * warp(above)))


def n_max_plus_two(lo, hi):
    """The most states a search on (lo, hi) may build: n_max steps, one more
    than bisection, past its two ends."""
    return math.ceil(math.log2((hi - lo) / 1e-6)) + 1 + 2


# grc {rA,cA} at (0, 0): its excess, 2 tr (T_B rho)_-, is exactly 0 on the
# whole PPT side, f >= 0.
FLAT_CASE = SEARCH_CASES[4][:4]


class TestThresholdSearch:
    @pytest.mark.parametrize("criterion,a,b,code,target", SEARCH_CASES)
    @settings(max_examples=25)
    @given(lo=st.floats(-1.0, -0.5), hi=st.floats(0.2, 1.0))
    def test_bracketed_within_bisection_plus_one(self, criterion, a, b, code, target, lo, hi):
        result, built = searched(criterion, a, b, code, lo, hi)
        assert abs(result - target) <= 1e-6
        assert len(built) <= n_max_plus_two(lo, hi)
        assert_last_bracket(criterion, a, b, code, result, built)

    def test_realignment_class_in_few_probes(self):
        # Bisection builds 23 states on this bracket.  The secant is exact
        # from the second flagged probe on; the two probes after it straddle
        # its prediction.
        result, built = searched("grc", 0.0, 0.0, "cA,rB", -1.0, 1.0)
        assert abs(result + 1 / 3) <= 1e-6
        assert len(built) == 6
        assert abs(built[-1] - built[-2]) <= 1e-6

    # The draws of test_bracketed_within_bisection_plus_one, mapped through
    # unquadratic, so the ends are those states to rounding; sign -1 mirrors
    # the family, the flags then on the other side.
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("criterion,a,b,code,target", SEARCH_CASES)
    @settings(max_examples=25)
    @given(lo=st.floats(-1.0, -0.5), hi=st.floats(0.2, 1.0))
    def test_curved_margin_within_bisection_plus_one(self, criterion, a, b, code, target, sign,
                                                     lo, hi):
        lo, hi = sorted((unquadratic(sign * lo), unquadratic(sign * hi)))
        result, built = searched(criterion, a, b, code, lo, hi, sign, quadratic)
        assert abs(result - unquadratic(sign * target)) <= 1e-6
        assert len(built) <= n_max_plus_two(lo, hi)
        assert_last_bracket(criterion, a, b, code, result, built, sign, quadratic)

    @pytest.mark.parametrize("criterion,a,b,code,target", SEARCH_CASES)
    def test_curved_margin_in_few_probes(self, criterion, a, b, code, target):
        # Bisection builds 23 states on this bracket.  Each secant point
        # moves the full 0.45e-6 toward the midpoint, so the two probes after
        # a prediction that close to the flip straddle it.
        result, built = searched(criterion, a, b, code, -1.0, 1.0, warp=quadratic)
        assert abs(result - unquadratic(target)) <= 1e-6
        assert len(built) <= 16
        assert_last_bracket(criterion, a, b, code, result, built, warp=quadratic)

    @pytest.mark.parametrize("warp,unwarp", [(linear, linear), (quadratic, unquadratic)],
                             ids=["linear", "quadratic"])
    @pytest.mark.parametrize("criterion,a,b,code,target", SEARCH_CASES)
    @settings(max_examples=10)
    @given(lo=st.floats(-1.0, -0.5), hi=st.floats(0.2, 1.0))
    def test_probes_strictly_inside_the_bracket(self, criterion, a, b, code, target, warp,
                                                unwarp, lo, hi):
        lo, hi = unwarp(lo), unwarp(hi)
        _, built = searched(criterion, a, b, code, lo, hi, warp=warp)
        assert built[:2] == [lo, hi] and len(set(built)) == len(built)
        flag_lo = flagged(criterion, a, b, code, warp(lo))
        for x in built[2:]:
            assert lo < x < hi
            if flagged(criterion, a, b, code, warp(x)) == flag_lo:
                lo = x
            else:
                hi = x

    def test_flat_side_in_few_probes(self):
        # A step drawn through the flat end lands next to it, and ITP's worst
        # case here is 24 builds; the search takes the midpoint until the
        # flagged side holds two probes.
        result, built = searched(*FLAT_CASE, -1.0, 1.0)
        assert abs(result) <= 1e-6
        assert len(built) <= 12

    # sign -1 mirrors the family: the flat side at lo, the flags at hi.
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @settings(max_examples=25)
    @given(lo=st.floats(-1.0, -0.5), hi=st.floats(0.2, 1.0))
    def test_flat_side_in_few_probes_on_every_bracket(self, sign, lo, hi):
        result, built = searched(*FLAT_CASE, lo, hi, sign)
        assert abs(result) <= 1e-6
        assert len(built) <= 12
        assert_last_bracket(*FLAT_CASE, result, built, sign)

    def test_mirrored_flat_side_converges(self):
        result, built = searched(*FLAT_CASE, -1.0, 1.0, sign=-1.0)
        assert abs(result) <= 1e-6
        assert_last_bracket(*FLAT_CASE, result, built, sign=-1.0)

    def test_flagged_side_without_slope_converges(self, monkeypatch):
        # Two flagged probes with equal margins give the secant no slope;
        # the step takes the midpoint instead of dividing by zero.
        import sepscope.sweep as sweep

        monkeypatch.setattr(sweep, "flag_margin", lambda verdict: 1.0 if verdict.entangled else -1.0)
        result, built = searched("ppt", 0.0, 0.0, "none", -1.0, 1.0)
        assert abs(result) <= 1e-6
        assert len(built) <= n_max_plus_two(-1.0, 1.0)
        assert_last_bracket("ppt", 0.0, 0.0, "none", result, built)

    @pytest.mark.parametrize("lo,hi", [(-math.inf, 0.0), (-1.0, math.inf), (-2.0, 0.0)])
    def test_rejected_end_raises_before_the_search(self, lo, hi):
        # The step bound is taken only once both ends are built, so an end the
        # family rejects raises the family's own error, an infinite one too.
        with pytest.raises(ParamOutOfRange, match="Werner parameter must lie in"):
            find_threshold("werner-3", 0.0, 0.0, REALIGN_Y, lo, hi)


class TestThresholdLog:
    def test_silent_by_default(self):
        assert any(isinstance(handler, logging.NullHandler)
                   for handler in logging.getLogger("sepscope").handlers)

    def test_one_record_per_built_state(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="sepscope"):
            _, built = searched("grc", 0.0, 0.0, "cA,rB", -1.0, 1.0)
        records = [record for record in caplog.records if record.name == "sepscope.sweep"]
        assert [record.args[0] for record in records] == built
        for record, f in zip(records, built):
            verdict = evaluate(werner(3, f).state, ReductionParams(0.0, 0.0), REALIGN_Y)
            assert record.levelno == logging.DEBUG
            assert record.args[1:] == (verdict.entangled, flag_margin(verdict))

    def test_results_unchanged_with_debug_on(self, caplog):
        def thresholds():
            return [repr(find_threshold("werner-3", 0.0, 0.0, REALIGN_Y, -0.9, 0.7,
                                        criterion=criterion))
                    for criterion in ("grc", "ppt", "realignment")]

        off = thresholds()
        with caplog.at_level(logging.DEBUG, logger="sepscope"):
            on = thresholds()
        assert on == off and caplog.records


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

    # json.dump(indent=1) would spread a list or an object over several lines.
    @pytest.mark.parametrize("value", [[], [0.5], (0.5, 1.0), {}, {"re": 0.5}])
    @pytest.mark.parametrize("index,field", [(0, "family_param"), (-1, "yset")])
    def test_json_rejects_list_or_dict_field(self, tmp_path, value, index, field):
        records = self.sample_records() * 2
        records[index] = replace(records[index], **{field: value})
        with pytest.raises(TypeError, match="not lists or objects"):
            emit(records, "json", tmp_path / "new")
        assert os.listdir(tmp_path) == []
        old = tmp_path / "old"
        old.write_bytes(b"previous bytes")
        with pytest.raises(TypeError, match="not lists or objects"):
            emit(records, "json", old)
        assert os.listdir(tmp_path) == ["old"]
        assert old.read_bytes() == b"previous bytes"

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


# The 16 codes, and any text a UTF-8 file can hold: quotes, commas, line
# breaks and non-ASCII go through csv's quoting and json's string escapes.
YSET = st.one_of(st.sampled_from([y.code for y in all_subsets()]),
                 st.text(st.characters(exclude_categories=("Cs",))))


def records_of(values):
    return st.builds(SweepRecord, family_param=values, a=values, b=values, yset=YSET,
                     statistic=values, bound=values, violation=values)


# Lists of finite floats only, and lists that mix in ints, bools and
# non-finite floats.
RECORDS = st.one_of(st.lists(records_of(FINITE), min_size=1, max_size=6),
                    st.lists(st.one_of(records_of(FINITE), records_of(VALUE)),
                             min_size=1, max_size=6))


class TestEmitProperty:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=RECORDS)
    def test_bytes_match_reference_formulas(self, tmp_path, records):
        expected_json, expected_csv = reference_bytes(records)
        emit(records, "json", tmp_path / "out.json")
        emit(records, "csv", tmp_path / "out.csv")
        assert (tmp_path / "out.json").read_bytes() == expected_json
        assert (tmp_path / "out.csv").read_bytes() == expected_csv

    @settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
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
