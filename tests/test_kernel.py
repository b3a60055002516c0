"""Tests for the batched evaluation kernel: agreement with per-subset
evaluation, complement sharing, the compare workflow, and soundness on
separable states over many orders of magnitude of (a, b)."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepscope import (
    AB_TEST_GRID,
    DensityState,
    GptOpSet,
    GridSpec,
    ReductionParams,
    SubsystemDims,
    all_subsets,
    axis_points,
    bound_for,
    evaluate,
    evaluate_all_Y,
    evaluate_grid,
    horodecki_3x3,
    random_density,
    random_separable,
    run_sweep,
    werner,
)
from sepscope.cli import main
from sepscope.criteria import verdict_blocks

COMPLEX_PARAMS = (
    ReductionParams(0.3 - 0.7j, 1.2 + 0.4j),
    ReductionParams(-2.5 + 1j, 0.05j),
    ReductionParams(1.0, -1.0 / 3.0),
)


def random_state(m, n, seed):
    return DensityState(SubsystemDims(m, n), random_density(m * n, seed))


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 4)])
class TestKernelEquivalence:
    def test_all_y_matches_per_subset_evaluate(self, m, n):
        st_ = random_state(m, n, 10 * m + n)
        for p in COMPLEX_PARAMS:
            for got, y in zip(evaluate_all_Y(st_, p), all_subsets()):
                want = evaluate(st_, p, y)
                assert got.yset == y and got.params == p
                assert got.statistic == pytest.approx(want.statistic, rel=1e-12)
                assert got.bound == want.bound
                assert got.entangled == want.entangled

    def test_complement_pairs_exactly_equal(self, m, n):
        st_ = random_state(m, n, 20 * m + n)
        for p in COMPLEX_PARAMS:
            verdicts = evaluate_all_Y(st_, p)
            for k in range(8):
                # Counter order puts y's complement at 15 - k.
                assert verdicts[k].statistic == verdicts[15 - k].statistic
                assert verdicts[k].bound == verdicts[15 - k].bound
                assert verdicts[k].violation == verdicts[15 - k].violation

    def test_rA_free_subsets_independent_of_request(self, m, n):
        # A subset without rA is the member computed for its class, so its
        # verdict does not depend on what else was requested.
        st_ = random_state(m, n, 40 * m + n)
        for p in COMPLEX_PARAMS:
            for got, y in zip(evaluate_all_Y(st_, p), all_subsets()):
                if not y.rA:
                    assert got == evaluate(st_, p, y)

    def test_stack_slices_equal_batch_of_one(self, m, n):
        st_ = random_state(m, n, 30 * m + n)
        results = {(i, j): v for i, j, v in evaluate_grid(st_, COMPLEX_PARAMS, all_subsets())}
        assert len(results) == len(COMPLEX_PARAMS) * 16
        for i, p in enumerate(COMPLEX_PARAMS):
            for j, verdict in enumerate(evaluate_all_Y(st_, p)):
                assert results[i, j] == verdict


class TestKernelLaziness:
    def test_classes_computed_on_demand(self, monkeypatch):
        import sepscope.criteria as criteria

        transforms = []
        original = criteria.gpt_transform
        monkeypatch.setattr(criteria, "gpt_transform",
                            lambda rho, dims, y: transforms.append(y) or original(rho, dims, y))
        grid = evaluate_grid(random_state(3, 3, 41), COMPLEX_PARAMS, all_subsets())
        first = [next(grid) for _ in range(2 * len(COMPLEX_PARAMS))]
        # The first class is {none, all four flags}: one transform serves both.
        assert {v.yset.code for _, _, v in first} == {"none", "rA,cA,rB,cB"}
        assert [y.code for y in transforms] == ["none"]
        rest = list(grid)
        assert len(rest) == 14 * len(COMPLEX_PARAMS)
        assert len(transforms) == 8


class TestBlocks:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4)])
    def test_bounds_equal_bound_for(self, m, n):
        st_ = random_state(m, n, 50 * m + n)
        subsets = all_subsets()
        served = []
        for block in verdict_blocks(st_, COMPLEX_PARAMS, subsets):
            for j in block.ysets:
                served.append(j)
                for i, p in enumerate(COMPLEX_PARAMS):
                    assert block.bound[i] == bound_for(p, st_.dims, subsets[j]).product
        assert sorted(served) == list(range(16))

    def test_four_factor_vectors_per_call(self, monkeypatch):
        import sepscope.criteria as criteria

        calls = []
        original = criteria.h_factor
        monkeypatch.setattr(criteria, "h_factor",
                            lambda *args: calls.append(args) or original(*args))
        grid = tuple(ReductionParams(a, b) for a in AB_TEST_GRID for b in AB_TEST_GRID)
        blocks = list(verdict_blocks(random_state(3, 3, 3), grid, all_subsets()))
        assert len(blocks) == 8
        # A factor and B factor, each with equal and with unequal flags.
        assert len(calls) == 4 * len(grid)

    def test_flag_rule(self):
        st_ = werner(3, -1.0).state
        for block in verdict_blocks(st_, COMPLEX_PARAMS, all_subsets()):
            for s, b, v, flag in zip(block.statistic, block.bound, block.violation,
                                     block.entangled):
                assert v == max(s - b, 0.0)
                assert flag == (v > 1e-8 * max(1.0, b))


class TestSweepMatchesEvaluate:
    @pytest.mark.parametrize("family,a,code", [
        ("werner-3", 0.0, "cA,rB"),
        ("horodecki", 0.0, "cA,rB"),
        ("werner-3", 0.7, "rA,cB"),
        ("horodecki", 0.7, "rA,cB"),
    ])
    def test_every_record_bit_for_bit(self, family, a, code):
        yset = GptOpSet.from_code(code)
        param_axis = (-1.0, 1.0, 0.25) if family == "werner-3" else (0.1, 0.9, 0.2)
        records = run_sweep(GridSpec(family, a, (-1.0, 1.0, 0.25), param_axis, yset))
        build = (lambda f: werner(3, f)) if family == "werner-3" else horodecki_3x3
        assert len(records) == 9 * (9 if family == "werner-3" else 5)
        for rec in records:
            direct = evaluate(build(rec.family_param).state, ReductionParams(a, rec.b), yset)
            assert (rec.a, rec.yset) == (a, code)
            assert rec.statistic == direct.statistic
            assert rec.bound == direct.bound
            assert rec.violation == direct.violation

    def test_b_axis_split_into_bounded_stacks(self, monkeypatch):
        import sepscope.sweep as sweep

        stacks = []

        def counted(rho, params, ysets):
            stacks.append(len(params))
            return verdict_blocks(rho, params, ysets)

        monkeypatch.setattr(sweep, "STACK_MAPS", 3)
        monkeypatch.setattr(sweep, "verdict_blocks", counted)
        yset = GptOpSet.from_code("rA,cB")
        records = run_sweep(GridSpec("werner-3", 0.7, (-1.0, 0.8, 0.2), (-1.0, 0.0, 1.0), yset))
        assert stacks == [3, 3, 3, 1] * 2
        assert [rec.b for rec in records[:10]] == axis_points(-1.0, 0.8, 0.2)
        for rec in records:
            direct = evaluate(werner(3, rec.family_param).state, ReductionParams(0.7, rec.b), yset)
            assert (rec.statistic, rec.bound, rec.violation) == (
                direct.statistic, direct.bound, direct.violation)


def reference_grc(state):
    """The compare grc column as the per-triple loop it replaced."""
    return any(
        evaluate(state, ReductionParams(a, b), y).entangled
        for a in AB_TEST_GRID for b in AB_TEST_GRID for y in all_subsets()
    )


def compare_grc_column(capsys, argv, count):
    assert main(["compare", *argv, "--count", str(count)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:count + 1]
    return [row.split()[-1] == "Y" for row in rows]


class TestCompareEarlyExit:
    def test_werner_stops_before_eighth_class(self, monkeypatch, capsys):
        import sepscope.criteria as criteria

        transforms = []
        original = criteria.gpt_transform
        monkeypatch.setattr(criteria, "gpt_transform",
                            lambda rho, dims, y: transforms.append(y) or original(rho, dims, y))
        # --count 1 is the single state f = -1.  The fourth class, {rB,cB} and
        # {rA,cA}, holds the partial transpose at (a, b) = (0, 0), which
        # detects it; the four classes after it are never computed.
        assert compare_grc_column(capsys, ["--family", "werner-3"], 1) == [True]
        assert [y.code for y in transforms] == ["none", "cB", "rB", "rB,cB"]


class TestCompareMatchesReference:
    def test_separable(self, capsys):
        got = compare_grc_column(
            capsys, ["--family", "separable", "--m", "2", "--n", "3", "--k", "6", "--seed", "5"], 3)
        dims = SubsystemDims(2, 3)
        assert got == [reference_grc(random_separable(dims, 6, 5 + i).state) for i in range(3)]

    def test_random(self, capsys):
        got = compare_grc_column(capsys, ["--family", "random", "--seed", "9"], 6)
        want = [reference_grc(random_state(3, 3, 9 + i)) for i in range(6)]
        assert got == want

    def test_horodecki(self, capsys):
        got = compare_grc_column(capsys, ["--family", "horodecki"], 3)
        assert got == [reference_grc(horodecki_3x3((i + 1) / 4).state) for i in range(3)]

    def test_werner_mixed_verdicts(self, capsys):
        got = compare_grc_column(capsys, ["--family", "werner-3"], 9)
        want = [reference_grc(werner(3, -1.0 + 0.25 * i).state) for i in range(9)]
        assert got == want
        assert any(want) and not all(want)


def complex_scalar():
    """Complex numbers with magnitude 1e-3..1e5 and any phase."""
    return st.builds(
        lambda exponent, phase: 10.0 ** exponent * cmath.exp(1j * phase),
        st.floats(-3.0, 5.0),
        st.floats(0.0, 2.0 * np.pi),
    )


class TestSeparableSoundnessProperty:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
        terms=st.integers(1, 12),
        seed=st.integers(0, 2**31 - 1),
        a=complex_scalar(),
        b=complex_scalar(),
    )
    def test_no_subset_flags(self, dims, terms, seed, a, b):
        state = random_separable(SubsystemDims(*dims), terms, seed).state
        p = ReductionParams(a, b)
        assert not any(evaluate(state, p, y).entangled for y in all_subsets())
        assert not any(v.entangled for v in evaluate_all_Y(state, p))
