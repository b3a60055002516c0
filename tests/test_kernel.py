"""Tests for the batched evaluation kernel: agreement with per-subset
evaluation, complement sharing, the compare workflow, and soundness on
separable states over many orders of magnitude of (a, b)."""

import cmath
import contextlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    evaluate,
    evaluate_all_Y,
    h_factor,
    horodecki_3x3,
    random_density,
    random_separable,
    random_unitary,
    run_sweep,
    werner,
)
from sepscope.cli import main
from sepscope.criteria import (
    _SCALAR_BOUND,
    TOL_VERDICT,
    _bound_table,
    _map_coefficients,
    _ppt_clears,
    _reduction_clears,
    _split_settles,
    detected,
    flag_margin,
    ppt_check,
    realignment_check,
    reduction_check,
    reduction_maps,
    verdict_blocks,
)
from sepscope.errors import NotHermitian, ParamOutOfRange
from sepscope.gptops import PARTIAL_TRANSPOSE_Y, gpt_transform, partial_transpose, realign
from sepscope.matlin import kron, partial_trace, trace_norm
from sepscope.states import FAMILIES, Family, LabeledState, random_density_state

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
        # Every class is computed from its member without rA, so no subset's
        # verdict depends on what else was requested, down to the last bit.
        st_ = random_state(m, n, 40 * m + n)
        for p in COMPLEX_PARAMS:
            for got, y in zip(evaluate_all_Y(st_, p), all_subsets()):
                assert got == evaluate(st_, p, y)

    def test_stack_slices_equal_batch_of_one(self, m, n):
        # Entry i of a block over a stack of params has the bits of the
        # batch of params[i] alone.
        st_ = random_state(m, n, 30 * m + n)
        singles = [evaluate_all_Y(st_, p) for p in COMPLEX_PARAMS]
        served = []
        for block in verdict_blocks(st_, COMPLEX_PARAMS, all_subsets()):
            served += block.ysets
            for j in block.ysets:
                for i, verdict in enumerate(verdicts[j] for verdicts in singles):
                    assert (verdict.statistic, verdict.bound, verdict.violation,
                            verdict.entangled) == (block.statistic[i], block.bound[i],
                                                   block.violation[i], block.entangled[i])
        assert sorted(served) == list(range(16))


class TestKernelLaziness:
    def test_classes_computed_on_demand(self, monkeypatch):
        import sepscope.criteria as criteria

        transforms = []
        original = criteria.gpt_transform
        monkeypatch.setattr(criteria, "gpt_transform",
                            lambda rho, dims, y: transforms.append(y) or original(rho, dims, y))
        state, subsets = random_state(3, 3, 41), all_subsets()
        blocks = verdict_blocks(state, COMPLEX_PARAMS, subsets)
        first = next(blocks)
        # The first class is {none, all four flags}: one transform serves both.
        assert {subsets[j].code for j in first.ysets} == {"none", "rA,cA,rB,cB"}
        assert [y.code for y in transforms] == ["none"]
        rest = list(blocks)
        assert sum(len(block.ysets) for block in rest) == 14
        assert len(transforms) == 8
        # evaluate_all_Y takes the same 8 transforms for its 16 verdicts.
        transforms.clear()
        assert len(evaluate_all_Y(state, COMPLEX_PARAMS[0])) == 16
        assert len(transforms) == 8


class TestBlocks:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4)])
    def test_bounds_equal_h_factor_product(self, m, n):
        st_ = random_state(m, n, 50 * m + n)
        subsets = all_subsets()
        served = []
        for block in verdict_blocks(st_, COMPLEX_PARAMS, subsets):
            for j in block.ysets:
                served.append(j)
                y = subsets[j]
                for i, p in enumerate(COMPLEX_PARAMS):
                    assert block.bound[i] == (h_factor(p.a, m, y.rA, y.cA)
                                              * h_factor(p.b, n, y.rB, y.cB))
        assert sorted(served) == list(range(16))

    def test_factors_once_per_side_and_flags(self, monkeypatch):
        import sepscope.criteria as criteria

        values = []
        original = criteria._factor
        monkeypatch.setattr(criteria, "_factor",
                            lambda x, dim, same: values.append(x) or original(x, dim, same))
        # compare's grid: each side's list with flags equal and unequal, so
        # four lists for the eight classes.
        _bound_table.cache_clear()
        _bound_table(COMPARE_GRID, SubsystemDims(3, 3), all_subsets())
        assert len(COMPARE_GRID) == 36 and len(values) == 4 * 36
        # A sweep stack: a constant a and a 41-point b axis, one list a side.
        values.clear()
        stack = tuple((0.7 + 0j, complex(b)) for b in axis_points(-1.0, 1.0, 0.05))
        _bound_table(stack, SubsystemDims(3, 3), (GptOpSet.from_code("rA,cB"),))
        assert values == [a for a, _ in stack] + [b for _, b in stack]

    def test_requested_rA_free_subset_is_its_member(self):
        subsets = all_subsets()
        # Counter order reversed: each class is first requested through its
        # member with rA, then through the one without.
        codes, owner, _ = _bound_table(COMPLEX_PARAMS, SubsystemDims(2, 3), subsets[::-1])
        for c, code in enumerate(codes.tolist()):
            served = np.flatnonzero(owner == c).tolist()
            assert subsets[code] is subsets[15 - served[1]]
        (code,), *_ = _bound_table(COMPLEX_PARAMS, SubsystemDims(2, 3),
                                   (GptOpSet.from_code("rA,cB"),))
        assert subsets[code] == GptOpSet.from_code("cA,rB")

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

    def test_builds_no_reduction_params(self, monkeypatch):
        import sepscope.sweep as sweep

        # The kernel reads plain (a, b) pairs, whose values GridSpec checked.
        built = []
        original = ReductionParams.__post_init__
        monkeypatch.setattr(ReductionParams, "__post_init__",
                            lambda self: built.append(self) or original(self))
        monkeypatch.setattr(sweep, "STACK_MAPS", 3)
        yset = GptOpSet.from_code("rA,cB")
        records = run_sweep(GridSpec("werner-3", 0.7, (-1.0, 0.8, 0.2), (-1.0, 0.0, 1.0), yset))
        assert len(records) == 20
        assert built == []


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


# compare's grid: every (a, b) of AB_TEST_GRID, a major.
COMPARE_GRID = tuple(ReductionParams(a, b) for a in AB_TEST_GRID for b in AB_TEST_GRID)

# The corners (a, b) in {0, 1}^2, in the order of Theorem 1's bilinear
# split, and the two Hermitian classes whose pairs they bound.
CORNERS = ((0j, 0j), (1 + 0j, 0j), (0j, 1 + 0j), (1 + 0j, 1 + 0j))
HERMITIAN_CLASSES = (GptOpSet(), GptOpSet(rB=True, cB=True))

# The mixed classes, which screen 3 decides, and the realignment class of
# screen 4.
MIXED_CLASSES = (GptOpSet(cB=True), GptOpSet(rB=True), GptOpSet(cA=True),
                 GptOpSet(cA=True, rB=True, cB=True))
REALIGNMENT = GptOpSet(cA=True, rB=True)
FROBENIUS = GptOpSet(cA=True, cB=True)


@contextlib.contextmanager
def seen_trace_norms(record):
    """Call record(mat) before every trace norm sepscope takes: criteria's,
    of the maps and the realignment oracle's matrix, and matlin's, of the
    residual a state caches."""
    import sepscope.criteria as criteria
    import sepscope.matlin as matlin

    def traced(mat):
        record(mat)
        return trace_norm(mat)

    criteria.trace_norm = matlin.trace_norm = traced
    try:
        yield
    finally:
        criteria.trace_norm = matlin.trace_norm = trace_norm


def trace_norm_shapes(decide):
    """decide()'s outcome and the stack shapes it takes trace norms of, a
    single matrix as ()."""
    shapes = []
    with seen_trace_norms(lambda mat: shapes.append(np.shape(mat)[:-2])):
        return outcome(decide), shapes


def svd_shapes(state, params, ysets):
    """The stack shapes detected takes trace norms of, asserting that it
    answers as the full path."""
    flagged, maps = trace_norm_shapes(lambda: detected(state, params, ysets))
    assert flagged == full_path(state, params, ysets)
    return maps


def stacks_built(state, params, ysets):
    """How many reduction_maps stacks detected builds, asserting that it
    answers as the full path."""
    import sepscope.criteria as criteria

    stacks = []
    original = criteria.reduction_maps
    criteria.reduction_maps = lambda rho, pairs: stacks.append(rho) or original(rho, pairs)
    try:
        flagged = detected(state, params, ysets)
    finally:
        criteria.reduction_maps = original
    assert flagged == full_path(state, params, ysets)
    return len(stacks)


class TestCompareEarlyExit:
    def test_werner_stops_before_eighth_class(self, monkeypatch):
        import sepscope.criteria as criteria

        transforms = []
        original = criteria.gpt_transform
        monkeypatch.setattr(criteria, "gpt_transform",
                            lambda rho, dims, y: transforms.append(y) or original(rho, dims, y))
        # The state f = -1 on compare's grid.  It is NPT, so screen 3 fails
        # and the first class, none, takes its pairs through one transform
        # and an SVD, which flags none of them (the state passes the
        # reduction criterion).  The second and third classes, {cB} and
        # {rB}, take one transform each and flag nothing.  The fourth,
        # {rB,cB} and {rA,cA}, takes its pairs through one transform and the
        # SVD, which detects it at (0, 0), the partial transpose; the four
        # classes after it are never computed.
        assert detected(werner(3, -1.0).state, COMPARE_GRID, all_subsets())
        assert [y.code for y in transforms] == ["none", "cB", "rB", "rB,cB"]

    @pytest.mark.parametrize("argv,count,calls", [
        (["--family", "werner-3"], 1, 0),  # f = -1: NPT, so its PPT flag is grc's
        # PPT entangled, and flagged by realignment far past its flag line,
        # so the realignment flag is grc's and detected decides none.
        (["--family", "horodecki"], 2, 0),
    ], ids=["werner-npt", "horodecki-ppt"])
    def test_detected_runs_only_on_ppt_states(self, monkeypatch, capsys, argv, count, calls):
        import sepscope.cli as cli

        states = []
        original = cli.detected
        monkeypatch.setattr(cli, "detected",
                            lambda rho, params, ysets: states.append(rho) or original(rho, params, ysets))
        assert compare_grc_column(capsys, argv, count) == [True] * count
        assert len(states) == calls

    def test_separable_takes_its_reductions_once(self, monkeypatch, capsys):
        import sepscope.matlin as matlin

        sides = []
        original = matlin.partial_trace
        monkeypatch.setattr(matlin, "partial_trace",
                            lambda rho, side: sides.append(side) or original(rho, side))
        # reduction_maps, the product-residual split and the reduction oracle
        # all read the state's one pair.
        assert compare_grc_column(capsys, ["--family", "separable"], 1) == [False]
        assert sides == ["B", "A"]

    def test_separable_takes_fewer_svds(self, capsys):
        # The state of seed 0 (3x3, k = 12).  Its T_A rho is positive
        # definite, so ZZZG's residual, a single matrix, goes first; screen
        # 4 settles, which clears the realignment column (Theorem 7), so
        # the oracle's SVD is not taken.  The full path would take stacks
        # of 36 maps in each of the 8 classes, 288 maps in all.  Screen 3,
        # PPT, and screen 4, ZZZG, which settles the Frobenius class too,
        # leave none, and no map is built.
        maps = []
        with seen_trace_norms(lambda mat: maps.append(np.shape(mat)[:-2])):
            assert compare_grc_column(capsys, ["--family", "separable"], 1) == [False]
        assert maps == [()]


# detected's trace-norm maps per state on compare's grid with all 16
# subsets, a single matrix counting one, as this kernel takes them: upper
# bounds, so a change that weakens a screen fails here, not only in the
# benchmark.  Each corpus is built from its index i < 20.  A Horodecki
# state, which compare no longer sends to detected (its realignment flag
# is grc's), takes ZZZG's residual and the realignment class's stack of 36,
# which flags before the Frobenius class is reached.
SVD_MAPS = {
    "separable-k12-3x3": (lambda i: random_separable(SubsystemDims(3, 3), 12, i).state, [1] * 20),
    "separable-k1-3x3": (lambda i: random_separable(SubsystemDims(3, 3), 1, i).state, [1] * 20),
    "horodecki": (lambda i: horodecki_3x3((i + 1) / 21).state, [37] * 20),
}


class TestSvdTripwire:
    @pytest.mark.parametrize("corpus", sorted(SVD_MAPS))
    def test_maps_per_state_at_most_pinned(self, corpus):
        build, pinned = SVD_MAPS[corpus]
        got = [sum(shape[0] if shape else 1 for shape in svd_shapes(build(i), COMPARE_GRID,
                                                                    all_subsets()))
               for i in range(len(pinned))]
        assert [g <= p for g, p in zip(got, pinned)] == [True] * len(pinned), got


# reduction_maps stacks per detected call on the same corpora and grid: a
# checked separable state settles every class from its state-level scalars
# and builds none, a Horodecki state one, for the realignment pairs that
# ZZZG leaves open.  A change that builds the maps again fails here.
STACKS = {"separable-k12-3x3": 0, "separable-k1-3x3": 0, "horodecki": 1}


class TestStackTripwire:
    @pytest.mark.parametrize("corpus", sorted(SVD_MAPS))
    def test_stacks_per_state_at_most_pinned(self, corpus):
        build, pinned = SVD_MAPS[corpus]
        got = [stacks_built(build(i), COMPARE_GRID, all_subsets()) for i in range(len(pinned))]
        assert max(got) <= STACKS[corpus], got


# compare's traffic into detected for each built-in family, the default
# 3x3 unless given: at most this many detected calls over the run, and at
# most this many trace-norm maps in any one call.  The benchmark runs only
# the separable and random ensembles, so a change that sends more states to
# detected, or more maps to the SVD, fails here first.  A member whose T_A
# rho is positive definite past TOL_VERDICT takes ZZZG's residual before
# detected, which reads it from the state's cache: werner-3's f > 0, every
# separable k = 12 member and the four PPT random 2x2 ones.  Pure products
# and werner-3's f = 0 sit on the PPT boundary and take it inside.
COMPARE_TRAFFIC = {
    "werner-3": (["--family", "werner-3", "--count", "21"], 11, 1),  # f = 0: ZZZG's residual
    "horodecki": (["--family", "horodecki", "--count", "20"], 0, 0),  # realignment flags all
    "separable-k1": (["--family", "separable", "--k", "1", "--count", "20"], 20, 1),
    "separable-k12": (["--family", "separable", "--k", "12", "--count", "20"], 20, 0),
    "random": (["--family", "random", "--count", "20"], 0, 0),  # all NPT: PPT flags all
    "random-2x2": (["--family", "random", "--m", "2", "--n", "2", "--count", "20"], 4, 0),
}

# The trace norms (matrices, a stack of k counting k) that each
# COMPARE_TRAFFIC run takes in all, the oracles' included, exactly.  A
# member takes the realignment oracle's SVD, ZZZG's residual, or both:
# - werner-3, 22: the 10 NPT members f < 0 the oracle's alone, f = 0 both,
#   and the 10 members f > 0 the residual alone, which clears the column;
# - horodecki, 20, and random, 20: the oracle's alone, which flags, or the
#   PPT flag decides grc;
# - separable-k1, 40: both, as a pure product is on the PPT boundary;
# - separable-k12, 20: the residual alone;
# - random-2x2, 20: the oracle's on the 16 NPT members, the residual alone
#   on the 4 PPT ones.
TRACE_NORMS = {"werner-3": 22, "horodecki": 20, "separable-k1": 40, "separable-k12": 20,
               "random": 20, "random-2x2": 20}


class TestCompareTraffic:
    @pytest.mark.parametrize("family", sorted(COMPARE_TRAFFIC))
    def test_detected_calls_and_maps_at_most_pinned(self, monkeypatch, capsys, family):
        import sepscope.cli as cli

        argv, max_calls, max_maps = COMPARE_TRAFFIC[family]
        maps, inside = [], [False]  # maps per detected call, and whether one runs
        detect = cli.detected

        def counted(rho, params, ysets):
            maps.append(0)
            inside[0] = True
            try:
                return detect(rho, params, ysets)
            finally:
                inside[0] = False

        def traced(mat):
            if inside[0]:
                maps[-1] += int(np.prod(np.shape(mat)[:-2]))

        monkeypatch.setattr(cli, "detected", counted)
        with seen_trace_norms(traced):
            assert main(["compare", *argv]) == 0
        capsys.readouterr()
        assert len(maps) <= max_calls and max(maps, default=0) <= max_maps, maps

    @pytest.mark.parametrize("family", sorted(TRACE_NORMS))
    def test_trace_norms_per_run_pinned(self, capsys, family):
        taken = []
        with seen_trace_norms(lambda mat: taken.append(int(np.prod(np.shape(mat)[:-2])))):
            assert main(["compare", *COMPARE_TRAFFIC[family][0]]) == 0
        capsys.readouterr()
        assert sum(taken) == TRACE_NORMS[family]


class TestSpectrumTripwire:
    def test_two_spectra_per_compare_state(self, monkeypatch, capsys):
        # compare --family separable --k 12, seeds 0-19: each state takes
        # eigvalsh of 2 matrices, validation's 1 and the PPT oracle's 1.  The
        # PPT spectrum clears the reduction column (Theorem 6), so the
        # reduction oracle's batched 2 are not taken, and detected, which
        # runs on every one of these PPT states, reads the cached spectra
        # and takes none.
        import sepscope.cli as cli

        calls, in_detected, states = [], [False], []
        eigvalsh, original = np.linalg.eigvalsh, cli.detected

        def counted(rho, params, ysets):
            states.append(rho)
            in_detected[0] = True
            try:
                return original(rho, params, ysets)
            finally:
                in_detected[0] = False

        monkeypatch.setattr(cli, "detected", counted)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: calls.append(
            (int(np.prod(mat.shape[:-2])), in_detected[0])) or eigvalsh(mat))
        argv = ["--family", "separable", "--k", "12", "--seed", "0"]
        assert compare_grc_column(capsys, argv, 20) == [False] * 20
        assert len(states) == 20
        assert sum(count for count, _ in calls) == 2 * 20
        assert not any(inside for _, inside in calls)


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
    @settings(max_examples=120)
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


def real_or_complex_scalar():
    """Real numbers of either sign, or complex numbers, with magnitude 1e-3..1e5."""
    real = st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
                     st.floats(-3.0, 5.0), st.sampled_from([-1.0, 1.0]))
    return st.one_of(real, complex_scalar())


def isotropic_state(q, check=True):
    """q|Phi+><Phi+| + (1-q) I/4 on 2x2: PSD for -1/3 <= q <= 1, PPT for q
    <= 1/3."""
    ket = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    return DensityState(SubsystemDims(2, 2), q * np.outer(ket, ket) + (1 - q) * np.eye(4) / 4,
                        check=check)


def near_psd_state(m, n, seed, eigenvalue=-0.9e-9):
    """A state that passes validation with all but one eigenvalue at
    eigenvalue, inside TOL_PSD; from d = 7 on its trace norm exceeds 1 by
    more than TOL_VERDICT, so the full path flags it at (0, 0)."""
    d = m * n
    spectrum = np.full(d, eigenvalue)
    spectrum[0] = 1.0 - (d - 1) * eigenvalue
    u = random_unitary(d, seed)
    mat = (u * spectrum) @ u.conj().T
    return DensityState(SubsystemDims(m, n), (mat + mat.conj().T) / 2)


def noisy_state(m, n, seed, f):
    """p rho + (1 - p) I/d for a random rho, with p f times the weight at
    which the mixture's T_A turns PSD, capped at 1: PPT for f <= 1, and
    slightly NPT past it where rho is NPT."""
    d, dims = m * n, SubsystemDims(m, n)
    rho = random_density(d, seed)
    low = np.linalg.eigvalsh(partial_transpose(rho, dims, "A"))[0]
    p = min(1.0, f / (1 - d * low)) if low < 0 else 1.0
    return DensityState(dims, p * rho + (1 - p) * np.eye(d) / d)


@st.composite
def kernel_states(draw):
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(["separable", "product", "random", "werner", "near-psd"]))
    if kind == "near-psd":
        return near_psd_state(m, n, seed)
    if kind == "separable":
        return random_separable(SubsystemDims(m, n), draw(st.integers(2, 12)), seed).state
    if kind == "product":  # every pair is tight: the statistic equals the bound
        return random_separable(SubsystemDims(m, n), 1, seed).state
    if kind == "random":
        return random_state(m, n, seed)
    return werner(m, draw(st.floats(-1.0, 1.0))).state


def kernel_params():
    """A parameter as the kernel takes it: a ReductionParams, or a plain
    (a, b) pair of Python complex."""
    scalar = real_or_complex_scalar()
    return st.one_of(st.builds(ReductionParams, scalar, scalar),
                     st.tuples(scalar, scalar).map(lambda ab: (complex(ab[0]), complex(ab[1]))))


def outcome(decide):
    try:
        return decide()
    except ParamOutOfRange as exc:
        return type(exc), str(exc)


@st.composite
def off_route(draw):
    """A state and params off detected's scalar route: an unchecked copy of
    a kernel_states() draw, a state with a factor of dimension 1, or params
    with a pair whose every bound is past _SCALAR_BOUND."""
    kind = draw(st.sampled_from(["unchecked", "one-dimensional", "past-bound"]))
    params = draw(st.lists(kernel_params(), min_size=1, max_size=4))
    if kind == "unchecked":
        state = draw(kernel_states())
        return DensityState(state.dims, state.mat, check=False), params
    if kind == "one-dimensional":
        n, seed = draw(st.integers(1, 4)), draw(st.integers(0, 2**31 - 1))
        dims = draw(st.sampled_from([SubsystemDims(1, n), SubsystemDims(n, 1)]))
        if n == 1 or draw(st.booleans()):
            mat = random_separable(dims, draw(st.integers(1, 4)), seed).state.mat
        else:
            mat = random_density(n, seed)
        return DensityState(dims, mat, check=draw(st.booleans())), params
    # Every bound is at least |a| / sqrt(2) > 7e100.
    far = draw(st.builds(lambda exponent, sign: complex(sign * 10.0 ** exponent),
                         st.floats(101.0, 308.0), st.sampled_from([-1.0, 1.0, 1j])))
    params.insert(draw(st.integers(0, len(params))), (far, complex(draw(real_or_complex_scalar()))))
    return draw(kernel_states()), params


def full_path(state, params, ysets):
    return any(any(block.entangled) for block in verdict_blocks(state, params, ysets))


def split_product(state, a, b):
    """||aI - rho_A||_F ||bI - rho_B||_F: the trace norm of the rank-one term
    u v^T of the realigned map R(rho~) = u v^T + R(Delta)."""
    (rho_a, rho_b), (m, n) = state.reductions, (state.dims.m, state.dims.n)
    return np.linalg.norm(a * np.eye(m) - rho_a) * np.linalg.norm(b * np.eye(n) - rho_b)


def zzzg(state):
    """ZZZG's excess bound ||R(Delta)||_1 - sqrt((1 - q_A)(1 - q_B)), Delta =
    rho - rho_A kron rho_B, q_X the purities; a product under 0 reads as 0."""
    rho_a, rho_b = state.reductions
    residual = trace_norm(realign(state.mat - kron(rho_a, rho_b), state.dims))
    q_a, q_b = (np.vdot(x, x).real for x in (rho_a, rho_b))
    return residual - np.sqrt(max((1 - q_a) * (1 - q_b), 0.0))


class TestDetected:
    @settings(max_examples=150)
    @given(
        state=kernel_states(),
        params=st.lists(kernel_params(), min_size=1, max_size=6),
        ysets=st.lists(st.sampled_from(all_subsets()), max_size=20),
    )
    def test_equals_full_path(self, state, params, ysets):
        assert detected(state, params, ysets) == full_path(state, params, ysets)

    @settings(max_examples=150)
    @given(case=off_route(),
           ysets=st.lists(st.sampled_from(all_subsets()), min_size=1, max_size=16))
    def test_off_route_takes_the_full_path(self, case, ysets):
        # Off the scalar route detected takes the full path's trace norms,
        # stack for stack, up to and including its first flagging block, and
        # raises what it raises.
        state, params = case
        limits = _bound_table(tuple(params), state.dims, tuple(ysets))[2]
        assert not (state.checked and min(state.dims.m, state.dims.n) >= 2
                    and limits.max() <= _SCALAR_BOUND)
        assert trace_norm_shapes(lambda: detected(state, params, ysets)) == trace_norm_shapes(
            lambda: full_path(state, params, ysets))

    @pytest.mark.parametrize("lead", [(), (ReductionParams(0.5, 0.5),)], ids=["alone", "second"])
    @pytest.mark.parametrize("a,b", [(1e308, 1e-300), (1e200, 1e-100), (1e160, 1e-10)])
    def test_overflow_raises_as_full_path(self, a, b, lead):
        # The map's squares overflow here; the suite turns a RuntimeWarning
        # into a failure.
        state = random_density_state(SubsystemDims(3, 3), 1).state
        params = (*lead, ReductionParams(a, b))
        want = outcome(lambda: full_path(state, params, all_subsets()))
        assert want[0] is ParamOutOfRange and "not finite at a=" in want[1]
        assert outcome(lambda: detected(state, params, all_subsets())) == want

    @pytest.mark.parametrize("middle,name", [
        ((1e200, 1e200), "a=1e+200, b=1e+200"),  # ab overflows
        ((1.7e308, -1.0), "a=1.7e+308, b=-1"),  # ab is finite, ab - a (rho_B)_ii is not
    ])
    def test_overflowing_middle_pair_named(self, middle, name):
        # Only the middle map of the stack is not finite; both paths name it.
        state = random_density_state(SubsystemDims(3, 3), 1).state
        params = ((0.5 + 0j, -0.25 + 0j), tuple(map(complex, middle)), (0.2 + 0j, 1j))
        assert np.isfinite(reduction_maps(state, params[::2])).all()
        message = f"the map, its trace norm or the bound is not finite at {name}"
        with pytest.raises(ParamOutOfRange, match=f"^{re.escape(message)}$"):
            next(verdict_blocks(state, params, all_subsets()))
        with pytest.raises(ParamOutOfRange, match=f"^{re.escape(message)}$"):
            detected(state, params, all_subsets())

    def test_mixed_stack_flags_as_full_path(self):
        # Random states are flagged, separable ones are not, whatever the
        # share of pairs each screen settles in each class.
        grid = tuple(ReductionParams(a, b) for a in AB_TEST_GRID for b in AB_TEST_GRID)
        states = [werner(3, -0.5).state, horodecki_3x3(0.5).state]
        for seed in range(6):
            states += [random_state(3, 3, seed),
                       random_separable(SubsystemDims(3, 3), 12, seed).state]
        for state in states:
            assert detected(state, grid, all_subsets()) == full_path(state, grid, all_subsets())

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (4, 3)])
    def test_dims_sweep_as_full_path(self, m, n):
        dims = SubsystemDims(m, n)
        states = [near_psd_state(m, n, 3)]
        for seed in range(3):
            states += [random_state(m, n, seed), random_separable(dims, m * n, seed).state,
                       random_separable(dims, 1, seed).state]
        if m == n:
            states += [werner(m, f).state for f in (-1.0, -0.1, 0.5)]
        for params in (COMPARE_GRID, COMPLEX_PARAMS):
            for state in states:
                assert detected(state, params, all_subsets()) == full_path(
                    state, params, all_subsets())
                for y in all_subsets()[:8]:
                    assert detected(state, params, (y,)) == full_path(state, params, (y,))

    def test_overflowing_square_stays_open(self):
        # The map's entries reach 1e200, so their squares overflow, and its
        # Frobenius norm is inf, while every bound is finite, though far past
        # _SCALAR_BOUND, so detected takes the full path.  The state is
        # separable, so screens 3 and 4 would settle the pair; the full path
        # takes its SVD in each of their classes instead, and flags nothing.
        state = random_separable(SubsystemDims(3, 3), 12, 0).state
        params = [(0.5 + 0j, 0.5 + 0j), (1e100 + 0j, -1e100j)]
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(reduction_maps(state, params), axis=(1, 2))
        assert np.isfinite(norms[0]) and norms[1] == np.inf
        assert _ppt_clears(state) and _split_settles(state)
        for y in (GptOpSet(), GptOpSet(cB=True), REALIGNMENT):
            assert not full_path(state, params[1:], (y,))
            assert svd_shapes(state, params[1:], (y,))[-1:] == [(1,)]

    @pytest.mark.parametrize("lead", [(), ((0.5 + 0j, 0.5 + 0j),)], ids=["alone", "second"])
    @pytest.mark.parametrize("a,b,stacks", [
        (_SCALAR_BOUND / 3 * (1 - 1e-12), 0.0, 0),
        (_SCALAR_BOUND / 3 * (1 + 1e-12), 0.0, 1),
        (1e308, 1e-300, 1), (1e200, 1e-100, 1), (1e160, 1e-10, 1),
    ], ids=["inside", "outside", "1e308", "1e200", "1e160"])
    def test_certificate_edge_as_full_path(self, a, b, stacks, lead):
        # A checked separable state, whose classes all settle from its
        # state-level scalars.  At (a, 0), a > 1, the largest bound is class
        # none's (|a - 1| + 2|a|) * 1, so the first two pairs put it just
        # inside and just outside _SCALAR_BOUND: inside, no map is built;
        # outside, the maps are built first, and every map and statistic
        # is still finite.  The last three overflow the map or its bound,
        # and detected raises what the full path raises, naming the same
        # pair; without the certificate it would settle them and return
        # False.
        state = random_separable(SubsystemDims(3, 3), 12, 0).state
        params = (*lead, (complex(a), complex(b)))
        limits = _bound_table(params, state.dims, tuple(all_subsets()))[2]
        assert (limits.max() <= _SCALAR_BOUND) == (stacks == 0)
        want = outcome(lambda: full_path(state, params, all_subsets()))
        assert outcome(lambda: detected(state, params, all_subsets())) == want
        if b == 0.0:
            assert want is False
            assert stacks_built(state, params, all_subsets()) == stacks
        else:
            assert want == (ParamOutOfRange, "the map, its trace norm or the bound is not finite"
                            f" at a={a:g}, b={b:g}")

    def test_unchecked_state_and_frobenius_request_build_the_maps(self):
        # An unchecked state is off the scalar route and takes the full
        # path: the unchecked copy of a separable state takes the SVD of
        # every class's maps, from one stack, and builds it even where only
        # the Hermitian classes are asked, which screen 3 settles on the
        # checked copy.  On the route, a Frobenius class asked alone takes
        # ZZZG's residual SVD and, on the separable state, no map; on a
        # Horodecki state, which ZZZG leaves open, it builds the maps and
        # takes their SVD alone.  Asked with the realignment class, which
        # goes first and flags, it takes none.  The state caches its
        # residual, so only its first call takes that SVD.
        checked = random_separable(SubsystemDims(3, 3), 12, 0).state
        unchecked = DensityState(checked.dims, checked.mat, check=False)
        assert svd_shapes(unchecked, COMPARE_GRID, all_subsets()) == [(36,)] * 8
        assert stacks_built(unchecked, COMPARE_GRID, all_subsets()) == 1
        assert [stacks_built(state, COMPARE_GRID, HERMITIAN_CLASSES)
                for state in (unchecked, checked)] == [1, 0]
        for ysets, residual in (((FROBENIUS,), [()]), ((FROBENIUS, REALIGNMENT), [])):
            assert svd_shapes(checked, COMPARE_GRID, ysets) == residual
            assert stacks_built(checked, COMPARE_GRID, ysets) == 0
        bound_entangled = horodecki_3x3(0.5).state
        assert svd_shapes(bound_entangled, COMPARE_GRID, (FROBENIUS,)) == [(), (36,)]
        assert stacks_built(bound_entangled, COMPARE_GRID, (FROBENIUS,)) == 1
        assert svd_shapes(bound_entangled, COMPARE_GRID, (FROBENIUS, REALIGNMENT)) == [(36,)]

    def test_near_psd_state_reaches_the_svd(self, monkeypatch):
        # ||rho||_1 = 1 + 2 * 8 * 0.9e-9, so the full path flags (0, 0) in
        # class none.  Screen 3 reads rho's least eigenvalue, -0.9e-9, so its
        # 2 d lambda, 1.62 TOL_VERDICT, tops TOL_VERDICT/2; it fails and
        # leaves the pair open for the SVD.
        import sepscope.criteria as criteria

        state = near_psd_state(3, 3, 5)
        pair, none = (ReductionParams(0.0, 0.0),), (GptOpSet(),)
        assert full_path(state, pair, none)
        maps = []
        original = criteria.trace_norm
        monkeypatch.setattr(criteria, "trace_norm",
                            lambda mat: maps.append(np.shape(mat)) or original(mat))
        assert detected(state, pair, none)
        assert maps == [(1, 9, 9)]
        grid = tuple(ReductionParams(a, b) for a in AB_TEST_GRID for b in AB_TEST_GRID)
        assert detected(state, grid, all_subsets())

    @pytest.mark.parametrize("ysets", [(GptOpSet(),), all_subsets()], ids=["none", "all"])
    def test_reduction_flagged_state_takes_no_spectrum(self, monkeypatch, ysets):
        # Class none flags the random state of seed 3 at (1, 0) alone, where
        # the reduction criterion does: a corner.  Screen 3 reads rho's
        # spectrum, cached by validation, and T_A rho's, which it takes as
        # one (9, 9) eigvalsh unless ppt_check has filled the cache; the
        # state is NPT, so the class goes to the SVD.  With all subsets
        # asked, screen 4 takes ZZZG's residual SVD between the two.  No
        # spectrum of a grid map is taken.
        state = random_state(3, 3, 3)
        (block,) = verdict_blocks(state, COMPARE_GRID, (GptOpSet(),))
        assert [p for p, flag in zip(COMPARE_GRID, block.entangled) if flag] == [
            ReductionParams(1.0, 0.0)]
        after_ppt = random_state(3, 3, 3)
        assert ppt_check(after_ppt).entangled
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda mat: calls.append(("eigvalsh", mat.shape)) or eigvalsh(mat))
        svds = ["svd"] * (1 + (REALIGNMENT in ysets))
        with seen_trace_norms(lambda mat: calls.append(("svd", np.shape(mat)[:-2]))):
            assert detected(state, COMPARE_GRID, ysets)
            assert calls[0] == ("eigvalsh", (9, 9))
            assert [name for name, _ in calls] == ["eigvalsh", *svds]
            calls.clear()
            assert detected(after_ppt, COMPARE_GRID, ysets)
            assert [name for name, _ in calls] == svds
        assert full_path(state, COMPARE_GRID, ysets)

    @pytest.mark.parametrize("p", [1e-3, 1e-4, 1e-5])
    def test_screen_one_edge_flags(self, p):
        # q|Phi+><Phi+| + (1-q) I/4 with q = (1 + 2p)/sqrt(3) at (1/2, 1/2)
        # in the Frobenius class alone: the map is q(|Phi+><Phi+| - I/4), of
        # Frobenius norm sqrt(3) q/2 = 1/2 + p, against the bound 1/2, so
        # the pair is flagged with excess p.  The class's statistic is that
        # norm to rounding, and a screen 1 that settled pairs up to 0.1% over
        # the bound would drop the flag.
        state = isotropic_state((1 + 2 * p) / np.sqrt(3))
        pair, frobenius = ((0.5 + 0j, 0.5 + 0j),), (GptOpSet(cA=True, cB=True),)
        (block,) = verdict_blocks(state, pair, frobenius)
        norm = np.linalg.norm(reduction_maps(state, pair)[0])
        assert norm == pytest.approx(block.statistic[0], rel=1e-15)
        assert block.bound[0] == pytest.approx(0.5, rel=1e-15)
        assert block.statistic[0] - 0.5 == pytest.approx(p, rel=1e-9)
        assert block.entangled == [True]
        assert detected(state, pair, frobenius) is True

    @pytest.mark.parametrize("excess,svds", [(0.45, 0), (0.55, 1)])
    def test_screen_one_margin_edge(self, excess, svds):
        # The Frobenius class asked alone has no screen of its own: ZZZG's
        # settles it whole (Theorem 4).  isotropic_state((1 + 2 excess
        # TOL_VERDICT)/3) has ZZZG's excess bound at excess TOL_VERDICT, so
        # the class settles at 0.45 with the residual's SVD alone, and at
        # 0.55 its pair at (1/2, 1/2), of Frobenius norm about 0.29 against
        # the bound 1/2, takes one SVD too and is not flagged.  The
        # residual's SVD is _split_settles', cached on the state, so
        # detected takes none of its own.
        state = isotropic_state((1 + 2 * excess * TOL_VERDICT) / 3)
        pair, frobenius = ((0.5 + 0j, 0.5 + 0j),), (FROBENIUS,)
        assert zzzg(state) == pytest.approx(excess * TOL_VERDICT, rel=1e-4)
        assert _split_settles(state) is (svds == 0)
        assert not full_path(state, pair, frobenius)
        assert svd_shapes(state, pair, frobenius) == [(1,)] * svds

    def test_screen_two_edge_flags(self):
        # The unchecked diag(1 + 3 nu, -nu, -nu, -nu), 2x2, nu = 0.18
        # TOL_VERDICT.  It is diagonal, so both Hermitian classes see the same
        # maps, and its trace is 1, so X(1, 1) is rho with its diagonal
        # reversed.  Every corner is flagged, with excess 6 nu = 1.08
        # TOL_VERDICT * bound, just past the flag line.  The state is
        # unchecked, so detected takes the full path, whose SVD flags (0, 0).
        nu = 0.18 * TOL_VERDICT
        mat = np.diag([1 + 3 * nu, -nu, -nu, -nu])
        state = DensityState(SubsystemDims(2, 2), mat, check=False)
        for y in HERMITIAN_CLASSES:
            (block,) = verdict_blocks(state, CORNERS, (y,))
            excess = (np.array(block.statistic) - block.bound) / (TOL_VERDICT * np.array(block.bound))
            np.testing.assert_allclose(excess, 1.08, rtol=1e-6)
            assert block.entangled == [True] * 4
            assert detected(state, CORNERS[:1], (y,)) is True

    def test_corner_margin_edge(self):
        # diag(1 + 8e, -e, ..., -e), 3x3, e = 0.9e-9, passes validation.  Its
        # corners' excesses are 16e, 28e, 28e and 40e, that is 1.44, 1.26,
        # 1.26 and 0.90 TOL_VERDICT * bound, in both Hermitian classes, so
        # the full path flags (0, 0).  Screen 3 reads lambda = e, and its 2 d
        # lambda, 1.62 TOL_VERDICT, tops TOL_VERDICT/2, so both classes go
        # to the SVD; a screen that cleared 2 TOL_VERDICT would settle them.
        e = 0.9e-9
        state = DensityState(SubsystemDims(3, 3), np.diag([1 + 8 * e] + [-e] * 8))
        for y in HERMITIAN_CLASSES:
            (block,) = verdict_blocks(state, CORNERS, (y,))
            excess = (np.array(block.statistic) - block.bound) / (TOL_VERDICT * np.array(block.bound))
            np.testing.assert_allclose(excess, [1.44, 1.26, 1.26, 0.90], rtol=1e-6)
            assert full_path(state, COMPARE_GRID, (y,))
            assert detected(state, COMPARE_GRID, (y,))

    @pytest.mark.parametrize("eps,excess,flags", [(1e-4, 2.0, True), (0.6e-4, 0.72, False)])
    def test_skew_term_edge(self, eps, excess, flags):
        # The unchecked diag(1, 0, 0, 0) + eps (E_01 - E_10), 2x2.
        # ||rho||_1 = sqrt(1 + 4 eps^2), and T_A rho = rho, so the full path's
        # excess at (0, 0) is about 2 eps^2 in both Hermitian classes.
        # eigvalsh reads the lower triangle, [[1, -eps], [-eps, 0]], of the
        # same trace norm.  The state is unchecked, so detected takes the
        # full path, and its SVD decides both sides of the edge;
        # test_upper_skew_edge is the edge the lower triangle does not show.
        mat = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        mat[0, 1], mat[1, 0] = eps, -eps
        state = DensityState(SubsystemDims(2, 2), mat, check=False)
        pair = ((0j, 0j),)
        for y in HERMITIAN_CLASSES:
            (block,) = verdict_blocks(state, pair, (y,))
            excess_t = (block.statistic[0] - block.bound[0]) / TOL_VERDICT
            assert excess_t == pytest.approx(excess, rel=1e-6)
            assert block.entangled == [flags]
            assert detected(state, pair, (y,)) is flags

    @pytest.mark.parametrize("eps,excess,flags", [(2e-4, 2.0, True), (1e-4, 0.5, False)])
    def test_upper_skew_edge(self, eps, excess, flags):
        # The unchecked diag(1, 0, 0, 0) + eps E_01, 2x2, has ||rho||_1 =
        # sqrt(1 + eps^2), and T_A rho = rho, so the full path's excess at
        # (0, 0) is about eps^2 / 2 in both Hermitian classes.  eigvalsh
        # reads the lower triangle, diag(1, 0, 0, 0), whose spectrum sums to
        # exactly 1, so the spectra alone would settle that pair.  The state
        # is unchecked, so detected takes the full path, whose SVD decides.
        mat = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        mat[0, 1] = eps
        state = DensityState(SubsystemDims(2, 2), mat, check=False)
        assert abs(state.spectrum).sum() == abs(state.pt_spectrum).sum() == 1.0
        pair = ((0j, 0j),)
        for y in HERMITIAN_CLASSES:
            (block,) = verdict_blocks(state, pair, (y,))
            excess_t = (block.statistic[0] - block.bound[0]) / TOL_VERDICT
            assert excess_t == pytest.approx(excess, rel=1e-6)
            assert block.entangled == [flags]
            assert detected(state, pair, (y,)) is flags

    @pytest.mark.parametrize("t,flags", [(0.5, True), (1 / 6, False)])
    def test_trace_defect_edge(self, t, flags):
        # The unchecked (1 - t TOL_VERDICT) I/4, 2x2, has ||rho||_1 =
        # ||T_A rho||_1 < 1, but X(1, 1) = (1 + 3 t TOL_VERDICT) I/4, so the
        # full path's excess there is 3 t TOL_VERDICT in both Hermitian
        # classes, which the trace norms alone do not show.  The state is
        # unchecked, so detected takes the full path, whose SVD decides.
        state = DensityState(SubsystemDims(2, 2), (1 - t * TOL_VERDICT) * np.eye(4) / 4, check=False)
        pair = ((1 + 0j, 1 + 0j),)
        for y in HERMITIAN_CLASSES:
            (block,) = verdict_blocks(state, pair, (y,))
            excess_t = (block.statistic[0] - block.bound[0]) / TOL_VERDICT
            assert excess_t == pytest.approx(3 * t, rel=1e-6)
            assert block.entangled == [flags]
            assert detected(state, pair, (y,)) is flags

    def test_overflowing_corner_leaves_classes_to_the_svd(self):
        # An unchecked state with entries 8e307 that cancel in the map at
        # (1/2, 0), which is finite, open and flagged, while the corner X(1, 1)
        # overflows.  The state is unchecked, so detected takes the full
        # path, which builds no corner map; it answers as the full path, and
        # raises nothing.
        mat = np.diag([8e307, 0.0, 8e307, 0.0])
        for i, j, x in ((0, 1, 0.7), (2, 3, -0.4), (1, 3, 0.9)):
            mat[i, j] = mat[j, i] = x
        state = DensityState(SubsystemDims(2, 2), mat, check=False)
        with pytest.raises(ParamOutOfRange, match="at a=1, b=1$"):
            reduction_maps(state, CORNERS)
        pair = ((0.5 + 0j, 0j),)
        for y in HERMITIAN_CLASSES:
            assert full_path(state, pair, (y,))
            assert detected(state, pair, (y,))

    @pytest.mark.parametrize("excess", [1e-4, 1e-5, 1e-6])
    def test_screen_three_edge_flags(self, excess):
        # (1-p) I/4 + p|Phi+><Phi+| at (0, 0) in the realignment class alone,
        # with p = (1 + 2 excess)/3.  Both marginals are I/2 and R(Delta)
        # lies in the span of the Pauli vectors, orthogonal to u = v =
        # vec(I/2), so P + ||R(Delta)||_1 equals the statistic, 1 + excess,
        # to rounding.  P + ||Delta||_F is about 0.79, so the residual is
        # taken, and a screen 3 that settled pairs 0.1% over the bound would
        # drop the flag.
        p = (1 + 2 * excess) / 3
        ket = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        state = DensityState(SubsystemDims(2, 2), (1 - p) * np.eye(4) / 4 + p * np.outer(ket, ket))
        pair, realignment = ((0j, 0j),), (GptOpSet(cA=True, rB=True),)
        (block,) = verdict_blocks(state, pair, realignment)
        product = split_product(state, 0, 0)
        delta = state.mat - kron(*state.reductions)
        residual = trace_norm(realign(delta, state.dims))
        bound = block.bound[0]
        assert product + np.linalg.norm(delta) < bound
        assert bound < product + residual < 1.001 * bound
        assert product + residual == pytest.approx(block.statistic[0], rel=1e-14)
        assert block.entangled == [True]
        assert detected(state, pair, realignment) is True

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e-5, 1e-3])
    def test_unchecked_non_hermitian_as_full_path(self, scale):
        # A separable state plus a skew-Hermitian part, unchecked, which the
        # full path flags from 1e-5 on.  The lower triangles that eigvalsh
        # reads of rho and T_A rho are the separable state's plus a
        # Hermitian matrix of trace 0 and size scale, so their spectra need
        # not show the skew part; the state is unchecked, so detected takes
        # the full path.
        rng = np.random.default_rng(7)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        mat = random_separable(SubsystemDims(3, 3), 12, 3).state.mat + scale * (g - g.conj().T) / 2
        state = DensityState(SubsystemDims(3, 3), mat, check=False)
        grid = tuple(ReductionParams(a, b) for a in AB_TEST_GRID for b in AB_TEST_GRID)
        for params in (grid, COMPLEX_PARAMS):
            assert detected(state, params, all_subsets()) == full_path(state, params, all_subsets())

    def test_unchecked_non_normal_product_as_full_path(self):
        # rho_A kron rho_B with a non-normal rho_A, unchecked: Delta is zero.
        # The full path flags the first four classes, none, cB, rB and rB,cB,
        # each with a square factor aI - rho_A, whose trace norm exceeds
        # sum_i |a - lambda_i|.  In the realignment class the map is the
        # rank-one u v^T, and the split's product is its exact trace norm.
        # Class by class.
        rho_a = np.array([[0.5, 0.3, 0.0], [0.0, 0.3, 0.2], [0.0, 0.0, 0.2]])
        mat = np.kron(rho_a, np.diag([0.5, 0.3, 0.2]))
        state = DensityState(SubsystemDims(3, 3), mat, check=False)
        grid = tuple(ReductionParams(a, b) for a in AB_TEST_GRID for b in AB_TEST_GRID)
        flags = [full_path(state, grid, (y,)) for y in all_subsets()]
        assert flags[:4] == [True] * 4
        assert [detected(state, grid, (y,)) for y in all_subsets()] == flags


class TestCorners:
    @settings(max_examples=150)
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        params=st.lists(kernel_params(), min_size=1, max_size=6),
    )
    def test_pair_within_corner_combination(self, m, n, seed, scale, params):
        # On any matrix, checked or not, at any complex (a, b), a Hermitian
        # class's statistic is at most sum_c w_c times the corners', w =
        # (|1-a|, |a|) kron (|1-b|, |b|), and its bound is sum_c w_c bound_c.
        rng = np.random.default_rng(seed)
        d = m * n
        mat = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        state = DensityState(SubsystemDims(m, n), mat, check=False)
        for y in HERMITIAN_CLASSES:
            (corner,) = verdict_blocks(state, CORNERS, (y,))
            (block,) = verdict_blocks(state, params, (y,))
            for (a, b), statistic, bound in zip(params, block.statistic, block.bound):
                w = np.kron([abs(1 - b), abs(b)], [abs(1 - a), abs(a)])  # in CORNERS' order
                assert statistic <= (w @ corner.statistic) * (1 + 1e-11)
                assert bound == pytest.approx(w @ corner.bound, rel=1e-13, abs=0)

    @settings(max_examples=150)
    @given(
        m=st.integers(2, 4),
        n=st.integers(2, 4),
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_corners_within_trace_norms(self, m, n, seed, scale):
        # Up to sign, and to the (1 - tr rho) I that X(1, 1) adds, each
        # corner of a Hermitian class is a CP map Phi_c with Phi_c*(I) =
        # bound_c I applied to rho, T_A rho, T_B rho or rho^T.  So by
        # Russo-Dye, on any matrix, its trace norm is at most bound_c
        # max(||rho||_1, ||T_A rho||_1), plus d |tr rho - 1| at (1, 1).
        rng = np.random.default_rng(seed)
        d = m * n
        mat = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        state = DensityState(SubsystemDims(m, n), mat, check=False)
        partial = gpt_transform(mat, state.dims, PARTIAL_TRANSPOSE_Y["A"])
        norm = max(trace_norm(mat), trace_norm(partial))
        defects = (0.0, 0.0, 0.0, d * abs(np.trace(mat) - 1))  # in CORNERS' order
        for y in HERMITIAN_CLASSES:
            (corner,) = verdict_blocks(state, CORNERS, (y,))
            for statistic, bound, defect in zip(corner.statistic, corner.bound, defects):
                assert statistic <= (bound * norm + defect) * (1 + 1e-11)

    @settings(max_examples=200)
    @given(
        dims=st.sampled_from([(m, n) for m in range(1, 7) for n in range(1, 7) if 2 <= m * n <= 6]),
        seed=st.integers(0, 2**31 - 1),
        scale=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
        kind=st.sampled_from(["hermitian", "near-hermitian", "arbitrary", "imaginary-diagonal"]),
    )
    def test_spectra_bound_trace_norms(self, dims, seed, scale, kind):
        # eigvalsh reads the lower triangle: its spectrum is that of H_L =
        # tril(X, -1) + tril(X, -1)^† + Re diag X.  E = X - H_L holds X_ij -
        # conj X_ji above the diagonal and i Im X_ii on it, so ||E||_F^2 <=
        # ||X - X^†||_F^2 / 2 and ||X||_1 <= sum |eig(H_L)| + sqrt(d/2) ||X
        # - X^†||_F, on any matrix.  T_A permutes entries and commutes with
        # †, so one skew term serves rho and T_A rho.
        (m, n), d = dims, dims[0] * dims[1]
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mat = {"hermitian": g + g.conj().T,
               "near-hermitian": g + g.conj().T + 1e-9 * g,
               "arbitrary": g,
               "imaginary-diagonal": g + g.conj().T + 1j * np.diag(rng.standard_normal(d))}[kind]
        state = DensityState(SubsystemDims(m, n), scale * mat, check=False)
        skew = np.linalg.norm(state.mat - state.mat.conj().T)
        partial = gpt_transform(state.mat, state.dims, PARTIAL_TRANSPOSE_Y["A"])
        for x, spectrum in ((state.mat, state.spectrum), (partial, state.pt_spectrum)):
            assert trace_norm(x) <= (abs(spectrum).sum() + np.sqrt(d / 2) * skew) * (1 + 1e-12)

    @settings(max_examples=150)
    @given(
        state=st.one_of(kernel_states(), st.builds(noisy_state, st.integers(2, 4), st.integers(2, 4),
                                                   st.integers(0, 2**31 - 1), st.floats(0.97, 1.03))),
        params=st.lists(kernel_params(), min_size=1, max_size=6),
    )
    def test_clear_corners_flag_nothing(self, state, params):
        # Where screen 3 clears one of these states, every corner of both
        # Hermitian classes is within (1 + TOL_VERDICT/2) bound_c, up to
        # rounding, and no pair of either class flags: README's corollary to
        # Theorems 1 and 2.  The noise mixtures lie within 3% of the PPT
        # boundary, either side, so the screen both clears and fails.
        if not _ppt_clears(state):
            return
        for y in HERMITIAN_CLASSES:
            (corner,) = verdict_blocks(state, CORNERS, (y,))
            assert all(s <= b * (1 + TOL_VERDICT / 2 + 1e-13)
                       for s, b in zip(corner.statistic, corner.bound))
            (block,) = verdict_blocks(state, params, (y,))
            assert not any(block.entangled)

    @pytest.mark.parametrize("m,n,x,pair", [
        (1, 2, 0.5094572997602054, (1.0000000002706941, 6336578001.821507)),
        (2, 1, 0.5087111075732265, (1028302355.92215, 1.0000000002778218)),
    ])
    def test_one_dimensional_factor_goes_to_the_svd(self, m, n, x, pair):
        # diag(x, 1 - x) with a factor of dimension 1 is a product state,
        # though two of its corners have bound 0.  Far out, next to a corner
        # with bound 0, the pair's bound no longer dominates |a| and |b|, and
        # the statistic's rounding tops the flag line in the Hermitian and
        # realignment classes; verdict_blocks reports the violation and
        # flags nothing.  detected leaves every class of such a state to
        # verdict_blocks, though screen 3 clears it, so it agrees.
        state = DensityState(SubsystemDims(m, n), np.diag([x, 1 - x]))
        assert _ppt_clears(state) is True
        params = (tuple(map(complex, pair)),)
        for y in (*HERMITIAN_CLASSES, REALIGNMENT):
            (block,) = verdict_blocks(state, params, (y,))
            assert block.violation[0] > TOL_VERDICT * block.bound[0]
            assert block.entangled == [False]
            assert not detected(state, params, (y,))
        assert not full_path(state, params, all_subsets())
        # A thousand times nearer, screen 3 would settle all four mixed
        # classes; each reaches the SVD instead.
        near = (tuple(complex(x) * (1e-3 if abs(x) > 2 else 1) for x in pair),)
        assert svd_shapes(state, near, MIXED_CLASSES) == [(1,)] * 4


    @settings(max_examples=100)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**31 - 1), first=st.booleans(),
           check=st.booleans(), params=st.lists(kernel_params(), min_size=1, max_size=6))
    def test_one_dimensional_factor_never_flags(self, n, seed, first, check, params):
        # Every state of C^1 kron C^n is a product, so no pair of any class
        # is flagged, checked or not.
        dims = SubsystemDims(1, n) if first else SubsystemDims(n, 1)
        state = DensityState(dims, random_separable(dims, 3, seed).state.mat, check=check)
        assert not any(any(block.entangled) for block in verdict_blocks(state, params, all_subsets()))
        assert not detected(state, params, all_subsets())


class TestStateSpectra:
    @settings(max_examples=100)
    @given(state=kernel_states(), ppt_first=st.booleans())
    def test_cached_spectra_as_eigvalsh(self, state, ppt_first):
        # Bit for bit, whichever of ppt_check and detected's screen 3 takes
        # T_A rho's spectrum first.
        partial = partial_transpose(state.mat, state.dims, "A")
        want = np.linalg.eigvalsh(partial)
        if ppt_first:
            statistic = ppt_check(state).statistic
            _ppt_clears(state)
        else:
            _ppt_clears(state)
            statistic = ppt_check(state).statistic
        assert statistic.hex() == float(want[0]).hex()
        assert state.pt_spectrum.tobytes() == want.tobytes()
        assert state.spectrum.tobytes() == np.linalg.eigvalsh(state.mat).tobytes()
        for spectrum in (state.spectrum, state.pt_spectrum):
            with pytest.raises(ValueError, match="read-only"):
                spectrum[0] = 0.0

    def test_validation_keeps_its_spectrum(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda mat: calls.append(mat.shape) or eigvalsh(mat))
        checked = random_state(3, 3, 5)
        unchecked = DensityState(checked.dims, checked.mat, check=False)
        assert calls == [(9, 9)]
        assert checked.spectrum.tobytes() == unchecked.spectrum.tobytes()
        assert calls == [(9, 9)] * 2  # the unchecked state's, on first use
        assert checked.spectrum is checked.spectrum and unchecked.pt_spectrum is unchecked.pt_spectrum
        assert calls == [(9, 9)] * 3

    def test_unchecked_non_hermitian_after_detected(self):
        # An unchecked state with a Hermiticity defect of 1e-9, after
        # detected and with T_A rho's spectrum already cached: ppt_check
        # still tests the state first.
        mat = random_separable(SubsystemDims(3, 3), 12, 0).state.mat.copy()
        mat[0, 1] += 0.5e-9j
        mat[1, 0] += 0.5e-9j
        state = DensityState(SubsystemDims(3, 3), mat, check=False)
        detected(state, COMPARE_GRID, all_subsets())
        state.pt_spectrum
        assert "pt_spectrum" in vars(state)
        message = "max |M_ij - conj(M_ji)| = 1.000e-09 exceeds 1e-12"
        with pytest.raises(NotHermitian, match=f"^{re.escape(message)}$"):
            ppt_check(state)


class TestMapCoefficients:
    @settings(max_examples=100)
    @given(state=kernel_states(), params=st.lists(kernel_params(), min_size=1, max_size=6))
    def test_maps_as_uncached_formula(self, state, params):
        m, n = state.dims.m, state.dims.n
        rho_a, rho_b = state.reductions
        a, b, ab = np.array([(x, y, x * y) for x, y in params]).T[:, :, None, None]
        want = (ab * np.eye(m * n) - a * kron(np.eye(m, dtype=complex), rho_b)
                - b * kron(rho_a, np.eye(n, dtype=complex)) + state.mat)
        _map_coefficients.cache_clear()
        for _ in range(2):  # built, then read from the cache
            assert reduction_maps(state, params).tobytes() == want.tobytes()
        assert _map_coefficients.cache_info().hits == 1
        for coefficient in _map_coefficients(tuple(params), m * n):
            assert not coefficient.flags.writeable

    @pytest.mark.parametrize("middle,name", [
        ((1e200, 1e200), "a=1e+200, b=1e+200"),  # ab overflows
        ((1.7e308, -1.0), "a=1.7e+308, b=-1"),  # ab is finite, ab - a (rho_B)_ii is not
    ])
    def test_overflow_named_from_the_cache(self, middle, name):
        state = random_density_state(SubsystemDims(3, 3), 1).state
        params = ((0.5 + 0j, -0.25 + 0j), tuple(map(complex, middle)), (0.2 + 0j, 1j))
        message = f"the map, its trace norm or the bound is not finite at {name}"
        _map_coefficients.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):  # built, then read from the cache
                with pytest.raises(ParamOutOfRange, match=f"^{re.escape(message)}$"):
                    reduction_maps(state, params)
        assert _map_coefficients.cache_info().hits == 1


    def test_empty_params(self):
        # No pair: an empty (0, d, d) stack, one block of empty lists per
        # class, and no flag.
        state = werner(3, 0.5).state
        assert reduction_maps(state, ()).shape == (0, 9, 9)
        blocks = list(verdict_blocks(state, (), all_subsets()))
        assert [block[1:] for block in blocks] == [([], [], [], [])] * 8
        assert detected(state, (), all_subsets()) is False


class TestPptScreen:
    @settings(max_examples=150)
    @given(
        m=st.integers(2, 4),
        n=st.integers(2, 4),
        seed=st.integers(0, 2**31 - 1),
        f=st.floats(0.97, 1.03),
        c=st.one_of(st.none(), st.floats(0.05, 0.95)),
        params=st.lists(st.tuples(complex_scalar(), complex_scalar()), min_size=1, max_size=6),
    )
    def test_mixed_excess_within_ppt_defect(self, m, n, seed, f, c, params):
        # On a PSD, PPT state no mixed class tops its bound, at any complex
        # (a, b); with lambda = max(0, -lambda_min(rho), -lambda_min(T_A
        # rho)) the relative excess is at most 2 d lambda.  Random states
        # mixed with noise to within 3% of the PPT boundary, either side,
        # and horodecki_3x3 (PPT), at |a|, |b| up to 1e5.
        state = noisy_state(m, n, seed, f) if c is None else horodecki_3x3(c).state
        d = state.dims.total
        lam = max(0.0, -state.spectrum[0], -state.pt_spectrum[0])
        for block in verdict_blocks(state, params, MIXED_CLASSES):
            for statistic, bound in zip(block.statistic, block.bound):
                assert statistic - bound <= 2 * d * lam * bound + 1e-12 * max(1.0, bound)

    @pytest.mark.parametrize("margin,clears", [(0.9, True), (1.1, False)])
    @pytest.mark.parametrize("side", [-1, 1], ids=["rho", "T_A-rho"])
    def test_margin_edge(self, side, margin, clears):
        # The checked isotropic state at q = side (1/3 + eps).  At q = -1/3 -
        # eps rho's least eigenvalue, (1 + 3q)/4, is -3 eps/4 and T_A rho is
        # PSD; at q = 1/3 + eps T_A rho's, (1 - 3q)/4, is -3 eps/4 and rho
        # is PSD.  So 2 d lambda = 6 eps, and eps = margin TOL_VERDICT/12
        # puts screen 3's sum at 0.45 or 0.55 TOL_VERDICT, inside or outside
        # its TOL_VERDICT/2.  No mixed or Hermitian class flags on compare's
        # grid; inside, the screen settles all six, and outside each takes
        # one stack of SVDs.  Without the factor d, or without either
        # spectrum, the outside case would settle.
        eps = margin * TOL_VERDICT / 12
        state = isotropic_state(side * (1 / 3 + eps))
        lam = max(-state.spectrum[0], -state.pt_spectrum[0])
        assert lam == pytest.approx(3 * eps / 4, rel=1e-6)
        assert (state.pt_spectrum if side == -1 else state.spectrum)[0] > 0
        assert _ppt_clears(state) is clears
        assert svd_shapes(state, COMPARE_GRID, MIXED_CLASSES) == ([] if clears else [(36,)] * 4)
        assert svd_shapes(state, COMPARE_GRID, HERMITIAN_CLASSES) == ([] if clears else [(36,)] * 2)

    @pytest.mark.parametrize("t,clears", [(0.5, False), (0.08, True)])
    def test_trace_defect_edge(self, t, clears):
        # The unchecked (1 - t TOL_VERDICT) I/4, 2x2, is PSD and PPT with no
        # skew part, but X(1, 1) = (1 + 3 t TOL_VERDICT) I/4, so the full
        # path's excess there is 3 t TOL_VERDICT in both Hermitian classes:
        # flagged at t = 0.5.  Screen 3's sum bounds the six classes on any
        # matrix (Theorem 2 and Theorem 1's corollary), and only its trace
        # term, (d + 1) delta = 5 t TOL_VERDICT, keeps the screen from
        # clearing that state; at t = 0.08 the screen clears, and no pair of
        # the six classes flags at a corner.
        state = DensityState(SubsystemDims(2, 2), (1 - t * TOL_VERDICT) * np.eye(4) / 4, check=False)
        assert _ppt_clears(state) is clears
        assert full_path(state, CORNERS, HERMITIAN_CLASSES + MIXED_CLASSES) is not clears

    def test_unchecked_state_takes_the_svd(self):
        # The same separable matrix, checked and unchecked.  Screen 3 clears
        # it either way, but runs on checked states only, so only the
        # unchecked state's mixed classes reach the SVD.
        checked = random_separable(SubsystemDims(3, 3), 12, 0).state
        unchecked = DensityState(checked.dims, checked.mat, check=False)
        assert _ppt_clears(checked) is _ppt_clears(unchecked) is True
        assert svd_shapes(checked, COMPARE_GRID, MIXED_CLASSES) == []
        assert svd_shapes(unchecked, COMPARE_GRID, MIXED_CLASSES) == [(36,)] * 4

    def test_skew_terms_keep_a_large_state_open(self):
        # |0><0| kron I/8 on 8x8 plus c G, G skew-Hermitian with every
        # off-diagonal entry of modulus 1, passes validation with a
        # Hermiticity defect of 2c = 0.9e-12.  Its skew norm is s = 0.9e-12
        # sqrt(64 * 63) = 5.7e-11, and both spectra reach down to about
        # -6e-12, so lambda is about s/2 + 6e-12 and 2 d lambda 0.45
        # TOL_VERDICT, while the skew part's own term, sqrt(r/2) (1 + m + n)
        # s, adds 0.19 TOL_VERDICT: 0.64 together, past the screen's
        # TOL_VERDICT/2, so the mixed classes take the SVD.  Without the
        # skew term, or without s/2 in lambda, the screen would clear it.
        rng = np.random.default_rng(3)
        phases = np.exp(2j * np.pi * rng.random((64, 64)))
        g = np.triu(phases, 1) - np.triu(phases, 1).conj().T
        mat = np.kron(np.diag([1.0] + [0.0] * 7), np.eye(8) / 8) + 0.45e-12 * g
        state = DensityState(SubsystemDims(8, 8), mat)
        assert abs(state.mat - state.mat.conj().T).max() == pytest.approx(0.9e-12, rel=1e-9)
        assert -1e-11 < min(state.spectrum[0], state.pt_spectrum[0]) < 0
        assert _ppt_clears(state) is False
        pairs = ((0.5 + 0j, 2j), (-3.0 + 0j, 0.25 + 0j))
        assert svd_shapes(state, pairs, MIXED_CLASSES) == [(2,)] * 4


class TestZZZG:
    @settings(max_examples=150)
    @given(
        state=kernel_states(),
        params=st.lists(st.tuples(real_or_complex_scalar(), real_or_complex_scalar()).map(
            lambda ab: (complex(ab[0]) / 10, complex(ab[1]) / 10)), min_size=1, max_size=6),
    )
    def test_realignment_excess_within_zzzg(self, state, params):
        # Every pair's realignment statistic, at complex (a, b) up to 1e4, is
        # at most the product bound sqrt(((h_a + delta)^2 - alpha)((h_b +
        # delta)^2 - beta)) + ||R(Delta)||_1 plus rounding, and its excess
        # at most the bound's supremum, ZZZG's ||R(Delta)||_1 - sqrt((1 -
        # q_A)(1 - q_B)), plus rounding.
        rho_a, rho_b = state.reductions
        residual = trace_norm(realign(state.mat - kron(rho_a, rho_b), state.dims))
        alpha, beta = (1 - np.vdot(x, x).real for x in (rho_a, rho_b))
        delta = abs(np.trace(rho_a) - 1)
        m, n, supremum = state.dims.m, state.dims.n, zzzg(state)
        (block,) = verdict_blocks(state, params, (REALIGNMENT,))
        for (a, b), statistic, bound in zip(params, block.statistic, block.bound):
            h_a, h_b = h_factor(a, m, False, True), h_factor(b, n, True, False)
            product = np.sqrt(((h_a + delta) ** 2 - alpha) * ((h_b + delta) ** 2 - beta))
            assert statistic <= product + residual + 1e-12 * max(1.0, bound)
            assert statistic - bound <= supremum + 1e-12 * max(1.0, bound)

    @settings(max_examples=150)
    @given(state=kernel_states(), params=st.lists(kernel_params(), min_size=1, max_size=6))
    def test_frobenius_within_realignment(self, state, params):
        # ||X||_F = ||R(X)||_F <= ||R(X)||_1 at every pair, and the two
        # classes share the root-root bound: the computed Frobenius
        # statistic is at most the computed realignment statistic plus 4 d
        # eps of it, and no Frobenius pair flags where screen 4, ZZZG's
        # bound, settles the realignment class.
        d, eps = state.dims.total, np.finfo(float).eps
        frobenius, realignment = verdict_blocks(state, params, (FROBENIUS, REALIGNMENT))
        assert frobenius.bound == realignment.bound
        for f, r in zip(frobenius.statistic, realignment.statistic):
            assert f <= r * (1 + 4 * d * eps)
        if _split_settles(state):
            assert not any(frobenius.entangled)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (4, 3), (4, 4)])
    def test_separable_states_pass(self, m, n):
        # Mixed reductions; test_pure_products_take_no_svd takes pure ones.
        for seed in range(20):
            for k in (2, 5, 12):
                state = random_separable(SubsystemDims(m, n), k, seed).state
                assert _split_settles(state) is True

    def test_separable_takes_no_split(self):
        # compare's three separable states: ZZZG settles the realignment
        # class whole, from the residual's SVD alone, none of a map, and
        # that SVD is _split_settles', cached on the state, so detected
        # takes none.
        for seed in range(3):
            state = random_separable(SubsystemDims(3, 3), 12, seed).state
            assert _split_settles(state) is True
            assert svd_shapes(state, COMPARE_GRID, (REALIGNMENT,)) == []

    def test_violated_class_test_falls_back_to_the_split(self):
        # horodecki c = 0.5 is bound entangled, and ZZZG detects it, so the
        # class test fails and the root classes go to verdict_blocks, one
        # stack of SVDs each, the realignment class first, which flags,
        # alone or with all subsets, where the Frobenius class would come
        # first in order of request.  Screen 3 settles the other six.  The
        # residual's SVD is _split_settles', cached on the state.
        state = horodecki_3x3(0.5).state
        assert zzzg(state) > 1e-3
        assert _split_settles(state) is False
        assert svd_shapes(state, COMPARE_GRID, (REALIGNMENT,)) == [(36,)]
        assert svd_shapes(state, COMPARE_GRID, all_subsets()) == [(36,)]

    @pytest.mark.parametrize("excess,stacks", [(0.45, 0), (0.55, 1)])
    def test_class_edge(self, excess, stacks):
        # (1-p) I/4 + p|Phi+><Phi+| with p = (1 + 2 excess)/3: ZZZG's excess
        # bound is excess to rounding, so the class test passes at 0.45
        # TOL_VERDICT and leaves the class to verdict_blocks at 0.55
        # TOL_VERDICT, one stack of SVDs, which flags nothing.  A clearance
        # of TOL_VERDICT settles the class at 0.55.  The residual's SVD is
        # _split_settles', cached on the state, so detected takes none.
        p = (1 + 2 * excess * TOL_VERDICT) / 3
        ket = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        state = DensityState(SubsystemDims(2, 2), (1 - p) * np.eye(4) / 4 + p * np.outer(ket, ket))
        assert zzzg(state) == pytest.approx(excess * TOL_VERDICT, rel=1e-4)
        assert _split_settles(state) is (stacks == 0)
        maps = svd_shapes(state, COMPARE_GRID, (REALIGNMENT,))
        assert maps == [(36,)] * stacks
        assert not full_path(state, COMPARE_GRID, (REALIGNMENT,))

    def test_trace_term_keeps_the_flag(self):
        # Half a separable state, unchecked: its purities are a quarter, so
        # ZZZG's own excess bound is about -0.54, yet the realignment class
        # flags far out, where the trace defect, 0.5 * (h_a + h_b), outgrows
        # the gain.  Only the trace term keeps the class test from passing.
        state = DensityState(SubsystemDims(3, 3),
                             0.5 * random_separable(SubsystemDims(3, 3), 12, 0).state.mat,
                             check=False)
        assert zzzg(state) < -0.5
        assert _split_settles(state) is False
        params = [(complex(a), complex(b)) for a in (-1e3, 1.0, 1e5) for b in (-1e3, 0.5, 1e5)]
        assert full_path(state, params, (REALIGNMENT,))
        assert detected(state, params, (REALIGNMENT,))

    def test_purity_above_one_leaves_the_class_open(self):
        # An unchecked product of two non-PSD unit-trace factors with purity
        # 2.5: Delta is 0, so ZZZG's residual is too, but sqrt((1 - q_A)(1 -
        # q_B)) no longer bounds the rank-one term, whose trace norm 2.5
        # flags (0, 0) against bound 1.  alpha = beta = -1.5 go into the
        # trace term as 1.5/sqrt(2), which keeps the class open; clamped at
        # 0 without it, the screen would settle the class.  The state is
        # unchecked, so detected takes the full path, and the pair's one
        # SVD.
        factor = np.array([[0.5, 1.0], [1.0, 0.5]])
        state = DensityState(SubsystemDims(2, 2), np.kron(factor, factor), check=False)
        assert _split_settles(state) is False
        pair = ((0j, 0j),)
        assert full_path(state, pair, (REALIGNMENT,))
        assert svd_shapes(state, pair, (REALIGNMENT,)) == [(1,)]

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_pure_products_take_no_svd(self, m, n):
        # random_separable(k=1): both reductions are pure, so a purity may
        # round past 1, and after screen 4's outward rounding it always
        # does; that overshoot goes into the trace term, so ZZZG still
        # settles the realignment class whole, from the residual's SVD
        # alone, which _split_settles took and the state caches.
        for seed in range(20):
            state = random_separable(SubsystemDims(m, n), 1, seed).state
            assert _split_settles(state) is True
            assert svd_shapes(state, COMPARE_GRID, (REALIGNMENT,)) == []


class TestBoundTable:
    @pytest.mark.parametrize("ysets", [all_subsets(), all_subsets()[::-1],
                                       (GptOpSet.from_code("rA,cB"), GptOpSet())],
                             ids=["all", "reversed", "two"])
    def test_equals_classes_lists(self, ysets):
        # Each class's bounds are the h_factor products, hex for hex; every
        # request is served by its own subset or its complement.
        params = (*COMPARE_GRID, *COMPLEX_PARAMS, (1e200 + 0j, 3j), (1e300j, 1e10 + 0j))
        dims = SubsystemDims(3, 2)
        table = codes, owner, limits = _bound_table(params, dims, ysets)
        assert limits.shape == (len(params), len(codes))
        for c, member in enumerate(all_subsets()[code] for code in codes):
            assert not member.rA
            want = [h_factor(a, 3, member.rA, member.cA) * h_factor(b, 2, member.rB, member.cB)
                    for a, b in params]
            assert [x.hex() for x in limits[:, c].tolist()] == [x.hex() for x in want]
        for y, c in zip(ysets, owner.tolist()):
            assert all_subsets()[codes[c]] in (y, all_subsets()[15 - all_subsets().index(y)])
        assert not any(x.flags.writeable for x in table)

    def test_entry_count_is_the_table_size(self):
        # The cache keeps the table by its entry count, the table's own size
        # where every class is requested.
        table = _bound_table(COMPARE_GRID, SubsystemDims(3, 3), all_subsets())
        assert _bound_table.entries(COMPARE_GRID, SubsystemDims(3, 3), all_subsets()) == sum(
            a.size for a in table)

    def test_second_state_takes_no_factor(self, monkeypatch):
        import sepscope.criteria as criteria

        calls = []
        original = criteria._factor
        monkeypatch.setattr(criteria, "_factor",
                            lambda x, dim, same: calls.append(x) or original(x, dim, same))
        _bound_table.cache_clear()
        grid = [(complex(a), complex(b)) for a in AB_TEST_GRID for b in AB_TEST_GRID]
        states = [random_separable(SubsystemDims(3, 3), 12, seed).state for seed in range(2)]
        for state in states:
            assert not detected(state, grid, all_subsets())
        assert len(calls) == 4 * 36
        # A grid built afresh, as compare builds it for each call, is the same key.
        grid = [(complex(a), complex(b)) for a in AB_TEST_GRID for b in AB_TEST_GRID]
        assert not detected(states[0], grid, all_subsets())
        assert len(calls) == 4 * 36

    def test_second_evaluate_takes_no_factor(self, monkeypatch):
        # verdict_blocks reads the same cached table: a second evaluate with
        # the same (a, b, y), on another state, calls no _factor.
        import sepscope.criteria as criteria

        calls = []
        original = criteria._factor
        monkeypatch.setattr(criteria, "_factor",
                            lambda x, dim, same: calls.append(x) or original(x, dim, same))
        _bound_table.cache_clear()
        p, y = ReductionParams(0.3 - 0.7j, 1.2 + 0.4j), GptOpSet.from_code("rA,cB")
        first = evaluate(random_state(3, 3, 1), p, y)
        assert len(calls) == 2
        second = evaluate(random_state(3, 3, 2), p, y)
        assert len(calls) == 2 and second.bound == first.bound


@st.composite
def split_states(draw):
    """kernel_states, and unchecked states with a skew-Hermitian part or a
    trace other than 1."""
    kind = draw(st.sampled_from(["kernel", "skew", "trace"]))
    if kind == "kernel":
        return draw(kernel_states())
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    mat = random_state(m, n, seed).mat
    if kind == "skew":
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
        mat = mat + draw(st.sampled_from([1e-12, 1e-6, 1e-3, 0.1, 1.0])) * (g - g.conj().T) / 2
    else:
        mat = draw(st.sampled_from([1e-3, 0.5, 3.0, -2.0, 1e3])) * mat
    return DensityState(SubsystemDims(m, n), mat, check=False)


class TestSplit:
    @settings(max_examples=150)
    @given(
        state=split_states(),
        params=st.lists(st.builds(ReductionParams, real_or_complex_scalar(),
                                  real_or_complex_scalar()), min_size=1, max_size=6),
    )
    def test_product_and_residual_bound_the_realigned_map(self, state, params):
        # ||R(rho~)||_1 <= ||u|| ||v|| + ||R(Delta)||_1 for any matrix, checked
        # or not: the product is the exact trace norm of the rank-one term.
        residual = trace_norm(realign(state.mat - kron(*state.reductions), state.dims))
        statistic = np.array(trace_norm(realign(reduction_maps(state, params), state.dims)))
        bound = np.array([split_product(state, a, b) for a, b in params]) + residual
        assert np.all(statistic <= bound + 1e-12 * np.maximum(1.0, bound))

    @settings(max_examples=150)
    @given(
        m=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        a=real_or_complex_scalar().map(lambda x: complex(x) / 10),
    )
    def test_distance_identity(self, m, seed, scale, a):
        # For any m x m matrix X and complex a, with the root factor h_a,
        # alpha = 1 - ||X||_F^2 and delta = |tr X - 1|: ||aI - X||_F^2 = h_a^2
        # - alpha - 2 Re(a^* (tr X - 1)), and for m >= 2, where |a| <= h_a,
        # that is at most (h_a + delta)^2 - alpha.
        rng = np.random.default_rng(seed)
        x = scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        h = h_factor(a, m, False, True)
        alpha, trace = 1 - np.linalg.norm(x) ** 2, np.trace(x)
        distance = np.linalg.norm(a * np.eye(m) - x) ** 2
        size = (h + abs(trace - 1)) ** 2 + abs(alpha)  # the terms' magnitude
        assert distance == pytest.approx(h ** 2 - alpha - 2 * (np.conj(a) * (trace - 1)).real,
                                         rel=0, abs=1e-14 * size)
        if m >= 2:
            assert distance <= (h + abs(trace - 1)) ** 2 - alpha + 1e-14 * size

    def test_residual_is_zzzg_statistic(self):
        # The one matrix whose trace norm detected takes in screen 4 is
        # R(rho - rho_A kron rho_B), the state's cached residual, and its
        # trace norm, on this bound entangled state, exceeds ZZZG's
        # separable bound sqrt((1 - tr rho_A^2)(1 - tr rho_B^2)).
        state = horodecki_3x3(0.5).state
        rho_a, rho_b = partial_trace(state, "B"), partial_trace(state, "A")
        residuals = []
        realignment = (GptOpSet(cA=True, rB=True),)
        # The residual is a single matrix; the SVDs of the maps take stacks.
        with seen_trace_norms(lambda mat: np.ndim(mat) == 2 and residuals.append(mat)):
            assert detected(state, COMPARE_GRID, realignment) == full_path(
                state, COMPARE_GRID, realignment)
        want = trace_norm(realign(state.mat - kron(rho_a, rho_b), state.dims))
        assert [trace_norm(mat) for mat in residuals] == [want] == [state.residual]
        purity_a, purity_b = (np.vdot(x, x).real for x in (rho_a, rho_b))
        assert state.residual > np.sqrt((1 - purity_a) * (1 - purity_b)) + 1e-3


WERNER_PARAMS = (
    ReductionParams(0.0, 0.0),
    ReductionParams(1.0, 1.0),
    ReductionParams(-1.0 / 3.0, 2.0 / 3.0),
    ReductionParams(1e5, -1e5),
    ReductionParams(1e-3, 1e5),
    ReductionParams(0.5 + 0.5j, -2j),
    ReductionParams(1e5j, 3.0 - 1e5j),
    ReductionParams(-7e4 + 7e4j, 0.25),
)


class TestWernerExact:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("f", [-1.0, -0.5, -0.1, 0.0, 1.0 / 3.0, 1.0])
    def test_class_none_statistic(self, d, f):
        # Both reductions are I/d, so rho~ = rho + c I, c = ab - (a + b)/d, is
        # normal, with the eigenvalues l_+ + c on the symmetric subspace and
        # l_- + c on the antisymmetric one.
        state = werner(d, f).state
        l_plus, l_minus = ((d - f + s * (d * f - 1)) / (d**3 - d) for s in (1, -1))
        for p in WERNER_PARAMS:
            c = p.a * p.b - (p.a + p.b) / d
            want = d * (d + 1) / 2 * abs(l_plus + c) + d * (d - 1) / 2 * abs(l_minus + c)
            got = evaluate(state, p, GptOpSet())
            assert abs(got.statistic - want) <= 1e-12 * max(1.0, got.bound)
        assert detected(state, WERNER_PARAMS, all_subsets()) == full_path(
            state, WERNER_PARAMS, all_subsets())


class TestPptImpliesGrc:
    """compare takes its grc flag from the PPT oracle's where that flags: the
    pair (0, 0), {rA,cA} is the partial transpose, bound 1, and its excess is
    at least twice the PPT violation, less the trace's 1e-12 tolerance."""

    @staticmethod
    def pair(state):
        return evaluate(state, ReductionParams(0.0, 0.0), PARTIAL_TRANSPOSE_Y["A"])

    @settings(max_examples=150)
    @given(state=kernel_states())
    def test_ppt_flag_implies_grc_flag(self, state):
        ppt = ppt_check(state)
        assume(ppt.entangled)
        verdict = self.pair(state)
        assert verdict.bound == 1.0
        assert verdict.entangled
        assert verdict.violation >= 2 * ppt.violation - 1e-12
        assert detected(state, COMPARE_GRID, all_subsets())

    @pytest.mark.parametrize("f,ppt_flags,ppt_violation,grc_violation", [
        (-4e-8, True, 1.33e-8, 2.67e-8),
        # Only one way: grc's margin is twice PPT's, so grc flags alone here.
        (-2e-8, False, 6.67e-9, 1.33e-8),
    ])
    def test_werner_edges(self, f, ppt_flags, ppt_violation, grc_violation):
        state = werner(3, f).state
        ppt, verdict = ppt_check(state), self.pair(state)
        assert (ppt.entangled, verdict.entangled) == (ppt_flags, True)
        assert ppt.violation == pytest.approx(ppt_violation, rel=1e-2)
        assert verdict.violation == pytest.approx(grc_violation, rel=1e-2)
        assert verdict.violation >= 2 * ppt.violation - 1e-12


class TestRealignmentImpliesGrc:
    """compare takes its grc flag from the realignment oracle's where that
    flags TOL_VERDICT past its line: the oracle's statistic is grc's at
    (0, 0) in {cA,rB}, bound 1, up to the signs of zero entries and the
    SVD's rounding."""

    @settings(max_examples=150)
    @given(state=st.one_of(kernel_states(),
                           st.floats(0.01, 0.99).map(lambda c: horodecki_3x3(c).state)))
    def test_realignment_margin_implies_grc_flag(self, state):
        realignment = realignment_check(state)
        assume(flag_margin(realignment) > TOL_VERDICT)
        (block,) = verdict_blocks(state, ((0j, 0j),), (REALIGNMENT,))
        assert block.bound == [1.0] and block.entangled == [True]
        assert block.statistic[0] == pytest.approx(realignment.statistic, rel=1e-13)

    def test_margin_inside_tolerance_calls_detected(self, monkeypatch, capsys):
        # (1 - p) I/4 + p|Phi+><Phi+| with p = (1 + 3 TOL_VERDICT)/3 has
        # realignment statistic 1 + 1.5 TOL_VERDICT, flagged 0.5 TOL_VERDICT
        # past the line, and PPT violation 0.75 TOL_VERDICT, not flagged.  So
        # compare takes neither shortcut and prints detected's grc flag,
        # the full path's.
        import sepscope.cli as cli

        state = isotropic_state((1 + 3 * TOL_VERDICT) / 3)
        assert 0 < flag_margin(realignment_check(state)) <= TOL_VERDICT
        assert not ppt_check(state).entangled
        member = LabeledState("isotropic", {"p": 1 / 3}, state)
        monkeypatch.setitem(FAMILIES, "werner-3",
                            Family(lambda o, f: member, None, None, lambda o, count: [0.0] * count))
        calls = []
        original = cli.detected
        monkeypatch.setattr(cli, "detected",
                            lambda rho, params, ysets: calls.append(rho) or original(rho, params, ysets))
        assert compare_grc_column(capsys, ["--family", "werner-3"], 1) == [True]
        assert [rho is state for rho in calls] == [True]
        assert full_path(state, COMPARE_GRID, all_subsets())


def isotropic_3x3(fidelity):
    """p|Phi+><Phi+| + (1-p) I/9 on 3x3 with <Phi+|rho|Phi+> = fidelity:
    least eigenvalue of T_A rho (1/3 - fidelity)/2, and of I kron rho_B -
    rho 1/3 - fidelity, so PPT and reduction for fidelity <= 1/3."""
    ket = np.eye(3).reshape(9) / np.sqrt(3)
    p = (9 * fidelity - 1) / 8
    return DensityState(SubsystemDims(3, 3), p * np.outer(ket, ket) + (1 - p) * np.eye(9) / 9)


def compare_row(monkeypatch, capsys, member, oracle="reduction"):
    """compare's four flags (ppt, reduction, realignment, grc) on member,
    injected as the werner-3 family, and the states the named oracle was
    called on."""
    import sepscope.criteria as criteria

    monkeypatch.setitem(FAMILIES, "werner-3",
                        Family(lambda o, f: member, None, None, lambda o, count: [0.0] * count))
    calls = []
    original = getattr(criteria, f"{oracle}_check")
    monkeypatch.setattr(criteria, f"{oracle}_check", lambda rho: calls.append(rho) or original(rho))
    assert main(["compare", "--family", "werner-3", "--count", "1"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    return [cell == "Y" for cell in row.split()[-4:]], calls


# compare's calls into the reduction oracle on each COMPARE_TRAFFIC run: a
# state whose PPT spectrum clears the reduction column (Theorem 6) takes
# none.  Every separable and Horodecki state is PPT; every random 3x3 state
# is NPT, and 16 of the 20 2x2 ones; the werner-3 members with f < 0, 10 of
# 21, are NPT.
REDUCTION_CALLS = {"werner-3": 10, "horodecki": 0, "separable-k1": 0, "separable-k12": 0,
                   "random": 20, "random-2x2": 16}


class TestReductionScreen:
    """compare reads a checked state's reduction column off the PPT
    oracle's cached spectrum where _reduction_clears holds (README Theorem
    6): with lambda = lambda_min(T_A rho), both reduction maps are at least
    (max(m, n) - 1) min(0, lambda) I."""

    @settings(max_examples=200)
    @given(state=st.one_of(
        kernel_states(),
        st.builds(noisy_state, st.integers(2, 4), st.integers(2, 4),
                  st.integers(0, 2**31 - 1), st.floats(0.97, 1.03)),
        st.builds(lambda n, seed, flip: DensityState(
            SubsystemDims(n, 1) if flip else SubsystemDims(1, n), random_density(n, seed)),
            st.integers(2, 6), st.integers(0, 2**31 - 1), st.booleans())))
    def test_reduction_within_ppt_bound(self, state):
        # Theorem 6 on every draw, up to rounding, and no reduction flag
        # wherever the screen clears.  The noisy states lie within 3% of
        # the PPT boundary, either side, so both sides of the screen are
        # drawn.
        lam = float(state.pt_spectrum[0])
        r = max(state.dims.m, state.dims.n)
        reduction = reduction_check(state)
        assert reduction.statistic >= (r - 1) * min(0.0, lam) - 1e-12
        if _reduction_clears(state):
            assert not reduction.entangled

    @pytest.mark.parametrize("gap,clears", [(1e-10, True), (1e-12, False)])
    def test_budget_edge(self, gap, clears):
        # isotropic_3x3(1/3 + x) has lambda = -x/2, so (r - 1) max(0,
        # -lambda) = x.  The budget r (d TOL_HERM + d^2 eps) is 2.7e-11 at
        # 3x3: x = T/2 - 1e-10 clears, x = T/2 - 1e-12 does not, though
        # without the budget, or without the factor r - 1, it would.
        x = TOL_VERDICT / 2 - gap
        state = isotropic_3x3(1 / 3 + x)
        assert -state.pt_spectrum[0] == pytest.approx(x / 2, rel=1e-6)
        assert _reduction_clears(state) is clears
        assert not reduction_check(state).entangled

    @pytest.mark.parametrize("excess,row,oracle_calls", [
        # PPT reads -0.75 T, not flagged, while reduction reads -1.5 T and
        # flags: the bound is tight, so "PPT silent" does not clear the
        # column, and the oracle decides.
        (1.5, [False, True, True, True], 1),
        # PPT reads -0.1 T, so the column is at most 0.2 T plus the budget:
        # cleared, and the oracle's own verdict is "-" too.
        (0.2, [False, False, False, False], 0),
    ], ids=["reduction-flags", "screen-clears"])
    def test_isotropic_edge(self, monkeypatch, capsys, excess, row, oracle_calls):
        state = isotropic_3x3(1 / 3 + excess * TOL_VERDICT)
        member = LabeledState("isotropic", {"p": 1 / 3}, state)
        flags, calls = compare_row(monkeypatch, capsys, member)
        assert flags == row
        assert [rho is state for rho in calls] == [True] * oracle_calls
        assert _reduction_clears(state) is (oracle_calls == 0)
        assert reduction_check(state).entangled is row[1]
        assert ppt_check(state).entangled is False

    def test_unchecked_state_takes_the_oracle(self):
        # The oracle tests an unchecked state for Hermiticity, so the screen
        # never speaks for one.
        state = random_separable(SubsystemDims(3, 3), 12, 0).state
        assert _reduction_clears(state)
        assert not _reduction_clears(DensityState(state.dims, state.mat, check=False))

    @pytest.mark.parametrize("family", sorted(REDUCTION_CALLS))
    def test_oracle_calls_per_family(self, monkeypatch, capsys, family):
        import sepscope.criteria as criteria

        calls = []
        original = criteria.reduction_check
        monkeypatch.setattr(criteria, "reduction_check", lambda rho: calls.append(rho) or original(rho))
        assert main(["compare", *COMPARE_TRAFFIC[family][0]]) == 0
        capsys.readouterr()
        assert len(calls) == REDUCTION_CALLS[family]
        assert all(rho.pt_spectrum[0] < 0 for rho in calls)


def isotropic_edge(excess):
    """test_class_edge's (1-p) I/4 + p|Phi+><Phi+|, p = (1 + 2 excess
    TOL_VERDICT)/3: ZZZG's excess and the realignment oracle's are both
    excess TOL_VERDICT, and lambda_min(T_A rho) is -excess TOL_VERDICT/2,
    so the state sits on the PPT boundary."""
    return isotropic_state((1 + 2 * excess * TOL_VERDICT) / 3)


def noisy_horodecki(p):
    """p horodecki_3x3(1/2) + (1 - p) I/9: lambda_min(T_A rho) = (1 - p)/9,
    PPT in the interior for p < 1.  ZZZG detects it from p = 0.99535 on, the
    realignment oracle from about 0.9966."""
    mat = p * horodecki_3x3(0.5).state.mat + (1 - p) * np.eye(9) / 9
    return DensityState(SubsystemDims(3, 3), mat)


# noisy_horodecki's weight at which ZZZG's excess is 0.45 and 0.55
# TOL_VERDICT, found by bisection.
NOISY_HORODECKI_EDGE = {0.45: 0.9953453013177469, 0.55: 0.9953453028035004}


class TestRealignmentScreen:
    """compare reads an interior-PPT member's realignment column off screen
    4 where that settles (README Theorem 7): at (0, 0) the realigned map is
    R(rho) = vec(rho_A) vec(rho_B)^T + R(Delta), so ||R(rho)||_1 <= sqrt(q_A
    q_B) + ||R(Delta)||_1, at most 1 + TOL_VERDICT/2 where ZZZG settles."""

    @settings(max_examples=200)
    @given(state=st.one_of(
        kernel_states(),
        st.floats(0.0, 0.6).map(isotropic_edge),
        st.floats(0.99, 1.0).map(noisy_horodecki),
        st.builds(noisy_state, st.integers(2, 4), st.integers(2, 4),
                  st.integers(0, 2**31 - 1), st.floats(0.97, 1.03))))
    def test_realignment_within_screen(self, state):
        # The rank-one split on every draw, up to the SVDs' rounding, and
        # wherever screen 4 settles, the oracle's computed excess is at most
        # TOL_VERDICT/2 plus that rounding, d^2 eps: half the flag line
        # below it, so neither its flag nor compare's grc witness (a margin
        # past TOL_VERDICT) can be lost.
        d = state.dims.total
        rounding = d * d * float(np.finfo(float).eps)
        rho_a, rho_b = state.reductions
        purities = np.vdot(rho_a, rho_a).real * np.vdot(rho_b, rho_b).real
        realignment = realignment_check(state)
        assert realignment.statistic <= np.sqrt(purities) + state.residual + rounding
        if _split_settles(state):
            assert flag_margin(realignment) <= -TOL_VERDICT / 2 + rounding

    @pytest.mark.parametrize("excess", [0.45, 0.55])
    def test_boundary_edge(self, monkeypatch, capsys, excess):
        # test_class_edge's family: the screen settles at 0.45 TOL_VERDICT
        # only.  These members are on the PPT boundary, so compare runs the
        # oracle first either way, and its column is the oracle's: not
        # flagged, as the oracle's excess, excess TOL_VERDICT, is under
        # the line.
        state = isotropic_edge(excess)
        assert zzzg(state) == pytest.approx(excess * TOL_VERDICT, rel=1e-4)
        assert state.pt_spectrum[0] < TOL_VERDICT
        flags, calls = compare_row(monkeypatch, capsys, LabeledState("isotropic", {}, state),
                                   oracle="realignment")
        assert [rho is state for rho in calls] == [True]
        assert flags[2] is realignment_check(state).entangled is False
        assert _split_settles(state) is (excess == 0.45)
        assert flags[3] is full_path(state, COMPARE_GRID, all_subsets())

    @pytest.mark.parametrize("excess,oracle_calls", [(0.45, 0), (0.55, 1)])
    def test_interior_edge(self, monkeypatch, capsys, excess, oracle_calls):
        # An interior-PPT member at ZZZG's edge: the residual goes first,
        # and the screen settles at 0.45 TOL_VERDICT, where the oracle is
        # not run, and not at 0.55, where it is.  Either way the column is
        # the oracle's.  At 0.45 the member takes the residual's trace norm
        # alone; at 0.55 also the oracle's, and detected, which reads the
        # cached residual, the realignment and Frobenius classes' stacks.
        state = noisy_horodecki(NOISY_HORODECKI_EDGE[excess])
        assert zzzg(state) == pytest.approx(excess * TOL_VERDICT, rel=1e-3)
        assert state.pt_spectrum[0] > TOL_VERDICT
        taken = []
        with seen_trace_norms(lambda mat: taken.append(np.shape(mat))):
            flags, calls = compare_row(monkeypatch, capsys, LabeledState("noisy", {}, state),
                                       oracle="realignment")
        assert len(calls) == oracle_calls
        assert taken == [(9, 9)] + [(9, 9), (36, 9, 9), (36, 81, 1)] * oracle_calls
        assert _split_settles(state) is (oracle_calls == 0)
        assert flags[2] is realignment_check(state).entangled is False
        assert flags[3] is full_path(state, COMPARE_GRID, all_subsets())

    def test_realignment_flagged_interior_member(self, monkeypatch, capsys):
        # Past the oracle's own threshold the screen leaves the member
        # open, so it takes the residual and the oracle's SVD, one more
        # than a PPT-boundary member, and the oracle's flag decides grc.
        state = noisy_horodecki(0.999)
        assert state.pt_spectrum[0] > TOL_VERDICT
        assert flag_margin(realignment_check(state)) > TOL_VERDICT
        taken = []
        with seen_trace_norms(lambda mat: taken.append(np.shape(mat))):
            flags, calls = compare_row(monkeypatch, capsys, LabeledState("noisy", {}, state),
                                       oracle="realignment")
        assert flags == [False, False, True, True]
        assert len(calls) == 1 and taken == [(9, 9)] * 2
