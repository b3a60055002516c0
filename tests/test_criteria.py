"""Tests for the generalized reduction criterion and the oracle criteria."""

import numpy as np
import pytest

from sepscope import (
    AB_TEST_GRID,
    DensityState,
    GptOpSet,
    ReductionParams,
    SubsystemDims,
    all_subsets,
    bound_for,
    evaluate,
    evaluate_all_Y,
    generalized_reduction_map,
    h_factor,
    hermitian_eigenvalues,
    horodecki_3x3,
    kron,
    partial_trace,
    partial_transpose,
    ppt_check,
    random_density,
    random_separable,
    realignment_check,
    reduction_check,
    werner,
)

REALIGN_Y = GptOpSet(cA=True, rB=True)
PT_Y = GptOpSet(rA=True, cA=True)


def closed_form_werner_N(f):
    return max((abs(1.0 - 3.0 * f) - 2.0) / 3.0, 0.0)


def random_state(m, n, seed):
    return DensityState(SubsystemDims(m, n), random_density(m * n, seed))


class TestGeneralizedReductionMap:
    def test_zero_params_is_identity(self):
        st = werner(3, -0.4).state
        out = generalized_reduction_map(st, ReductionParams(0, 0))
        np.testing.assert_array_equal(out, st.mat)

    def test_maximally_mixed_fixed_point(self):
        st = DensityState(SubsystemDims(2, 2), np.eye(4) / 4)
        out = generalized_reduction_map(st, ReductionParams(1, 1))
        np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-15)

    def test_reduction_direction(self):
        st = random_state(2, 3, 83)
        out = generalized_reduction_map(st, ReductionParams(0, 1))
        want = st.mat - kron(partial_trace(st, "B"), np.eye(3))
        np.testing.assert_allclose(out, want, atol=1e-15)
        # trace norm ignores the overall sign of Eq-style rewriting
        from sepscope import trace_norm

        assert abs(trace_norm(out) - trace_norm(-out)) <= 1e-12

    def test_hermitian_for_real_params(self):
        st = random_state(3, 3, 89)
        out = generalized_reduction_map(st, ReductionParams(-0.7, 0.4))
        assert np.max(np.abs(out - out.conj().T)) <= 1e-14


class TestHFactor:
    def test_zero_no_flags(self):
        assert h_factor(0.0, 5, False, False) == pytest.approx(1.0, abs=1e-15)

    def test_one_both_flags_dim_three(self):
        assert h_factor(1.0, 3, True, True) == pytest.approx(2.0, abs=1e-15)

    def test_half_single_flag(self):
        assert h_factor(0.5, 2, True, False) == pytest.approx(np.sqrt(0.5), abs=1e-15)

    def test_complex_argument(self):
        got = h_factor(1j, 3, False, False)
        assert got == pytest.approx(abs(1j - 1) + 2 * abs(1j), abs=1e-15)

    def test_overflowing_square_is_infinite(self):
        assert h_factor(1e300, 2, True, False) == np.inf
        assert h_factor(1e300, 2, True, True) == 2e300

    def test_bound_pair_product(self):
        pair = bound_for(ReductionParams(1.0, 2 / 3), SubsystemDims(3, 3), REALIGN_Y)
        # single-flag branch on both sides
        assert pair.h_a == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert pair.h_b == pytest.approx(1.0, abs=1e-12)
        assert pair.product == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestEvaluate:
    def test_werner_closed_form_point(self):
        st = werner(3, -1.0).state
        v = evaluate(st, ReductionParams(0, 0), REALIGN_Y)
        assert v.statistic == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert v.bound == pytest.approx(1.0, abs=1e-15)
        assert v.violation == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert v.entangled

    def test_werner_not_detected_inside_threshold(self):
        st = werner(3, 0.5).state
        v = evaluate(st, ReductionParams(0, 2 / 3), REALIGN_Y)
        assert v.violation == 0.0
        assert not v.entangled

    def test_horodecki_detected_with_frozen_value(self):
        # oracle: brute-force realignment of the exact 9x9 matrix followed by
        # a direct SVD; the frozen value was computed with that oracle.
        st = horodecki_3x3(0.5).state
        z = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            for j in range(3):
                for mu in range(3):
                    for nu in range(3):
                        z[j * 3 + i, nu * 3 + mu] = st.mat[i * 3 + mu, j * 3 + nu]
        oracle_n = float(np.linalg.svd(z, compute_uv=False).sum()) - 1.0
        frozen_n = 0.0023272046579454475
        assert oracle_n == pytest.approx(frozen_n, abs=1e-12)
        v = evaluate(st, ReductionParams(0, 0), REALIGN_Y)
        assert v.violation == pytest.approx(frozen_n, abs=1e-10)
        assert v.entangled

    def test_separable_never_flagged(self):
        st = random_separable(SubsystemDims(3, 3), 9, seed=5).state
        for a in (0.0, 1.0):
            for b in (0.0, 2 / 3):
                v = evaluate(st, ReductionParams(a, b), REALIGN_Y)
                assert v.violation <= 1e-8


class TestEvaluateAllY:
    def test_maximally_mixed_all_zero(self):
        st = DensityState(SubsystemDims(2, 3), np.eye(6) / 6)
        verdicts = evaluate_all_Y(st, ReductionParams(0, 0))
        assert len(verdicts) == 16
        assert all(v.violation <= 1e-10 for v in verdicts)
        assert not any(v.entangled for v in verdicts)

    def test_werner_flagged_subsets(self):
        # Derived by enumeration: the two realignment-type subsets flag, and
        # so do the two partial-transpose-type subsets whose trace norm
        # exceeds 1 exactly when a negative PT eigenvalue exists.
        st = werner(3, -1.0).state
        verdicts = evaluate_all_Y(st, ReductionParams(0, 0))
        flagged = {v.yset.code for v in verdicts if v.entangled}
        assert flagged == {"cA,rB", "rA,cB", "rA,cA", "rB,cB"}

    def test_canonical_order(self):
        st = DensityState(SubsystemDims(2, 2), np.eye(4) / 4)
        verdicts = evaluate_all_Y(st, ReductionParams(0, 0))
        assert [v.yset for v in verdicts] == list(all_subsets())

    def test_pure_product_all_zero(self):
        st = random_separable(SubsystemDims(2, 3), 1, seed=3).state
        verdicts = evaluate_all_Y(st, ReductionParams(0, 0))
        assert all(v.violation <= 1e-8 for v in verdicts)


class TestPptCheck:
    @pytest.mark.parametrize("f", [-1.0, -0.5, -0.01, 0.0, 0.3, 1.0])
    def test_werner_closed_form(self, f):
        # derived oracle: the PT spectrum consists of f/3 on the maximally
        # entangled vector and (3-f)/24 with multiplicity 8
        st = werner(3, f).state
        v = ppt_check(st)
        assert v.statistic == pytest.approx(min(f / 3.0, (3.0 - f) / 24.0), abs=1e-12)
        assert v.entangled == (f < 0)

    @pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
    def test_horodecki_is_ppt(self, c):
        v = ppt_check(horodecki_3x3(c).state)
        assert v.statistic >= -1e-10
        assert not v.entangled

    def test_separable_product(self):
        st = random_separable(SubsystemDims(2, 2), 1, seed=21).state
        assert ppt_check(st).statistic >= -1e-10

    def test_both_sides_same_spectrum(self):
        st = random_state(2, 3, 97)
        eig_a = hermitian_eigenvalues(partial_transpose(st.mat, st.dims, "A"))
        eig_b = hermitian_eigenvalues(partial_transpose(st.mat, st.dims, "B"))
        np.testing.assert_allclose(eig_a, eig_b, atol=1e-12)


class TestReductionCheck:
    def test_singlet_flagged(self):
        singlet = np.zeros(4)
        singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        st = DensityState(SubsystemDims(2, 2), np.outer(singlet, singlet))
        v = reduction_check(st)
        assert v.statistic == pytest.approx(-0.5, abs=1e-12)
        assert v.entangled

    @pytest.mark.parametrize("c", [0.2, 0.5, 0.8])
    def test_horodecki_not_flagged(self, c):
        assert not reduction_check(horodecki_3x3(c).state).entangled

    def test_maximally_mixed(self):
        st = DensityState(SubsystemDims(2, 3), np.eye(6) / 6)
        v = reduction_check(st)
        assert v.statistic >= -1e-12
        assert not v.entangled


class TestRealignmentCheck:
    @pytest.mark.parametrize("f,expected", [(-1.0, True), (-0.5, True), (-0.34, True),
                                            (-1 / 3, False), (-0.2, False), (0.5, False)])
    def test_werner_threshold(self, f, expected):
        assert realignment_check(werner(3, f).state).entangled == expected

    @pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_horodecki_detected(self, c):
        assert realignment_check(horodecki_3x3(c).state).entangled

    def test_maximally_mixed_statistic(self):
        st = DensityState(SubsystemDims(2, 3), np.eye(6) / 6)
        v = realignment_check(st)
        assert v.statistic == pytest.approx(1 / np.sqrt(6), abs=1e-12)
        assert not v.entangled

    def test_matches_evaluate_instance(self):
        st = random_state(3, 3, 101)
        base = realignment_check(st)
        via_map = evaluate(st, ReductionParams(0, 0), REALIGN_Y)
        assert base.statistic == via_map.statistic
        assert base.bound == via_map.bound
        assert base.entangled == via_map.entangled


class TestOracleTable:
    def test_names_map_to_checks(self):
        from sepscope.criteria import ORACLES

        state = horodecki_3x3(0.4).state
        checks = {"ppt": ppt_check, "reduction": reduction_check,
                  "realignment": realignment_check}
        assert list(ORACLES) == list(checks)
        for name, check in checks.items():
            assert ORACLES[name](state) == check(state)

    def test_rebound_check_is_reached(self, monkeypatch):
        import sepscope.criteria as criteria

        monkeypatch.setattr(criteria, "ppt_check", lambda rho: "rebound")
        assert criteria.ORACLES["ppt"](werner(3, 0.0).state) == "rebound"


class TestSpecializationIdentities:
    def test_gpt_statistic_every_subset(self):
        from sepscope import gpt_transform, trace_norm

        st = random_state(2, 3, 103)
        for y in all_subsets():
            v = evaluate(st, ReductionParams(0, 0), y)
            assert v.statistic == trace_norm(gpt_transform(st.mat, st.dims, y))
            assert v.bound == pytest.approx(1.0, abs=1e-15)

    def test_reduction_a_side(self):
        from sepscope import trace_norm

        st = random_state(2, 3, 107)
        v = evaluate(st, ReductionParams(0, 1), GptOpSet())
        direct = trace_norm(kron(partial_trace(st, "B"), np.eye(3)) - st.mat)
        assert v.statistic == pytest.approx(direct, abs=1e-12)
        assert v.bound == pytest.approx(st.dims.n - 1, abs=1e-15)

    def test_reduction_b_side(self):
        from sepscope import trace_norm

        st = random_state(2, 3, 109)
        v = evaluate(st, ReductionParams(1, 0), GptOpSet())
        direct = trace_norm(kron(np.eye(2), partial_trace(st, "A")) - st.mat)
        assert v.statistic == pytest.approx(direct, abs=1e-12)
        assert v.bound == pytest.approx(st.dims.m - 1, abs=1e-15)


class TestVerdictEquivalences:
    def test_hundred_random_states(self):
        dims_cycle = [(2, 2), (2, 3), (3, 2), (3, 3)]
        for seed in range(100):
            m, n = dims_cycle[seed % 4]
            st = random_state(m, n, 200 + seed)
            assert evaluate(st, ReductionParams(0, 0), PT_Y).entangled == ppt_check(st).entangled
            lo_a = hermitian_eigenvalues(kron(partial_trace(st, "B"), np.eye(n)) - st.mat)[0]
            assert evaluate(st, ReductionParams(0, 1), GptOpSet()).entangled == (lo_a < -1e-8)


class TestSeparableSoundness:
    def test_grid_of_parameters(self):
        # smaller sibling of the acceptance run: 12 states, full (a,b) grid
        dims_cycle = [(2, 2), (2, 3), (3, 2), (3, 3)]
        for seed in range(12):
            m, n = dims_cycle[seed % 4]
            st = random_separable(SubsystemDims(m, n), 12, seed=400 + seed).state
            for a in AB_TEST_GRID:
                for b in AB_TEST_GRID:
                    for v in evaluate_all_Y(st, ReductionParams(a, b)):
                        assert v.violation <= 1e-8


class TestLocalUnitaryInvariance:
    def test_statistic_invariant(self):
        from sepscope import local_unitary_conjugate, random_unitary

        for seed in range(10):
            st = random_state(3, 3, 500 + seed)
            wa = random_unitary(3, 600 + seed)
            wb = random_unitary(3, 700 + seed)
            rotated = local_unitary_conjugate(st, wa, wb)
            for code in ("none", "rA", "cA,rB", "rA,cA"):
                y = GptOpSet.from_code(code)
                for a, b in ((0, 0), (0, 1), (1, 1)):
                    p = ReductionParams(a, b)
                    delta = abs(evaluate(st, p, y).statistic - evaluate(rotated, p, y).statistic)
                    assert delta <= 1e-8


class TestWernerClosedForm:
    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.0, 2 / 3), (1.0, -1 / 3), (1.0, 1.0)])
    def test_full_f_range(self, a, b):
        for k in range(0, 201, 4):
            f = -1.0 + 0.01 * k
            st = werner(3, f).state
            v = evaluate(st, ReductionParams(a, b), REALIGN_Y)
            assert abs(v.violation - closed_form_werner_N(f)) <= 1e-9

    def test_statistics_agree_between_equivalent_b(self):
        for f in (-1.0, -0.6, 0.0, 0.7):
            st = werner(3, f).state
            s0 = evaluate(st, ReductionParams(0, 0.0), REALIGN_Y).statistic
            s1 = evaluate(st, ReductionParams(0, 2 / 3), REALIGN_Y).statistic
            assert abs(s0 - s1) <= 1e-12


class TestWernerGroundTruth:
    @pytest.mark.parametrize("f", [0.0, 0.25, 0.5, 1.0])
    def test_separable_regime_never_flagged(self, f):
        # W_d is separable exactly for f >= 0, so no criterion may flag there
        st = werner(3, f).state
        assert not ppt_check(st).entangled
        assert not reduction_check(st).entangled
        assert not realignment_check(st).entangled
        for a, b in ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0)):
            assert not any(v.entangled for v in evaluate_all_Y(st, ReductionParams(a, b)))


class TestReductionParams:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ReductionParams(float("nan"), 0.0)

    def test_accepts_complex(self):
        p = ReductionParams(0.5 + 0.5j, -1.0)
        assert p.a == 0.5 + 0.5j
        st = random_state(2, 2, 811)
        tilde = generalized_reduction_map(st, p)
        assert tilde.shape == (4, 4)

    def test_overflow_names_a_and_b(self):
        from sepscope import ParamOutOfRange

        st = random_state(2, 2, 811)
        # ab overflows in the map; the statistic overflows; the squared factor overflows.
        for a, b in ((1e200, 1e200), (1e154, 1e154), (1e300, 1e7)):
            with pytest.raises(ParamOutOfRange, match=r"not finite at a=1e\+\d+, b=1e\+\d+$"):
                evaluate(st, ReductionParams(a, b), REALIGN_Y)
        # Large but finite everywhere: still evaluated.
        v = evaluate(st, ReductionParams(1e300, 1e-300), GptOpSet())
        assert np.isfinite([v.statistic, v.bound, v.violation]).all()


class TestOneVerdictRule:
    """Every oracle follows the kernel's rule, and gives the fields its own
    formulas gave before the rule was shared."""

    STATES = {
        "werner-1": lambda: werner(3, -1.0).state,
        "werner0": lambda: werner(3, 0.0).state,
        "werner0.5": lambda: werner(3, 0.5).state,
        "horodecki0.3": lambda: horodecki_3x3(0.3).state,
        "random2x3": lambda: random_state(2, 3, 907),
        "random3x3": lambda: random_state(3, 3, 911),
    }

    @staticmethod
    def reference(name, st):
        """The oracles' formulas before the rule was shared."""
        from sepscope import realign, trace_norm

        if name == "realignment":
            statistic = trace_norm(realign(st.mat, st.dims))
            violation = max(statistic - 1.0, 0.0)
            return (REALIGN_Y, statistic, 1.0, violation, violation > 1e-8)
        if name == "ppt":
            statistic = float(hermitian_eigenvalues(partial_transpose(st.mat, st.dims, "A"))[0])
        else:
            m, n = st.dims.m, st.dims.n
            lo_b = float(hermitian_eigenvalues(kron(np.eye(m), partial_trace(st, "A")) - st.mat)[0])
            lo_a = float(hermitian_eigenvalues(kron(partial_trace(st, "B"), np.eye(n)) - st.mat)[0])
            statistic = min(lo_a, lo_b)
        return (None, statistic, 0.0, max(-statistic, 0.0), statistic < -1e-8)

    @pytest.mark.parametrize("state", list(STATES))
    @pytest.mark.parametrize("name", ["ppt", "reduction", "realignment"])
    def test_oracle_follows_rule(self, name, state):
        from sepscope.criteria import ORACLES

        st = self.STATES[state]()
        v = ORACLES[name](st)
        excess = v.statistic - 1.0 if name == "realignment" else -v.statistic
        assert v.bound == (1.0 if name == "realignment" else 0.0)
        assert v.violation == max(excess, 0.0)
        assert v.entangled == (v.violation > 1e-8 * max(1.0, v.bound))
        assert (v.criterion, v.params) == (name, None)
        assert (v.yset, v.statistic, v.bound, v.violation, v.entangled) == self.reference(name, st)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name,patched", [
        ("ppt", "hermitian_eigenvalues"),
        ("reduction", "hermitian_eigenvalues"),
        ("realignment", "trace_norm"),
    ])
    def test_non_finite_statistic_raises(self, monkeypatch, name, patched, bad):
        import sepscope.criteria as criteria
        from sepscope import SepscopeError

        value = np.array([bad]) if patched == "hermitian_eigenvalues" else bad
        monkeypatch.setattr(criteria, patched, lambda mat: value)
        with pytest.raises(SepscopeError, match=f"^the {name} statistic is not finite"):
            criteria.ORACLES[name](werner(3, 0.5).state)
