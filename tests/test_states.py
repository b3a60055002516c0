"""Tests for state generators, local unitaries and file round trips."""

import json

import numpy as np
import pytest

from sepscope import (
    DensityState,
    DimensionMismatch,
    InvariantViolation,
    NotUnitary,
    ParamOutOfRange,
    ParseError,
    ReductionParams,
    SubsystemDims,
    evaluate_all_Y,
    hermitian_eigenvalues,
    horodecki_3x3,
    kron,
    load_state,
    local_unitary_conjugate,
    partial_trace,
    partial_transpose,
    ppt_check,
    random_density,
    random_separable,
    random_unitary,
    save_state,
    swap_operator,
    werner,
)


class TestSwapOperator:
    def test_trivial_dimension(self):
        np.testing.assert_array_equal(swap_operator(1), [[1.0]])

    def test_qubit_rows(self):
        expected = np.eye(4)[[0, 2, 1, 3]]
        np.testing.assert_array_equal(swap_operator(2), expected)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_algebra(self, d):
        v = swap_operator(d)
        np.testing.assert_array_equal(v, v.T)
        np.testing.assert_allclose(v @ v, np.eye(d * d), atol=1e-14)
        assert np.trace(v) == pytest.approx(d)

    def test_swaps_product_vectors(self):
        rng = np.random.default_rng(19)
        for d in (2, 3):
            v = swap_operator(d)
            alpha = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            beta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            np.testing.assert_allclose(v @ np.kron(alpha, beta), np.kron(beta, alpha), atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_equals_entry_loop(self, d):
        want = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                want[i * d + j, j * d + i] = 1.0
        v = swap_operator(d)
        assert v.dtype == want.dtype and np.array_equal(v, want)


class TestWerner:
    def test_antisymmetric_extreme(self):
        st = werner(3, -1.0).state
        want = (np.eye(9) - swap_operator(3)) / 6.0
        np.testing.assert_allclose(st.mat, want, atol=1e-15)
        assert abs(np.trace(st.mat) - 1.0) <= 1e-14
        assert hermitian_eigenvalues(st.mat)[0] >= -1e-12

    def test_symmetric_extreme_qubits(self):
        st = werner(2, 1.0).state
        want = (np.eye(4) + swap_operator(2)) / 6.0
        np.testing.assert_allclose(st.mat, want, atol=1e-15)

    def test_reduced_states(self):
        st = werner(3, 0.0).state
        np.testing.assert_allclose(partial_trace(st, "B"), np.eye(3) / 3, atol=1e-14)
        np.testing.assert_allclose(partial_trace(st, "A"), np.eye(3) / 3, atol=1e-14)

    @pytest.mark.parametrize("d,f", [(1, 0.0), (3, -1.01), (3, 1.2)])
    def test_rejects_bad_params(self, d, f):
        with pytest.raises(ParamOutOfRange):
            werner(d, f)

    def test_labels(self):
        labeled = werner(3, -0.5)
        assert labeled.name == "werner"
        assert labeled.params == {"d": 3, "f": -0.5}


class TestHorodecki:
    def test_trace_is_one(self):
        for c in (0.1, 0.5, 0.9):
            assert abs(np.trace(horodecki_3x3(c).state.mat) - 1.0) <= 1e-14

    def test_cross_entry(self):
        st = horodecki_3x3(0.5).state
        want = (np.sqrt(1 - 0.25) / 2) / 5.0
        assert st.mat[6, 8].real == pytest.approx(want, abs=1e-15)
        assert st.mat[8, 6].real == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("c", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_psd_and_ppt(self, c):
        st = horodecki_3x3(c).state
        assert hermitian_eigenvalues(st.mat)[0] >= -1e-12
        assert not ppt_check(st).entangled

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_boundary(self, c):
        with pytest.raises(ParamOutOfRange):
            horodecki_3x3(c)


class TestRandomSeparable:
    def test_single_term_is_pure_product(self):
        st = random_separable(SubsystemDims(2, 3), 1, seed=31).state
        eigs = hermitian_eigenvalues(st.mat)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(eigs > 1e-10) == 1

    def test_full_rank_ensemble_all_verdicts_zero(self):
        dims = SubsystemDims(2, 2)
        st = random_separable(dims, dims.total**2, seed=37).state
        assert np.sum(hermitian_eigenvalues(st.mat) > 1e-10) == dims.total
        verdicts = evaluate_all_Y(st, ReductionParams(0, 0))
        assert all(v.violation <= 1e-8 for v in verdicts)

    def test_determinism(self):
        a = random_separable(SubsystemDims(3, 3), 7, seed=41).state
        b = random_separable(SubsystemDims(3, 3), 7, seed=41).state
        np.testing.assert_array_equal(a.mat, b.mat)

    def test_rejects_zero_terms(self):
        with pytest.raises(ParamOutOfRange):
            random_separable(SubsystemDims(2, 2), 0, seed=1)

    @staticmethod
    def term_by_term(dims, k, seed):
        """The constructor as the per-term loop it replaced: each term draws
        its kets, normalizes them with np.linalg.norm, and adds its product."""
        rng = np.random.default_rng(seed)
        weights = rng.exponential(size=k)
        weights /= weights.sum()
        mat = np.zeros((dims.total, dims.total), dtype=complex)
        for p in weights:
            kets = []
            for dim in (dims.m, dims.n):
                g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                kets.append(g / np.linalg.norm(g))
            product = np.kron(*kets)
            mat += p * np.outer(product, product.conj())
        return mat

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 5), (8, 8)])
    @pytest.mark.parametrize("k", [1, 2, 12, 40])
    def test_bytes_equal_term_by_term(self, m, n, k):
        dims = SubsystemDims(m, n)
        for seed in range(60):
            got = random_separable(dims, k, seed).state.mat
            assert got.tobytes() == self.term_by_term(dims, k, seed).tobytes(), seed

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (8, 8)])
    @pytest.mark.parametrize("k", [3, 64, 100])
    def test_one_reduction_bytes_equal_term_by_term(self, m, n, k):
        # The terms are added by one reduction over their axis, in order.
        dims = SubsystemDims(m, n)
        for seed in range(20):
            got = random_separable(dims, k, seed).state.mat
            assert got.tobytes() == self.term_by_term(dims, k, seed).tobytes(), seed


class TestRandomDensity:
    def test_density_invariants(self):
        mat = random_density(6, seed=43)
        DensityState(SubsystemDims(2, 3), mat)  # validates trace, PSD, Hermiticity

    def test_determinism(self):
        np.testing.assert_array_equal(random_density(4, 42), random_density(4, 42))

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(random_density(4, 1), random_density(4, 2))


@pytest.mark.parametrize("draw", [
    lambda: random_separable(SubsystemDims(2, 2), 1, seed=-1),
    lambda: random_density(4, seed=-1),
    lambda: random_unitary(2, seed=-1),
], ids=["separable", "density", "unitary"])
def test_negative_seed_named(draw):
    with pytest.raises(ParamOutOfRange, match="seed must be a non-negative integer, got -1"):
        draw()


class TestRandomUnitary:
    def test_scalar_case(self):
        u = random_unitary(1, seed=5)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_orthonormal_columns(self, dim):
        u = random_unitary(dim, seed=dim)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10

    def test_conjugation_preserves_spectrum(self):
        st = DensityState(SubsystemDims(2, 2), random_density(4, 47))
        u = kron(random_unitary(2, 1), random_unitary(2, 2))
        before = hermitian_eigenvalues(st.mat)
        after = hermitian_eigenvalues(u @ st.mat @ u.conj().T)
        np.testing.assert_allclose(before, after, atol=1e-12)


class TestLocalUnitaryConjugate:
    def test_identity_is_noop(self):
        st = werner(3, -0.5).state
        out = local_unitary_conjugate(st, np.eye(3), np.eye(3))
        np.testing.assert_allclose(out.mat, st.mat, atol=1e-15)

    def test_spectrum_preserved(self):
        st = DensityState(SubsystemDims(2, 3), random_density(6, 53))
        out = local_unitary_conjugate(st, random_unitary(2, 3), random_unitary(3, 4))
        np.testing.assert_allclose(
            hermitian_eigenvalues(out.mat), hermitian_eigenvalues(st.mat), atol=1e-12
        )

    def test_rejects_wrong_shape(self):
        st = werner(2, 0.0).state
        with pytest.raises(DimensionMismatch):
            local_unitary_conjugate(st, np.eye(3), np.eye(2))

    def test_rejects_non_unitary(self):
        st = werner(2, 0.0).state
        with pytest.raises(NotUnitary):
            local_unitary_conjugate(st, np.eye(2) * 1.01, np.eye(2))


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "w3.json"
        original = werner(3, -0.5)
        save_state(original, path)
        loaded = load_state(path)
        assert loaded.name == "werner"
        assert loaded.params["f"] == -0.5
        assert loaded.state.dims == original.state.dims
        assert np.max(np.abs(loaded.state.mat - original.state.mat)) <= 1e-15

    def test_round_trip_complex_entries(self, tmp_path):
        from sepscope import LabeledState

        path = tmp_path / "rnd.json"
        dims = SubsystemDims(2, 2)
        original = LabeledState("random-density", {"seed": 7}, DensityState(dims, random_density(4, 7)))
        save_state(original, path)
        loaded = load_state(path)
        assert np.max(np.abs(loaded.state.mat - original.state.mat)) <= 1e-15

    def test_bad_trace_rejected(self, tmp_path):
        path = tmp_path / "bad_trace.json"
        mat = np.eye(4) * 0.225  # trace 0.9
        payload = {"m": 2, "n": 2, "re": mat.tolist(), "im": np.zeros((4, 4)).tolist()}
        path.write_text(json.dumps(payload))
        with pytest.raises(InvariantViolation):
            load_state(path)
        unchecked = load_state(path, unchecked=True)
        assert abs(np.trace(unchecked.state.mat) - 0.9) <= 1e-14

    def test_dims_mismatch_is_parse_error(self, tmp_path):
        path = tmp_path / "bad_dims.json"
        payload = {
            "m": 2,
            "n": 3,
            "re": np.eye(4).tolist(),
            "im": np.zeros((4, 4)).tolist(),
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_state(path)

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"m": 2, "n": 2,')
        with pytest.raises(ParseError) as err:
            load_state(path)
        assert "line" in str(err.value)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"m": 2, "n": 2, "re": np.eye(4).tolist()}))
        with pytest.raises(ParseError) as err:
            load_state(path)
        assert "im" in str(err.value)

    def test_non_integer_dimension(self, tmp_path):
        path = tmp_path / "floatdim.json"
        payload = {"m": 2.0, "n": 2, "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_state(path)

    def test_integer_entries_load_as_floats(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text('{"m": 1, "n": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}')
        state = load_state(path).state
        assert state.mat.tobytes() == np.array([[1, 0], [0, 0]], dtype=complex).tobytes()

    @pytest.mark.parametrize("field", ["re", "im"])
    def test_true_among_numbers_refused(self, tmp_path, field):
        # numpy would read true as 1.0: re would be the pure state |0><0|.
        rows = {"re": "[[1, 0], [0, 0]]", "im": "[[0, 0], [0, 0]]"}
        rows[field] = "[[true, 0], [0, 0]]"
        path = tmp_path / "bool.json"
        path.write_text(f'{{"m": 1, "n": 2, "re": {rows["re"]}, "im": {rows["im"]}}}')
        with pytest.raises(ParseError, match=f"^field '{field}': every entry must be a number,"
                                             " found true or false$"):
            load_state(path, unchecked=True)


class TestPartialTransposeOfGenerated:
    def test_werner_ppt_iff_nonnegative_f(self):
        for f in (-1.0, -0.2, 0.0, 0.4, 1.0):
            st = werner(3, f).state
            lo = hermitian_eigenvalues(partial_transpose(st.mat, st.dims, "A"))[0]
            assert (lo < -1e-8) == (f < 0)
