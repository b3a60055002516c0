"""Tests for the dense matrix kernel."""

import numpy as np
import pytest

from sepscope import (
    DensityState,
    DimensionMismatch,
    InvariantViolation,
    NotHermitian,
    SubsystemDims,
    all_subsets,
    as_cmatrix,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    realign,
    svd,
    trace_norm,
    vec,
    werner,
)
from sepscope.criteria import _bound_table
from sepscope.gptops import partial_transpose
from sepscope.matlin import CACHE_ENTRIES, identity
from sepscope.states import _swap, horodecki_3x3, swap_operator


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_swap_blocks(self):
        x = np.array([[0, 1], [1, 0]])
        got = kron(x, np.eye(2))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1
        np.testing.assert_array_equal(got, expected)

    def test_index_formula(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 2, 2)
        b = random_complex(rng, 2, 2)
        assert kron(a, b)[3, 2] == a[1, 1] * b[1, 0]


class TestVec:
    def test_two_by_two_column_stacking(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(vec(a), np.array([[1.0], [2.0], [3.0], [4.0]]))

    def test_identity(self):
        np.testing.assert_array_equal(vec(np.eye(2)), np.array([[1.0], [0.0], [0.0], [1.0]]))

    def test_single_row(self):
        np.testing.assert_array_equal(vec([[1.0, 2.0, 3.0]]), np.array([[1.0], [2.0], [3.0]]))


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(5)) == pytest.approx(5.0, abs=1e-12)

    def test_signed_diagonal(self):
        assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0, abs=1e-12)

    def test_realigned_werner(self):
        st = werner(3, -1.0).state
        assert trace_norm(realign(st.mat, st.dims)) == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_stack_gives_each_norm_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for shape in ((7, 4, 4), (3, 9, 9), (2, 6, 4), (1, 64, 64)):
            stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = trace_norm(stack)
            assert got == [trace_norm(mat) for mat in stack]
            assert all(type(norm) is float for norm in got)

    def test_matrix_gives_float(self):
        assert type(trace_norm(np.eye(3))) is float

    def test_overflowing_sum_reads_inf(self):
        assert trace_norm(np.eye(4) * 1e308) == np.inf


class TestSvd:
    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 4.0]))
        np.testing.assert_allclose(s, [4.0, 3.0], atol=1e-14)

    def test_zero_matrix(self):
        _, s, _ = svd(np.zeros((3, 2)))
        np.testing.assert_array_equal(s, np.zeros(2))

    def test_reconstruction_rectangular(self):
        rng = np.random.default_rng(5)
        mat = random_complex(rng, 5, 3)
        u, s, v = svd(mat)
        k = s.size
        rebuilt = u[:, :k] @ np.diag(s) @ v[:, :k].conj().T
        assert np.max(np.abs(rebuilt - mat)) <= 1e-10

    def test_reconstruction_and_orthonormality_seeded(self):
        # 100 seeded random matrices, shapes up to 81x81
        rng = np.random.default_rng(2024)
        for _ in range(100):
            rows = int(rng.integers(1, 82))
            cols = int(rng.integers(1, 82))
            mat = random_complex(rng, rows, cols)
            u, s, v = svd(mat)
            k = s.size
            assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
            rebuilt = u[:, :k] @ np.diag(s) @ v[:, :k].conj().T
            assert np.linalg.norm(rebuilt - mat) <= 1e-10 * max(1.0, np.linalg.norm(mat))
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) <= 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) <= 1e-10


class TestHermitianEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.eye(3)), [1, 1, 1], atol=1e-14)

    def test_pauli_x(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues([[0, 1], [1, 0]]), [-1.0, 1.0], atol=1e-14
        )

    def test_werner_partial_transpose_min(self):
        st = werner(3, -1.0).state
        eigs = hermitian_eigenvalues(partial_transpose(st.mat, st.dims, "A"))
        assert eigs[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_sum_matches_trace(self):
        rng = np.random.default_rng(3)
        g = random_complex(rng, 7, 7)
        herm = g + g.conj().T
        eigs = hermitian_eigenvalues(herm)
        assert abs(eigs.sum() - np.trace(herm).real) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigenvalues([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(NotHermitian):
            hermitian_eigenvalues(np.zeros((2, 3)))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(9)
        ga = random_complex(rng, 2, 2)
        gb = random_complex(rng, 3, 3)
        a = ga @ ga.conj().T
        a /= np.trace(a).real
        b = gb @ gb.conj().T
        b /= np.trace(b).real
        rho = DensityState(SubsystemDims(2, 3), kron(a, b))
        np.testing.assert_allclose(partial_trace(rho, "B"), a, atol=1e-13)
        np.testing.assert_allclose(partial_trace(rho, "A"), b, atol=1e-13)

    @pytest.mark.parametrize("f", [-1.0, -0.3, 0.0, 0.7])
    def test_werner_reduces_to_maximally_mixed(self, f):
        st = werner(3, f).state
        np.testing.assert_allclose(partial_trace(st, "B"), np.eye(3) / 3, atol=1e-13)
        np.testing.assert_allclose(partial_trace(st, "A"), np.eye(3) / 3, atol=1e-13)

    def test_horodecki_against_direct_summation(self):
        st = horodecki_3x3(0.3).state
        mat = st.mat
        rho_a = np.zeros((3, 3), dtype=complex)
        rho_b = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                for mu in range(3):
                    rho_a[i, j] += mat[i * 3 + mu, j * 3 + mu]
                    rho_b[i, j] += mat[mu * 3 + i, mu * 3 + j]
        np.testing.assert_allclose(partial_trace(st, "B"), rho_a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(st, "A"), rho_b, atol=1e-14)
        for side in ("A", "B"):
            red = partial_trace(st, side)
            assert abs(np.trace(red) - 1.0) <= 1e-12
            assert np.max(np.abs(red - red.conj().T)) <= 1e-12

    def test_bad_tag(self):
        st = werner(2, 0.5).state
        with pytest.raises(ValueError):
            partial_trace(st, "C")

    def test_reductions_taken_once_with_partial_traces_bits(self, monkeypatch):
        import sepscope.matlin as matlin

        rng = np.random.default_rng(4)
        g = random_complex(rng, 6, 6)
        st = DensityState(SubsystemDims(2, 3), g @ g.conj().T / np.trace(g @ g.conj().T).real)
        calls = []
        original = matlin.partial_trace
        monkeypatch.setattr(matlin, "partial_trace",
                            lambda rho, side: calls.append(side) or original(rho, side))
        rho_a, rho_b = st.reductions
        assert st.reductions[0] is rho_a and st.reductions[1] is rho_b
        assert calls == ["B", "A"]
        assert rho_a.tobytes() == original(st, "B").tobytes()
        assert rho_b.tobytes() == original(st, "A").tobytes()
        assert not rho_a.flags.writeable and not rho_b.flags.writeable


class TestVecIdentity:
    def test_vec_of_triple_product(self):
        # vec(X Y Z) = (Z^t kron X) vec(Y) on random conformable triples
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = random_complex(rng, 3, 4)
            y = random_complex(rng, 4, 2)
            z = random_complex(rng, 2, 5)
            lhs = vec(x @ y @ z)
            rhs = kron(z.T, x) @ vec(y)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestTraceNormProperties:
    def test_multiplicative_over_kron(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_complex(rng, 3, 3)
            q = random_complex(rng, 4, 4)
            got = trace_norm(kron(p, q))
            want = trace_norm(p) * trace_norm(q)
            assert abs(got - want) <= 1e-9 * want

    def test_unitary_invariance(self):
        from sepscope import random_unitary

        rng = np.random.default_rng(29)
        for seed in range(10):
            mat = random_complex(rng, 4, 4)
            u = random_unitary(4, seed)
            v = random_unitary(4, seed + 100)
            base = trace_norm(mat)
            assert abs(trace_norm(u @ mat @ v) - base) <= 1e-9 * base

    def test_hermitian_equals_abs_eigenvalue_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = random_complex(rng, 6, 6)
            herm = g + g.conj().T
            want = np.abs(hermitian_eigenvalues(herm)).sum()
            assert abs(trace_norm(herm) - want) <= 1e-10


class TestDensityState:
    def test_valid_state(self):
        st = werner(2, 0.3).state
        assert st.dims.total == 4
        assert not st.mat.flags.writeable

    def test_rejects_non_hermitian(self):
        mat = np.eye(4) / 4
        mat[0, 1] = 0.1
        with pytest.raises(InvariantViolation):
            DensityState(SubsystemDims(2, 2), mat)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantViolation):
            DensityState(SubsystemDims(2, 2), np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolation):
            DensityState(SubsystemDims(2, 2), np.diag([0.6, 0.5, 0.0, -0.1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DensityState(SubsystemDims(2, 3), np.eye(4) / 4)

    def test_unchecked_skips_physics(self):
        state = DensityState(SubsystemDims(2, 2), np.eye(4) / 2, check=False)
        assert abs(np.trace(state.mat) - 2.0) <= 1e-15

    def test_as_cmatrix_rejects_nan(self):
        with pytest.raises(InvariantViolation):
            as_cmatrix([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("entry", [np.inf, complex(0, -np.inf), complex(1.5e308, 1.5e308)])
    def test_as_cmatrix_rejects_non_finite_entry(self, entry):
        with pytest.raises(InvariantViolation, match="^matrix entry magnitudes"):
            as_cmatrix([[entry, 0.0], [0.0, 1.0]])

    def test_as_cmatrix_rejects_overflowing_magnitude_sum(self):
        # Every entry is finite, but their magnitudes sum past the float range.
        with pytest.raises(InvariantViolation, match="^matrix entry magnitudes .* got inf$"):
            DensityState(SubsystemDims(2, 2), np.eye(4) * 1e308, check=False)

    def test_unchecked_finite_unphysical_state_loads(self):
        state = DensityState(SubsystemDims(2, 2), np.eye(4) * 4e307, check=False)
        assert state.mat[3, 3] == 4e307

    def test_dims_must_be_positive(self):
        with pytest.raises(DimensionMismatch):
            SubsystemDims(0, 2)

    @pytest.mark.parametrize("source", ["complex", "float", "strided view", "nested list"])
    def test_state_owns_its_one_copy(self, source):
        rho = werner(2, 0.3).state.mat
        entries = {
            "complex": lambda: rho.copy(),
            "float": lambda: rho.real.copy(),
            "strided view": lambda: np.repeat(np.repeat(rho, 2, 0), 2, 1)[::2, ::2],
            "nested list": lambda: rho.tolist(),
        }[source]()
        state = DensityState(SubsystemDims(2, 2), entries)
        assert state.mat.dtype == complex and not state.mat.flags.writeable
        np.testing.assert_array_equal(state.mat, rho)
        if isinstance(entries, np.ndarray):
            assert not np.shares_memory(state.mat, entries)
            entries[0, 0] = 0.5  # the caller may still write its own array
            assert state.mat[0, 0] == rho[0, 0]


class TestConstantCache:
    """Every cached constant is read-only, no cache holds more than its
    maxsize results, and a constant of more than CACHE_ENTRIES entries is
    built afresh on every call, never kept."""

    # (cached function, arguments small enough to keep, arguments too large to keep)
    CASES = {
        "identity": (identity, [(d, t) for t in (float, complex) for d in range(1, 20)],
                     (257, complex)),
        "swap": (_swap, [(d,) for d in range(1, 17)], (17,)),
        # The kernel's bounds: at most 8 classes of bounds per parameter.
        "bound table": (_bound_table,
                        [(tuple((complex(a), complex(b)) for a in range(6)), SubsystemDims(3, 3),
                          all_subsets()) for b in range(10)],
                        (tuple((complex(a), 0j) for a in range(8193)), SubsystemDims(3, 3),
                         all_subsets())),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bound_holds(self, case):
        constant, small, large = self.CASES[case]
        constant.cache_clear()
        for args in small:
            for result in _arrays(constant(*args)):
                assert not result.flags.writeable and result.size <= CACHE_ENTRIES
            assert constant.cache_info().currsize <= constant.cache_info().maxsize
        assert constant.cache_info().currsize == min(len(small), constant.cache_info().maxsize)
        assert constant(*small[-1]) is constant(*small[-1])
        kept = constant.cache_info().currsize
        built = constant(*large)
        assert constant.cache_info().currsize == kept
        assert constant(*large) is not built
        assert all(not x.flags.writeable for x in _arrays(built))
        assert max(x.size for x in _arrays(built)) > CACHE_ENTRIES

    def test_callers_read_the_cache(self):
        assert swap_operator(3) is swap_operator(3)
        assert not swap_operator(20).flags.writeable
        assert identity(3, dtype=complex) is identity(3, dtype=complex)
        assert identity(3, dtype=complex).dtype == complex and identity(3).dtype == float


def _arrays(result):
    return result if isinstance(result, tuple) else (result,)
