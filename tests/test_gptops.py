"""Tests for the transposition engine, realignment and Kronecker-sum
decomposition."""

import numpy as np
import pytest

from sepscope import (
    DimensionMismatch,
    GptOpSet,
    SubsystemDims,
    all_subsets,
    col_transposition,
    double_transposition,
    gpt_transform,
    hermitian_eigenvalues,
    kron,
    kron_decompose,
    partial_transpose,
    realign,
    row_transposition,
    trace_norm,
    vec,
    werner,
)
from sepscope.states import random_density


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def realign_by_loop(rho, m, n):
    """Brute-force oracle straight from the entry formula."""
    out = np.zeros((m * m, n * n), dtype=complex)
    for i in range(m):
        for j in range(m):
            for mu in range(n):
                for nu in range(n):
                    out[j * m + i, nu * n + mu] = rho[i * n + mu, j * n + nu]
    return out


class TestOpSet:
    def test_code_round_trip(self):
        y = GptOpSet(cA=True, rB=True)
        assert y.code == "cA,rB"
        assert GptOpSet.from_code("cA,rB") == y
        assert GptOpSet.from_code(" rB , cA ") == y

    def test_empty_codes(self):
        assert GptOpSet().code == "none"
        assert GptOpSet.from_code("none") == GptOpSet()
        assert GptOpSet.from_code("") == GptOpSet()

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError):
            GptOpSet.from_code("cA,xB")

    @pytest.mark.parametrize("code,flag", [("rA,rA", "rA"), ("cA, rB ,cA", "cA"),
                                           ("rA,cA,rB,cB,cB", "cB")])
    def test_repeated_flag_rejected(self, code, flag):
        # Applying a transposition twice is the identity, so "rA,rA" is not
        # read as rA: the code names its repeated flag and is refused.
        with pytest.raises(ValueError, match=f"^repeated transposition flag '{flag}'"):
            GptOpSet.from_code(code)

    def test_all_subsets(self):
        subsets = all_subsets()
        assert len(subsets) == 16
        assert len(set(subsets)) == 16
        assert subsets[0] == GptOpSet()
        assert subsets[-1] == GptOpSet(rA=True, cA=True, rB=True, cB=True)
        assert all_subsets() is subsets  # built once


class TestSingleTranspositions:
    def test_row_transposition_display(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(row_transposition(a), [[1.0, 2.0, 3.0, 4.0]])

    def test_row_transposition_identity(self):
        np.testing.assert_array_equal(row_transposition(np.eye(2)), [[1.0, 0.0, 0.0, 1.0]])

    def test_row_transposition_of_column(self):
        v = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(row_transposition(v), v.T)

    def test_col_transposition_display(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(col_transposition(a), [[1.0], [2.0], [3.0], [4.0]])

    def test_col_transposition_of_row(self):
        np.testing.assert_array_equal(col_transposition([[1.0, 2.0]]), [[1.0], [2.0]])

    def test_double_transposition_is_transpose(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            a = random_complex(rng, rows, cols)
            np.testing.assert_array_equal(double_transposition(a), a.T)


class TestGptTransform:
    def setup_method(self):
        self.dims = SubsystemDims(3, 3)
        self.rho = random_density(9, 1)

    def test_empty_set_is_identity(self):
        got = gpt_transform(self.rho, self.dims, GptOpSet())
        np.testing.assert_array_equal(got, self.rho)

    def test_all_flags_is_transpose(self):
        got = gpt_transform(self.rho, self.dims, GptOpSet(rA=True, cA=True, rB=True, cB=True))
        np.testing.assert_array_equal(got, self.rho.T)

    def test_matches_realignment(self):
        got = gpt_transform(self.rho, self.dims, GptOpSet(cA=True, rB=True))
        np.testing.assert_array_equal(got, realign(self.rho, self.dims))

    def test_matches_partial_transpose_formula(self):
        m = n = 3
        got = gpt_transform(self.rho, self.dims, GptOpSet(rA=True, cA=True))
        for i in range(m):
            for j in range(m):
                for mu in range(n):
                    for nu in range(n):
                        assert got[j * n + mu, i * n + nu] == self.rho[i * n + mu, j * n + nu]

    def test_single_row_flag_on_product(self):
        # (U A U^dag) kron B under {rA} keeps the n x (m^2 n) product shape
        # and agrees with the sequential single-flag form.
        rng = np.random.default_rng(47)
        m, n = 3, 4
        a = random_complex(rng, m, m)
        b = random_complex(rng, n, n)
        got = gpt_transform(np.kron(a, b), SubsystemDims(m, n), GptOpSet(rA=True))
        assert got.shape == (n, m * m * n)
        np.testing.assert_array_equal(got, kron(row_transposition(a), b))

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatch):
            gpt_transform(np.eye(8), self.dims, GptOpSet())

    def test_batch_axis_transforms_each_slice(self):
        rng = np.random.default_rng(53)
        dims = SubsystemDims(2, 3)
        stack = np.stack([random_complex(rng, 6, 6) for _ in range(4)])
        for y in all_subsets():
            got = gpt_transform(stack, dims, y)
            for k in range(len(stack)):
                np.testing.assert_array_equal(got[k], gpt_transform(stack[k], dims, y))

    def test_batch_axis_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatch):
            gpt_transform(np.zeros((2, 8, 8)), self.dims, GptOpSet())
        with pytest.raises(DimensionMismatch):
            gpt_transform(np.zeros((1, 2, 9, 9)), self.dims, GptOpSet())

    def test_complement_is_transpose(self):
        rng = np.random.default_rng(59)
        for m, n in ((2, 2), (2, 3), (3, 3), (3, 4)):
            dims = SubsystemDims(m, n)
            rho = random_complex(rng, m * n, m * n)
            for y in all_subsets():
                complement = GptOpSet(rA=not y.rA, cA=not y.cA, rB=not y.rB, cB=not y.cB)
                np.testing.assert_array_equal(gpt_transform(rho, dims, complement),
                                              gpt_transform(rho, dims, y).T)

    def test_ordering_convention_only_permutes(self):
        # An alternative digit ordering (B above A, row-origin above
        # column-origin) must give the same singular values for every subset.
        def alt_transform(rho, dims, y):
            m, n = dims.m, dims.n
            t = rho.reshape(m, n, m, n)
            digits = ((1, n, not y.rB), (3, n, y.cB), (0, m, not y.rA), (2, m, y.cA))
            row_axes = [ax for ax, _, in_rows in digits if in_rows]
            col_axes = [ax for ax, _, in_rows in digits if not in_rows]
            rows = 1
            for _, size, in_rows in digits:
                if in_rows:
                    rows *= size
            return t.transpose(row_axes + col_axes).reshape(rows, (m * m * n * n) // rows)

        rho = random_density(6, 3)
        dims = SubsystemDims(2, 3)
        for y in all_subsets():
            ours = np.linalg.svd(gpt_transform(rho, dims, y), compute_uv=False)
            alt = np.linalg.svd(alt_transform(rho, dims, y), compute_uv=False)
            # shapes can differ (transposed); compare the nonzero spectra
            k = min(ours.size, alt.size)
            np.testing.assert_allclose(np.sort(ours)[::-1][:k], np.sort(alt)[::-1][:k],
                                       atol=1e-12)

    def test_ppt_flags_preserve_hermitian_norm(self):
        rho = random_density(9, 7)
        dims = SubsystemDims(3, 3)
        pt = gpt_transform(rho, dims, GptOpSet(rA=True, cA=True))
        assert abs(trace_norm(pt) - np.abs(hermitian_eigenvalues(pt)).sum()) <= 1e-10

    def test_density_state_norm_is_one(self):
        for seed in range(5):
            rho = random_density(6, seed)
            assert abs(trace_norm(gpt_transform(rho, SubsystemDims(2, 3), GptOpSet())) - 1.0) <= 1e-10


class TestRealign:
    def test_product_is_rank_one(self):
        rng = np.random.default_rng(53)
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        dims = SubsystemDims(3, 3)
        got = realign(np.kron(a, b), dims)
        np.testing.assert_allclose(got, vec(a) @ vec(b).T, atol=1e-13)
        s = np.linalg.svd(got, compute_uv=False)
        assert np.sum(s > 1e-12) == 1

    def test_matches_brute_force_loop(self):
        rho = random_density(6, 11)
        got = realign(rho, SubsystemDims(2, 3))
        np.testing.assert_array_equal(got, realign_by_loop(rho, 2, 3))

    def test_maximally_mixed_norm(self):
        got = realign(np.eye(4) / 4, SubsystemDims(2, 2))
        assert trace_norm(got) == pytest.approx(0.5, abs=1e-12)

    def test_bell_state_norm(self):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell)
        got = realign(rho, SubsystemDims(2, 2))
        # oracle: direct SVD of the brute-force realigned matrix
        oracle = np.linalg.svd(realign_by_loop(rho, 2, 2), compute_uv=False).sum()
        assert oracle == pytest.approx(2.0, abs=1e-12)
        assert trace_norm(got) == pytest.approx(oracle, abs=1e-12)

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatch):
            realign(np.eye(5), SubsystemDims(2, 2))


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(59)
        a = random_complex(rng, 2, 2)
        b = random_complex(rng, 3, 3)
        dims = SubsystemDims(2, 3)
        np.testing.assert_array_equal(
            partial_transpose(np.kron(a, b), dims, "A"), np.kron(a.T, b)
        )
        np.testing.assert_array_equal(
            partial_transpose(np.kron(a, b), dims, "B"), np.kron(a, b.T)
        )

    def test_werner_min_eigenvalue(self):
        st = werner(3, -1.0).state
        pt = partial_transpose(st.mat, st.dims, "A")
        assert hermitian_eigenvalues(pt)[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_diagonal_fixed(self):
        diag = np.diag([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(partial_transpose(diag, SubsystemDims(2, 2), "A"), diag)

    def test_involution_and_gpt_agreement(self):
        rho = random_density(6, 13)
        dims = SubsystemDims(2, 3)
        for which, y in (("A", GptOpSet(rA=True, cA=True)), ("B", GptOpSet(rB=True, cB=True))):
            pt = partial_transpose(rho, dims, which)
            np.testing.assert_array_equal(pt, gpt_transform(rho, dims, y))
            np.testing.assert_array_equal(partial_transpose(pt, dims, which), rho)


class TestKronDecompose:
    def test_pure_product(self):
        rng = np.random.default_rng(61)
        a = random_complex(rng, 2, 2)
        b = random_complex(rng, 3, 3)
        terms = kron_decompose(np.kron(a, b), SubsystemDims(2, 3))
        assert len(terms.terms) == 1
        np.testing.assert_allclose(terms.reconstruct(), np.kron(a, b), atol=1e-10)

    def test_identity(self):
        terms = kron_decompose(np.eye(6), SubsystemDims(2, 3))
        assert len(terms.terms) == 1
        np.testing.assert_allclose(terms.reconstruct(), np.eye(6), atol=1e-12)

    def test_random_hermitian(self):
        rng = np.random.default_rng(67)
        g = random_complex(rng, 9, 9)
        z = g + g.conj().T
        terms = kron_decompose(z, SubsystemDims(3, 3))
        assert len(terms.terms) <= 9
        assert np.linalg.norm(terms.reconstruct() - z) <= 1e-10 * np.linalg.norm(z)

    def test_hundred_seeded_reconstructions(self):
        rng = np.random.default_rng(71)
        dims_options = [SubsystemDims(2, 2), SubsystemDims(2, 3), SubsystemDims(3, 3)]
        for trial in range(100):
            dims = dims_options[trial % 3]
            z = random_complex(rng, dims.total, dims.total)
            terms = kron_decompose(z, dims)
            assert len(terms.terms) == len(terms.sigma)
            residual = np.linalg.norm(terms.reconstruct() - z)
            assert residual <= 1e-10 * np.linalg.norm(z)

    def test_term_count_matches_rank(self):
        # rank-2 sum of two products
        rng = np.random.default_rng(73)
        a1, b1 = random_complex(rng, 2, 2), random_complex(rng, 2, 2)
        a2, b2 = random_complex(rng, 2, 2), random_complex(rng, 2, 2)
        z = np.kron(a1, b1) + np.kron(a2, b2)
        terms = kron_decompose(z, SubsystemDims(2, 2))
        assert len(terms.terms) == 2

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatch):
            kron_decompose(np.eye(5), SubsystemDims(2, 2))
