"""Dense complex matrix kernel: Kronecker products, vec, SVD, trace norm,
Hermitian spectra and partial traces of bipartite density matrices."""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NotHermitian

# Everything here is at most ~100x100 dense, so double precision leaves a
# wide margin around these tolerances.
TOL_HERM = 1e-12
TOL_PSD = -1e-9

CMatrix = np.ndarray


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a 2-D complex array whose entry magnitudes sum to a finite
    float, a sum that bounds every partial trace and trace norm taken of it."""
    mat = np.atleast_2d(np.asarray(entries, dtype=complex))
    if mat.ndim != 2 or mat.size == 0:
        raise DimensionMismatch(f"expected a non-empty 2-D matrix, got shape {mat.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the finding
        total = np.abs(mat).sum()
    if not math.isfinite(total):
        raise InvariantViolation(f"matrix entry magnitudes must sum to a finite float, got {total}")
    return mat


@dataclass(frozen=True)
class SubsystemDims:
    """Dimensions (m, n) of the two factors of a bipartite space."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise DimensionMismatch(
                f"subsystem dimensions must be >= 1, got ({self.m}, {self.n})"
            )

    @property
    def total(self) -> int:
        return self.m * self.n


def validate_density(mat: np.ndarray) -> None:
    """Raise InvariantViolation unless mat is Hermitian, unit-trace and PSD
    within tolerance."""
    herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_defect > TOL_HERM:
        raise InvariantViolation(
            f"not Hermitian: max |rho_ij - conj(rho_ji)| = {herm_defect:.3e}"
        )
    tr = complex(np.trace(mat))
    if abs(tr.real - 1.0) > 1e-12 or abs(tr.imag) > 1e-12:
        raise InvariantViolation(f"trace is {tr}, expected 1")
    min_eig = float(np.linalg.eigvalsh(mat).min())
    if min_eig < TOL_PSD:
        raise InvariantViolation(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")


@dataclass(frozen=True)
class DensityState:
    """A bipartite density matrix together with its subsystem split.

    Construction validates Hermiticity, unit trace and positive
    semidefiniteness; pass ``check=False`` only for explicitly unchecked
    file loads.  The stored matrix is a read-only copy, safe to share
    across workers.
    """

    dims: SubsystemDims
    mat: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        mat = as_cmatrix(self.mat)
        d = self.dims.total
        if mat.shape != (d, d):
            raise DimensionMismatch(
                f"state matrix is {mat.shape}; dims ({self.dims.m}, {self.dims.n})"
                f" require ({d}, {d})"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        if check:
            validate_density(mat)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices; entry[(i*Br+u),(j*Bc+v)] = A[i,j]*B[u,v].

    The same broadcast multiply np.kron performs, so the bytes are the same,
    without np.kron's general-rank set-up, which costs several times the
    multiply at these sizes.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    (ar, ac), (br, bc) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ar * br, ac * bc)


def vec(a) -> np.ndarray:
    """Stack the columns of a into one column vector, row index fastest."""
    return np.asarray(a, dtype=complex).reshape(-1, 1, order="F")


def trace_norm(mat) -> float | list[float]:
    """Sum of singular values (Ky Fan / nuclear norm) of a matrix, as a float,
    or of each matrix of a (k, r, c) stack, as a list; inf past the float range."""
    with np.errstate(over="ignore"):
        return np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False).sum(-1).tolist()


def svd(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD as (U, sigma, V) with mat = U[:, :k] @ diag(sigma) @ V[:, :k]^dagger.

    sigma is sorted descending; U and V have orthonormal columns.
    """
    u, s, vh = np.linalg.svd(np.asarray(mat, dtype=complex))
    return u, s, vh.conj().T


def hermitian_eigenvalues(mat) -> np.ndarray:
    """Real spectrum of a Hermitian matrix in ascending order.

    Uses a symmetric-aware solver so the output is exactly real; raises
    NotHermitian when the input violates the Hermiticity tolerance.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotHermitian(f"matrix of shape {mat.shape} is not square")
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > TOL_HERM:
        raise NotHermitian(f"max |M_ij - conj(M_ji)| = {defect:.3e} exceeds {TOL_HERM}")
    return np.linalg.eigvalsh(mat)


def partial_trace(rho: DensityState, trace_out: str) -> np.ndarray:
    """Reduced matrix left after tracing out subsystem "A" or "B".

    Tracing out "B" returns the m-by-m reduced state of A and vice versa;
    the result keeps unit trace and Hermiticity.
    """
    m, n = rho.dims.m, rho.dims.n
    t = rho.mat.reshape(m, n, m, n)
    if trace_out == "B":
        return np.trace(t, axis1=1, axis2=3)
    if trace_out == "A":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError(f"trace_out must be 'A' or 'B', got {trace_out!r}")
