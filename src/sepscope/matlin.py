"""Dense complex matrix kernel: Kronecker products, SVD, trace norm,
Hermitian spectra and partial traces of bipartite density matrices.  vec
lives in gptops and is re-exported here under its old name."""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NotHermitian
from .gptops import partial_transpose, vec  # noqa: F401

# Everything here is at most ~100x100 dense, so double precision leaves a
# wide margin around these tolerances.
TOL_HERM = 1e-12
TOL_PSD = -1e-9

CMatrix = np.ndarray

# The most entries one cached constant holds: 64 Ki, 1 MiB as complex.  A
# larger one is built on every call, so no cache keeps a large array alive:
# werner(100)'s swap operator alone is 800 MB.
CACHE_ENTRIES = 1 << 16


def constant_cache(maxsize: int, entries: Callable[..., int]):
    """Decorator for a builder of constant arrays: an LRU cache of at most
    maxsize results, each made read-only, that keeps only a result whose
    entries(*args) <= CACHE_ENTRIES and builds any larger one afresh.  So a
    cache holds at most maxsize * CACHE_ENTRIES entries.  The cache's
    cache_info and cache_clear are the wrapper's, and so is entries."""
    def wrap(build: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
        @functools.wraps(build)
        def read_only(*args, **kwargs):
            result = build(*args, **kwargs)
            for array in result if isinstance(result, tuple) else (result,):
                array.setflags(write=False)
            return result

        cached = functools.lru_cache(maxsize=maxsize)(read_only)

        @functools.wraps(build)
        def constant(*args, **kwargs):
            keep = entries(*args, **kwargs) <= CACHE_ENTRIES
            return (cached if keep else read_only)(*args, **kwargs)

        constant.cache_info, constant.cache_clear = cached.cache_info, cached.cache_clear
        constant.entries = entries
        return constant
    return wrap


@constant_cache(16, lambda d, dtype=float: d * d)
def identity(d: int, dtype=float) -> np.ndarray:
    """np.eye(d, dtype=dtype), read-only."""
    return np.eye(d, dtype=dtype)


@np.errstate(over="ignore", invalid="ignore")  # an overflow in the sum is the finding
def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a 2-D complex array whose entry magnitudes sum to a finite
    float, a sum that bounds every partial trace and trace norm taken of it.
    A 2-D complex ndarray comes back as itself, not a copy."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2:
        mat = np.atleast_2d(mat)
    if mat.ndim != 2 or mat.size == 0:
        raise DimensionMismatch(f"expected a non-empty 2-D matrix, got shape {mat.shape}")
    total = abs(mat).sum()
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
            raise DimensionMismatch(f"{'m' if self.m < 1 else 'n'}: subsystem dimensions"
                                    f" must be >= 1, got ({self.m}, {self.n})")

    @property
    def total(self) -> int:
        return self.m * self.n


def validate_density(mat: np.ndarray) -> np.ndarray:
    """Raise InvariantViolation unless mat is Hermitian, unit-trace and PSD
    within tolerance, else return mat's ascending spectrum, the eigvalsh
    array the PSD test reads.  mat is a square complex ndarray, such as
    as_cmatrix returns."""
    herm_defect = float(abs(mat - mat.conj().T).max())
    if herm_defect > TOL_HERM:
        raise InvariantViolation(
            f"not Hermitian: max |rho_ij - conj(rho_ji)| = {herm_defect:.3e}"
        )
    tr = complex(mat.trace())
    if abs(tr.real - 1.0) > 1e-12 or abs(tr.imag) > 1e-12:
        raise InvariantViolation(f"trace is {tr}, expected 1")
    spectrum = np.linalg.eigvalsh(mat)  # ascending
    min_eig = float(spectrum[0])
    if min_eig < TOL_PSD:
        raise InvariantViolation(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
    return spectrum


@dataclass(frozen=True)
class DensityState:
    """A bipartite density matrix together with its subsystem split.

    Construction validates Hermiticity, unit trace and positive
    semidefiniteness; pass ``check=False`` only for explicitly unchecked
    file loads.  ``checked`` records which it was, so a criterion can skip a
    test that a validated state always passes.  The stored matrix is a
    read-only copy, safe to share across workers: mat may be any matrix
    as_cmatrix takes, and the state makes one complex copy of it, whatever
    its type, so it never shares memory with the input.  The state caches,
    read-only and each taken at most once, its reductions and two spectra:
    ``spectrum``, rho's, which validation takes anyway, and
    ``pt_spectrum``, that of T_A rho, which gptops.partial_transpose forms
    (gptops sits below this module, so the state calls it with no import of
    its own).
    """

    dims: SubsystemDims
    mat: np.ndarray
    check: InitVar[bool] = True
    checked: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self, check: bool) -> None:
        mat = as_cmatrix(np.array(self.mat, dtype=complex))  # the one copy
        d = self.dims.total
        if mat.shape != (d, d):
            raise DimensionMismatch(
                f"state matrix is {mat.shape}; dims ({self.dims.m}, {self.dims.n})"
                f" require ({d}, {d})"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        if check:  # validation's spectrum is the one spectrum would take
            spectrum = validate_density(mat)
            spectrum.setflags(write=False)
            object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "checked", check)

    @functools.cached_property
    def reductions(self) -> tuple[np.ndarray, np.ndarray]:
        """(rho_A, rho_B), the reduced states of A and of B: partial_trace's
        arrays, taken on first use and read-only, so every criterion that
        reads them shares one pair of traces."""
        pair = partial_trace(self, "B"), partial_trace(self, "A")
        for reduced in pair:
            reduced.setflags(write=False)
        return pair

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """rho's ascending spectrum, np.linalg.eigvalsh(mat), read-only: the
        array validation took, or taken on first use for an unchecked state.
        eigvalsh reads the lower triangle only, so on a non-Hermitian mat
        this is the spectrum of tril(mat, -1) + tril(mat, -1)^† + Re diag
        mat."""
        spectrum = np.linalg.eigvalsh(self.mat)
        spectrum.setflags(write=False)
        return spectrum

    @functools.cached_property
    def pt_spectrum(self) -> np.ndarray:
        """T_A rho's ascending spectrum, np.linalg.eigvalsh of
        partial_transpose(mat, dims, "A"), the gptops function this module
        imports, taken on first use and read-only, with the same
        lower-triangle reading as spectrum."""
        spectrum = np.linalg.eigvalsh(partial_transpose(self.mat, self.dims, "A"))
        spectrum.setflags(write=False)
        return spectrum


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


@np.errstate(over="ignore")
def trace_norm(mat) -> float | list[float]:
    """Sum of singular values (Ky Fan / nuclear norm) of a matrix, as a float,
    or of each matrix of a (k, r, c) stack, as a list; inf past the float range."""
    return np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False).sum(-1).tolist()


def svd(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD as (U, sigma, V) with mat = U[:, :k] @ diag(sigma) @ V[:, :k]^dagger.

    sigma is sorted descending; U and V have orthonormal columns.
    """
    u, s, vh = np.linalg.svd(np.asarray(mat, dtype=complex))
    return u, s, vh.conj().T


def check_hermitian(mat: np.ndarray) -> None:
    """Raise NotHermitian unless the square complex ndarray mat is Hermitian
    within TOL_HERM."""
    defect = float(abs(mat - mat.conj().T).max())
    if defect > TOL_HERM:
        raise NotHermitian(f"max |M_ij - conj(M_ji)| = {defect:.3e} exceeds {TOL_HERM}")


def hermitian_eigenvalues(mat) -> np.ndarray:
    """Real spectrum of a Hermitian matrix in ascending order.

    Uses a symmetric-aware solver so the output is exactly real; raises
    NotHermitian when the input violates the Hermiticity tolerance.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotHermitian(f"matrix of shape {mat.shape} is not square")
    check_hermitian(mat)
    return np.linalg.eigvalsh(mat)


def partial_trace(rho: DensityState, trace_out: str) -> np.ndarray:
    """Reduced matrix left after tracing out subsystem "A" or "B".

    Tracing out "B" returns the m-by-m reduced state of A and vice versa;
    the result keeps unit trace and Hermiticity.
    """
    m, n = rho.dims.m, rho.dims.n
    t = rho.mat.reshape(m, n, m, n)
    if trace_out == "B":
        return t.trace(axis1=1, axis2=3)
    if trace_out == "A":
        return t.trace(axis1=0, axis2=2)
    raise ValueError(f"trace_out must be 'A' or 'B', got {trace_out!r}")
