"""Generalized partial-transposition engine: vec, per-subsystem row/column
transpositions, composite transforms via index regrouping, realignment and
the SVD-based Kronecker-sum decomposition.

The package's lowest layer above errors: matlin, whose states take T_A rho's
spectrum here, imports this module, so this one names matlin's SubsystemDims
only in annotations."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch

if TYPE_CHECKING:
    from .matlin import SubsystemDims

# Singular values below this cutoff do not count toward the rank; inputs are
# unit-trace scale.
RANK_CUTOFF = 1e-12

FLAG_NAMES = ("rA", "cA", "rB", "cB")


@dataclass(frozen=True)
class GptOpSet:
    """A subset of the four transposition flags {rA, cA, rB, cB}."""

    rA: bool = False
    cA: bool = False
    rB: bool = False
    cB: bool = False

    @property
    def code(self) -> str:
        """Canonical text code, e.g. "cA,rB"; the empty set is "none"."""
        names = [name for name in FLAG_NAMES if getattr(self, name)]
        return ",".join(names) if names else "none"

    @classmethod
    def from_code(cls, code: str) -> "GptOpSet":
        """Parse a comma-separated flag code; "" and "none" mean the empty set.
        An unknown flag raises ValueError, and so does a repeated one: a
        transposition applied twice is the identity, so the code's meaning
        would be in doubt."""
        text = code.strip()
        if text.lower() in ("", "none"):
            return cls()
        seen = set()
        for token in text.split(","):
            token = token.strip()
            if token not in FLAG_NAMES:
                raise ValueError(
                    f"unknown transposition flag {token!r}; expected one of {FLAG_NAMES}"
                )
            if token in seen:
                raise ValueError(f"repeated transposition flag {token!r} in {code!r}")
            seen.add(token)
        return cls(**{name: name in seen for name in FLAG_NAMES})


_ALL_SUBSETS = tuple(
    GptOpSet(rA=bool(k & 8), cA=bool(k & 4), rB=bool(k & 2), cB=bool(k & 1))
    for k in range(16)
)


def all_subsets() -> tuple[GptOpSet, ...]:
    """The 16 flag subsets in canonical counter order, rA the most
    significant bit and cB the least; the same tuple on every call."""
    return _ALL_SUBSETS


def vec(a) -> np.ndarray:
    """Stack the columns of a into one column vector, row index fastest."""
    return np.asarray(a, dtype=complex).reshape(-1, 1, order="F")


def row_transposition(a) -> np.ndarray:
    """Whole-matrix row transposition: the 1-by-(rows*cols) row vec(a)^t."""
    return vec(a).T


def col_transposition(a) -> np.ndarray:
    """Whole-matrix column transposition: the (rows*cols)-by-1 column vec(a)."""
    return vec(a)


def double_transposition(a) -> np.ndarray:
    """Row and column transpositions applied jointly, in either order.

    The row transposition leaves a single row whose composite column index
    puts the original column digit above the original row digit; pulling
    the column digit back out as the row index yields the plain transpose.
    The two moves act on different slots, so the order does not matter.
    """
    a = np.asarray(a, dtype=complex)
    rows, cols = a.shape
    return row_transposition(a).reshape(cols, rows)


def _require_square(rho, dims: SubsystemDims, batch: bool = False) -> np.ndarray:
    """rho as a complex (d, d) array, or with batch=True also (k, d, d)."""
    rho = np.asarray(rho, dtype=complex)
    d = dims.total
    if rho.ndim not in ((2, 3) if batch else (2,)) or rho.shape[-2:] != (d, d):
        raise DimensionMismatch(
            f"matrix is {rho.shape}; dims ({dims.m}, {dims.n}) require ({d}, {d})"
        )
    return rho


def gpt_transform(rho, dims: SubsystemDims, y: GptOpSet) -> np.ndarray:
    """Apply the composite transposition selected by y as one index regrouping.

    Entries rho[(i,mu),(j,nu)] are addressed with composite row index i*n+mu
    and column index j*n+nu.  Each active flag moves one index slot to the
    other group: rA moves i to the columns, cA moves j to the rows, rB moves
    mu to the columns, cB moves nu to the rows.  Within a group, A-derived
    digits are higher-order than B-derived ones, and the column-origin digit
    of a subsystem (j or nu) outranks its row-origin digit (i or mu).  This
    reproduces the standard partial transpose for {rA,cA} and the
    realignment layout for {cA,rB} entry for entry; the flags act on
    disjoint slots, so the result is independent of application order.

    rho may carry a leading batch axis, (k, d, d); each slice is transformed
    alone.  The transform of y's complement is the transpose of y's.
    """
    m, n = dims.m, dims.n
    rho = _require_square(rho, dims, batch=True)
    lead = rho.shape[:-2]
    order, a_rows, b_rows = _regrouping(y, len(lead))
    rows = m**a_rows * n**b_rows
    return rho.reshape(*lead, m, n, m, n).transpose(order).reshape(
        *lead, rows, (m * m * n * n) // rows)


@functools.lru_cache(maxsize=32)  # 16 subsets, with or without a batch axis
def _regrouping(y: GptOpSet, off: int) -> tuple[tuple[int, ...], int, int]:
    """gpt_transform's axis order for the (..., i, mu, j, nu) view with off
    leading axes, rows' digits then columns', and how many of the row
    digits index A (i, j) and B (mu, nu)."""
    digits = transform_digits(y)
    rows = [axis for axis, in_rows in digits if in_rows]
    cols = [axis for axis, in_rows in digits if not in_rows]
    order = (*range(off), *(off + axis for axis in rows + cols))
    return order, sum(axis % 2 == 0 for axis in rows), sum(axis % 2 for axis in rows)


def transform_digits(y: GptOpSet) -> tuple[tuple[int, bool], ...]:
    """gpt_transform's index digits from highest to lowest order, j, i, nu,
    mu, each as (its axis in the (i, mu, j, nu) view of the matrix, whether
    it indexes the rows of y's transform)."""
    return ((2, y.cA), (0, not y.rA), (3, y.cB), (1, not y.rB))


REALIGN_Y = GptOpSet(cA=True, rB=True)
PARTIAL_TRANSPOSE_Y = {"A": GptOpSet(rA=True, cA=True), "B": GptOpSet(rB=True, cB=True)}


def realign(rho, dims: SubsystemDims) -> np.ndarray:
    """Realigned m^2-by-n^2 matrix whose rows are the vec'd n-by-n blocks.

    Row j*m+i holds vec(block at block position (i, j))^t, so
    realign(A kron B) = vec(A) vec(B)^t.
    """
    return gpt_transform(rho, dims, REALIGN_Y)


def partial_transpose(rho, dims: SubsystemDims, which: str = "A") -> np.ndarray:
    """Transpose the indices of one subsystem only; an involution."""
    if which not in PARTIAL_TRANSPOSE_Y:
        raise ValueError(f"which must be 'A' or 'B', got {which!r}")
    return gpt_transform(rho, dims, PARTIAL_TRANSPOSE_Y[which])


@dataclass(frozen=True)
class KronTermList:
    """Factor pairs (X_i, Y_i) with Z = sum_i X_i kron Y_i, one pair per
    singular value above the rank cutoff."""

    terms: tuple[tuple[np.ndarray, np.ndarray], ...]
    sigma: tuple[float, ...]

    def reconstruct(self) -> np.ndarray:
        if not self.terms:
            raise ValueError("no terms above the rank cutoff; nothing to reconstruct")
        total = np.kron(*self.terms[0])
        for x, yi in self.terms[1:]:
            total = total + np.kron(x, yi)
        return total


def kron_decompose(z, dims: SubsystemDims) -> KronTermList:
    """Nearest-Kronecker-sum decomposition via the SVD of the realignment.

    With realign(z) = sum_i sigma_i u_i v_i^dagger, the factors are
    vec(X_i) = sqrt(sigma_i) u_i and vec(Y_i) = sqrt(sigma_i) conj(v_i).
    """
    z = _require_square(z, dims)
    zh = realign(z, dims)
    u, s, vh = np.linalg.svd(zh)
    terms: list[tuple[np.ndarray, np.ndarray]] = []
    kept: list[float] = []
    for idx in range(s.size):
        sig = float(s[idx])
        if sig <= RANK_CUTOFF:
            break
        root = np.sqrt(sig)
        x = (root * u[:, idx]).reshape(dims.m, dims.m, order="F")
        yi = (root * vh[idx, :]).reshape(dims.n, dims.n, order="F")
        terms.append((x, yi))
        kept.append(sig)
    return KronTermList(terms=tuple(terms), sigma=tuple(kept))
