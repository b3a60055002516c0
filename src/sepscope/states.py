"""Named example states, random ensembles, local unitaries and state-file I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NotUnitary,
    ParamOutOfRange,
    ParseError,
)
from .matlin import DensityState, SubsystemDims, constant_cache, identity, kron

TOL_UNITARY = 1e-8


@dataclass(frozen=True)
class LabeledState:
    """A density state together with the family name and parameters that
    produced it."""

    name: str
    params: Mapping[str, float]
    state: DensityState


def swap_operator(d: int) -> np.ndarray:
    """The swap V = sum_{i,j} |ij><ji| on a d x d product space.

    V is a symmetric real 0/1 matrix with V^2 = I and Tr V = d, and
    V (alpha kron beta) = beta kron alpha.  It is read-only, and cached
    while it has at most matlin.CACHE_ENTRIES entries (d <= 16).
    """
    if d < 1:
        raise ParamOutOfRange(f"swap dimension must be >= 1, got {d}")
    return _swap(d)


@constant_cache(8, lambda d: d**4)
def _swap(d: int) -> np.ndarray:
    """swap_operator's matrix for a d >= 1 it has checked."""
    v = np.zeros((d, d, d, d))
    np.einsum("ijji->ij", v)[...] = 1.0  # a writeable view of the entries <ij|V|ji>
    return v.reshape(d * d, d * d)


def werner(d: int, f: float) -> LabeledState:
    """d-dimensional Werner state ((d-f) I + (d f - 1) V) / (d^3 - d).

    Requires d >= 2 and -1 <= f <= 1; the state is non-separable exactly
    for -1 <= f < 0.
    """
    if d < 2:
        raise ParamOutOfRange(f"d: Werner dimension must be >= 2, got {d}")
    if not -1.0 <= f <= 1.0:
        raise ParamOutOfRange(f"f: Werner parameter must lie in [-1, 1], got {f}")
    mat = ((d - f) * identity(d * d) + (d * f - 1.0) * swap_operator(d)) / (d**3 - d)
    return LabeledState(
        name="werner",
        params={"d": d, "f": f},
        state=DensityState(SubsystemDims(d, d), mat),
    )


def horodecki_3x3(c: float) -> LabeledState:
    """The 3x3 bound entangled state with parameter 0 < c < 1.

    Real symmetric 9x9 matrix with prefactor 1/(8c+1); it stays positive
    under partial transposition for every permissible c.
    """
    if not 0.0 < c < 1.0:
        raise ParamOutOfRange(f"c: parameter must lie strictly inside (0, 1), got {c}")
    half_sum = (1.0 + c) / 2.0
    cross = np.sqrt(1.0 - c * c) / 2.0
    mat = np.zeros((9, 9))
    for idx in (0, 1, 2, 3, 4, 5, 7):
        mat[idx, idx] = c
    mat[6, 6] = half_sum
    mat[8, 8] = half_sum
    for i, j in ((0, 4), (0, 8), (4, 8)):
        mat[i, j] = mat[j, i] = c
    mat[6, 8] = mat[8, 6] = cross
    mat /= 8.0 * c + 1.0
    return LabeledState(
        name="horodecki",
        params={"c": c},
        state=DensityState(SubsystemDims(3, 3), mat),
    )


def _rng(seed: int) -> np.random.Generator:
    """numpy's default generator for seed, which must not be negative."""
    if seed < 0:
        raise ParamOutOfRange(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def _normalized(g: np.ndarray) -> np.ndarray:
    """Each row of g over its 2-norm.  The norm is np.linalg.norm's
    arithmetic, real and imaginary parts each as a dot with itself, batched
    through @, so it equals np.linalg.norm of the row bit for bit."""
    re, im = g.real[:, None, :], g.imag[:, None, :]
    norm = np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])
    return g / norm[:, None]


def random_separable(dims: SubsystemDims, k: int, seed: int) -> LabeledState:
    """Convex mixture of k random pure product states, deterministic per seed.

    Weights come from a flat simplex distribution (normalized exponentials)
    and the local vectors are Haar-uniform.  Each term draws its kets' real
    and imaginary parts, A's then B's, in one row of a single draw, and the
    terms are summed in order: the matrix equals, bit for bit, a loop that
    draws, normalizes and adds one term at a time.
    """
    if k < 1:
        raise ParamOutOfRange(f"k: term count must be >= 1, got {k}")
    m, n = dims.m, dims.n
    rng = _rng(seed)
    weights = rng.exponential(size=k)
    weights /= weights.sum()
    g = rng.standard_normal((k, 2 * m + 2 * n))
    ket_a = _normalized(g[:, :m] + 1j * g[:, m:2 * m])
    ket_b = _normalized(g[:, 2 * m:2 * m + n] + 1j * g[:, 2 * m + n:])
    products = (ket_a[:, :, None] * ket_b[:, None, :]).reshape(k, m * n)
    # One reduction over axis 0 adds the terms in order, as the loop would.
    mat = (weights[:, None, None] * (products[:, :, None] * products.conj()[:, None, :])).sum(0)
    return LabeledState(
        name="separable",
        params={"m": dims.m, "n": dims.n, "k": k, "seed": seed},
        state=DensityState(dims, mat),
    )


def random_density(dim: int, seed: int) -> np.ndarray:
    """Random full-rank density matrix G G^dagger / Tr(G G^dagger) from a
    seeded complex Gaussian G; callers attach subsystem dims."""
    if dim < 2:
        raise ParamOutOfRange(f"dimension must be >= 2, got {dim}")
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_density_state(dims: SubsystemDims, seed: int) -> LabeledState:
    """random_density on dims, labeled "random-density" with m, n and seed."""
    if dims.total < 2:
        raise ParamOutOfRange(f"m*n must be >= 2, got m*n = {dims.total} (m={dims.m}, n={dims.n})")
    return LabeledState("random-density", {"m": dims.m, "n": dims.n, "seed": seed},
                        DensityState(dims, random_density(dims.total, seed)))


class Family(NamedTuple):
    """A state family: build(options, value) is its member at parameter value,
    with d, m, n, k read from the parsed options (sweep passes None); option is
    the check/gen option holding the value, axis the default sweep axis and
    spacing(options, count) the values of compare's members, or None."""

    build: Callable | None
    option: str | None = None
    axis: tuple[float, float, float] | None = None
    spacing: Callable | None = None


# In the order of the commands' choices.  Each builder looks its constructor up
# when called, so a rebound name (a monkeypatch, bench/tracer.py) reaches it.
FAMILIES = {
    "werner": Family(lambda o, f: werner(o.d, f), "f"),
    "werner-3": Family(lambda o, f: werner(3, f), None, (-1.0, 1.0, 0.05),
                       lambda o, count: [-1.0 + 2.0 * i / max(count - 1, 1) for i in range(count)]),
    "horodecki": Family(lambda o, c: horodecki_3x3(c), "c", (0.05, 0.95, 0.05),
                        lambda o, count: [(i + 1) / (count + 1) for i in range(count)]),
    "separable": Family(lambda o, seed: random_separable(SubsystemDims(o.m, o.n), o.k, seed),
                        "seed", None, lambda o, count: [o.seed + i for i in range(count)]),
    "random": Family(lambda o, seed: random_density_state(SubsystemDims(o.m, o.n), seed),
                     "seed", None, lambda o, count: [o.seed + i for i in range(count)]),
    "file": Family(None, None, (0.0, 0.0, 1.0)),  # sweep loads it once, for every value
}


def family_names(use: str) -> tuple[str, ...]:
    """The families with a use ("option", "axis" or "spacing"), in table order."""
    return tuple(name for name, family in FAMILIES.items() if getattr(family, use) is not None)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a seeded complex Gaussian with the
    phases of the triangular factor's diagonal normalized away."""
    if dim < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {dim}")
    rng = _rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def local_unitary_conjugate(rho: DensityState, wa: np.ndarray, wb: np.ndarray) -> DensityState:
    """Conjugate rho by wa kron wb; a valid state with the same spectrum."""
    m, n = rho.dims.m, rho.dims.n
    wa = np.asarray(wa, dtype=complex)
    wb = np.asarray(wb, dtype=complex)
    if wa.shape != (m, m) or wb.shape != (n, n):
        raise DimensionMismatch(
            f"local unitaries must be ({m}, {m}) and ({n}, {n}),"
            f" got {wa.shape} and {wb.shape}"
        )
    for name, w in (("W_A", wa), ("W_B", wb)):
        defect = float(np.max(np.abs(w.conj().T @ w - np.eye(w.shape[0]))))
        if defect > TOL_UNITARY:
            raise NotUnitary(f"{name} fails orthonormality by {defect:.3e}")
    w = kron(wa, wb)
    return DensityState(rho.dims, w @ rho.mat @ w.conj().T)


def save_state(labeled: LabeledState, path) -> None:
    """Write a state file: JSON object with m, n, re, im and optional
    name/params."""
    mat = labeled.state.mat
    payload = {
        "m": labeled.state.dims.m,
        "n": labeled.state.dims.n,
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
        "name": labeled.name,
        "params": dict(labeled.params),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def _field(payload: dict, key: str):
    """payload[key], or ParseError if the key is absent; a JSON null reads None."""
    if key not in payload:
        raise ParseError(f"field {key!r}: missing")
    return payload[key]


def _wrong(key: str, expected: str, value) -> ParseError:
    """The error for a field that holds value where expected was due; a JSON
    null is named as such."""
    got = "null" if value is None else repr(value)
    return ParseError(f"field {key!r}: expected {expected}, got {got}")


def _parse_dim(payload: dict, key: str) -> int:
    value = _field(payload, key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise _wrong(key, "a positive integer", value)
    return value


# For each dtype kind numpy gives a field's array when some entry is not a JSON
# number, what that entry is.
_NOT_NUMBERS = {"b": "true or false", "U": "a string",
                "O": "null, an object or an integer outside the 64-bit range"}


def _parse_array(payload: dict, key: str, d: int) -> np.ndarray:
    """Field key as a (d, d) float array.  Every entry must be a finite JSON
    number: the array's dtype kind must be integer or float, which one
    string, null or object anywhere fails, as does a field of nothing but
    true/false, and one isfinite rejects NaN, Infinity and 1e400.  numpy
    reads true or false among numbers as 1 or 0, with no trace in the dtype,
    so only the entries equal to 0 or 1 are looked up for a bool."""
    value = _field(payload, key)
    if value is None:
        raise ParseError(f"field {key!r}: expected a 2-D array of numbers, found null")
    try:
        arr = np.array(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field {key!r}: not a numeric 2-D array ({exc})") from exc
    if arr.shape != (d, d):
        raise ParseError(f"field {key!r}: shape {arr.shape} does not match m*n = {d}")
    if arr.dtype.kind not in "iuf":
        raise ParseError(f"field {key!r}: every entry must be a number,"
                         f" found {_NOT_NUMBERS[arr.dtype.kind]}")
    arr = arr.astype(float, copy=False)
    hits = np.flatnonzero((arr == 0) | (arr == 1)).tolist()  # where a true or false can hide
    if any(type(value[i // d][i % d]) is bool for i in hits):
        raise ParseError(f"field {key!r}: every entry must be a number, found {_NOT_NUMBERS['b']}")
    finite = np.isfinite(arr)
    if not finite.all():
        raise ParseError(f"field {key!r}: every entry must be finite,"
                         f" found {arr.flat[np.argmin(finite)]}")
    return arr


def load_state(path, unchecked: bool = False) -> LabeledState:
    """Read a state file written by save_state.

    Raises ParseError for malformed files and InvariantViolation when the
    matrix fails the density-state checks; pass unchecked=True to skip the
    physical checks (the shape checks always apply).
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ParseError("top level: expected a JSON object")
    m = _parse_dim(payload, "m")
    n = _parse_dim(payload, "n")
    d = m * n
    re = _parse_array(payload, "re", d)
    im = _parse_array(payload, "im", d)
    name = payload.get("name", "state")
    if not isinstance(name, str):
        raise _wrong("name", "text", name)
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise _wrong("params", "an object", params)
    state = DensityState(SubsystemDims(m, n), re + 1j * im, check=not unchecked)
    return LabeledState(name=name, params=params, state=state)
