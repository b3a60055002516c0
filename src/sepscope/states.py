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
from .matlin import DensityState, SubsystemDims, kron

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
    V (alpha kron beta) = beta kron alpha.
    """
    if d < 1:
        raise ParamOutOfRange(f"swap dimension must be >= 1, got {d}")
    v = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            v[i * d + j, j * d + i] = 1.0
    return v


def werner(d: int, f: float) -> LabeledState:
    """d-dimensional Werner state ((d-f) I + (d f - 1) V) / (d^3 - d).

    Requires d >= 2 and -1 <= f <= 1; the state is non-separable exactly
    for -1 <= f < 0.
    """
    if d < 2:
        raise ParamOutOfRange(f"Werner dimension must be >= 2, got {d}")
    if not -1.0 <= f <= 1.0:
        raise ParamOutOfRange(f"Werner parameter must lie in [-1, 1], got {f}")
    mat = ((d - f) * np.eye(d * d) + (d * f - 1.0) * swap_operator(d)) / (d**3 - d)
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
        raise ParamOutOfRange(f"parameter must lie strictly inside (0, 1), got {c}")
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


def _random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return g / np.linalg.norm(g)


def random_separable(dims: SubsystemDims, k: int, seed: int) -> LabeledState:
    """Convex mixture of k random pure product states, deterministic per seed.

    Weights come from a flat simplex distribution (normalized exponentials)
    and the local vectors are Haar-uniform.
    """
    if k < 1:
        raise ParamOutOfRange(f"term count must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=k)
    weights /= weights.sum()
    mat = np.zeros((dims.total, dims.total), dtype=complex)
    for p in weights:
        product = np.kron(_random_ket(rng, dims.m), _random_ket(rng, dims.n))
        mat += p * np.outer(product, product.conj())
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
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_density_state(dims: SubsystemDims, seed: int) -> LabeledState:
    """random_density on dims, labeled "random-density" with m, n and seed."""
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
    rng = np.random.default_rng(seed)
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


def _parse_dim(payload: dict, key: str) -> int:
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParseError(f"field {key!r}: expected a positive integer, got {value!r}")
    return value


def _parse_array(payload: dict, key: str, d: int) -> np.ndarray:
    value = payload.get(key)
    if value is None:
        raise ParseError(f"field {key!r}: missing")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field {key!r}: not a numeric 2-D array ({exc})") from exc
    if arr.shape != (d, d):
        raise ParseError(f"field {key!r}: shape {arr.shape} does not match m*n = {d}")
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
        raise ParseError(f"field 'name': expected text, got {name!r}")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ParseError(f"field 'params': expected an object, got {params!r}")
    state = DensityState(SubsystemDims(m, n), re + 1j * im, check=not unchecked)
    return LabeledState(name=name, params=params, state=state)
