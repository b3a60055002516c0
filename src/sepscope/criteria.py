"""Separability criteria: the generalized reduction trace-norm test over all
transposition subsets, plus the classical PPT, reduction and realignment
checks used as independent oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ParamOutOfRange, SepscopeError
from .gptops import (
    REALIGN_Y,
    GptOpSet,
    all_subsets,
    gpt_transform,
    partial_transpose,
    realign,
)
from .matlin import (
    DensityState,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    trace_norm,
)

# Two orders above solver residual, far below the smallest violation any of
# the named example families produces (2/3 for the Werner family).  Verdicts
# scale it by max(1, bound): the generalized reduction map's entries, and
# with them the rounding error of the trace norm, grow like |a|*|b|.
TOL_VERDICT = 1e-8

# (a, b) values exercised by soundness tests and the compare workflow.
AB_TEST_GRID = (-1.0, -1.0 / 3.0, 0.0, 0.5, 2.0 / 3.0, 1.0)


@dataclass(frozen=True)
class ReductionParams:
    """The pair of complex scalars (a, b) parameterizing the map."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        a, b = complex(self.a), complex(self.b)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)
                and math.isfinite(b.real) and math.isfinite(b.imag)):
            raise ValueError(f"parameters must be finite, got a={self.a}, b={self.b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class BoundPair:
    """The two non-negative factors whose product bounds the trace norm."""

    h_a: float
    h_b: float

    @property
    def product(self) -> float:
        return self.h_a * self.h_b


@dataclass(frozen=True)
class CriterionVerdict:
    """One criterion evaluation: statistic, bound, violation and the flag.

    Every criterion follows the one rule of _judge.  Its excess is statistic
    - bound for the trace-norm criteria (the realignment bound is 1); ppt and
    reduction take a minimum eigenvalue as statistic, bound 0, excess -statistic.
    """

    criterion: str
    params: ReductionParams | None
    yset: GptOpSet | None
    statistic: float
    bound: float
    violation: float
    entangled: bool


def _overflow(p: ReductionParams) -> ParamOutOfRange:
    a, b = (f"{x.real:g}" if x.imag == 0 else f"{x:g}" for x in (p.a, p.b))
    return ParamOutOfRange(f"the map, its trace norm or the bound is not finite at a={a}, b={b}")


def _judge(excess: list[float], bound: list[float],
           culprit: Callable[[int], SepscopeError]) -> tuple[list[float], list[bool]]:
    """The one verdict rule of every criterion, entry by entry: the violation
    is max(excess, 0), flagged where it exceeds TOL_VERDICT * max(1, bound).
    An excess that is not a finite float raises culprit(i) for the first."""
    if not all(map(math.isfinite, excess)):
        raise culprit([math.isfinite(e) for e in excess].index(False))
    violation = [max(e, 0.0) for e in excess]
    return violation, [v > TOL_VERDICT * max(1.0, b) for v, b in zip(violation, bound)]


def reduction_maps(rho: DensityState, params: Sequence[ReductionParams]) -> np.ndarray:
    """The maps of generalized_reduction_map for every entry of params, as
    one (k, d, d) stack built from one pair of partial traces."""
    m, n = rho.dims.m, rho.dims.n
    k_b = kron(np.eye(m, dtype=complex), partial_trace(rho, "A"))
    k_a = kron(partial_trace(rho, "B"), np.eye(n, dtype=complex))
    a = np.array([p.a for p in params])[:, None, None]
    b = np.array([p.b for p in params])[:, None, None]
    ab = np.array([p.a * p.b for p in params])[:, None, None]
    try:  # before any SVD: LAPACK reports a non-finite input on the terminal
        with np.errstate(over="raise", invalid="raise"):
            np.multiply(a, b)  # raises where a Python product in ab overflowed silently
            return ab * np.eye(m * n) - a * k_b - b * k_a + rho.mat
    except FloatingPointError:  # each map alone, until the first to overflow is named
        for p in params[:-1]:
            reduction_maps(rho, (p,))
        raise _overflow(params[-1]) from None


def generalized_reduction_map(rho: DensityState, p: ReductionParams) -> np.ndarray:
    """Map rho to ab*I - a*(I kron rho_B) - b*(rho_A kron I) + rho.

    The output has the same shape as rho and is Hermitian whenever a and b
    are real.
    """
    return reduction_maps(rho, (p,))[0]


def h_factor(x: complex, dim: int, row_in: bool, col_in: bool) -> float:
    """Per-subsystem bound factor for parameter x on a dim-dimensional factor.

    With both transposition flags present or both absent the factor is
    |x-1| + (dim-1)|x|; with exactly one flag it is
    sqrt(|x-1|^2 + (dim-1)|x|^2).
    """
    x = complex(x)
    try:
        if row_in == col_in:
            return abs(x - 1.0) + (dim - 1) * abs(x)
        return math.sqrt(abs(x - 1.0) ** 2 + (dim - 1) * abs(x) ** 2)
    except OverflowError:  # an intermediate is not finite, so neither is the factor
        return math.inf


def bound_for(p: ReductionParams, dims, y: GptOpSet) -> BoundPair:
    """Both bound factors for the given parameters and transposition subset."""
    return BoundPair(
        h_a=h_factor(p.a, dims.m, y.rA, y.cA),
        h_b=h_factor(p.b, dims.n, y.rB, y.cB),
    )


class VerdictBlock(NamedTuple):
    """The generalized reduction verdicts of one complement class over all of
    a call's params.

    ``ysets`` are the indices, into the call's ysets, of the requested
    subsets this block serves; they share the statistic, bound, violation
    and flag of parameter i, found at position i of each list.
    """

    ysets: list[int]
    statistic: list[float]
    bound: list[float]
    violation: list[float]
    entangled: list[bool]


def _bound_factors(xs: list[complex], dim: int):
    """h_factor over xs for a flag pair, computed once per kind of pair: the
    factor depends on the two flags only through whether they are equal."""
    factors: dict[bool, list[float]] = {}

    def get(row_in: bool, col_in: bool) -> list[float]:
        same = row_in == col_in
        if same not in factors:
            factors[same] = [h_factor(x, dim, row_in, col_in) for x in xs]
        return factors[same]

    return get


def verdict_blocks(
    rho: DensityState,
    params: Sequence[ReductionParams],
    ysets: Sequence[GptOpSet],
) -> Iterator[VerdictBlock]:
    """Generalized reduction criterion for every pair (params[i], ysets[j]),
    one VerdictBlock per complement class, lazily.

    All maps come from one stack built once.  The requested subsets are
    taken one complement class {y, complement of y} at a time, in order of
    each class's first request, each with one stacked SVD over all of
    params; a class is computed only when the consumer asks for its block,
    so a consumer may stop early.  A subset and its complement have
    transposed transforms, hence the same statistic and the same bound:
    when both are requested, the member without rA is computed and its
    statistic serves both.  A subset requested without its complement is
    computed from its own transform.  A map, statistic or bound that is not
    finite raises ParamOutOfRange naming its (a, b).
    """
    stack = reduction_maps(rho, params)
    factor_a = _bound_factors([p.a for p in params], rho.dims.m)
    factor_b = _bound_factors([p.b for p in params], rho.dims.n)
    # A class is named by the flags (cA, rB, cB) of its member without rA.
    classes: dict[tuple[bool, bool, bool], list[int]] = {}
    for j, y in enumerate(ysets):
        name = (not y.cA, not y.rB, not y.cB) if y.rA else (y.cA, y.rB, y.cB)
        classes.setdefault(name, []).append(j)
    for name, served in classes.items():
        both = len({ysets[j].rA for j in served}) == 2
        computed = GptOpSet(False, *name) if both else ysets[served[0]]
        statistic = trace_norm(gpt_transform(stack, rho.dims, computed))
        bound = [h_a * h_b for h_a, h_b in zip(factor_a(computed.rA, computed.cA),
                                               factor_b(computed.rB, computed.cB))]
        excess = [s - b for s, b in zip(statistic, bound)]  # finite iff both are: s, b >= 0
        violation, entangled = _judge(excess, bound, lambda i: _overflow(params[i]))
        yield VerdictBlock(served, statistic, bound, violation, entangled)


def _verdict(block: VerdictBlock, i: int, p: ReductionParams, y: GptOpSet) -> CriterionVerdict:
    return CriterionVerdict(
        criterion="generalized-reduction",
        params=p,
        yset=y,
        statistic=block.statistic[i],
        bound=block.bound[i],
        violation=block.violation[i],
        entangled=block.entangled[i],
    )


def evaluate_grid(
    rho: DensityState,
    params: Sequence[ReductionParams],
    ysets: Sequence[GptOpSet],
) -> Iterator[tuple[int, int, CriterionVerdict]]:
    """Generalized reduction criterion for every pair (params[i], ysets[j]),
    yielded lazily as (i, j, verdict): the blocks of verdict_blocks expanded
    block by block, within a block subset by subset in request order, each
    over params in order."""
    for block in verdict_blocks(rho, params, ysets):
        for j in block.ysets:
            for i, p in enumerate(params):
                yield i, j, _verdict(block, i, p, ysets[j])


def evaluate(rho: DensityState, p: ReductionParams, y: GptOpSet) -> CriterionVerdict:
    """Generalized reduction criterion for one (a, b) pair and one subset y."""
    return _verdict(next(verdict_blocks(rho, (p,), (y,))), 0, p, y)


def evaluate_all_Y(rho: DensityState, p: ReductionParams) -> tuple[CriterionVerdict, ...]:
    """One verdict per flag subset, in canonical counter order; the state is
    flagged overall when any individual verdict flags it.  Takes one SVD per
    complement pair, so 8 for the 16 subsets."""
    return tuple(v for _, _, v in sorted(evaluate_grid(rho, (p,), all_subsets()),
                                         key=lambda r: r[1]))


def _oracle(criterion: str, yset: GptOpSet | None, statistic: float, bound: float,
            excess: float) -> CriterionVerdict:
    (violation,), (entangled,) = _judge([excess], [bound], lambda _: SepscopeError(
        f"the {criterion} statistic is not finite: {statistic}"))
    return CriterionVerdict(criterion, None, yset, statistic, bound, violation, entangled)


def ppt_check(rho: DensityState) -> CriterionVerdict:
    """Positivity of the partial transpose, taken on subsystem A.

    The B-side transpose has the same spectrum for Hermitian rho (global
    transpose similarity), so one side suffices.
    """
    pt = partial_transpose(rho.mat, rho.dims, "A")
    statistic = float(hermitian_eigenvalues(pt)[0])
    return _oracle("ppt", None, statistic, 0.0, -statistic)


def reduction_check(rho: DensityState) -> CriterionVerdict:
    """Positivity of I kron rho_B - rho and rho_A kron I - rho, jointly."""
    m, n = rho.dims.m, rho.dims.n
    rho_a = partial_trace(rho, "B")
    rho_b = partial_trace(rho, "A")
    lo_b = float(hermitian_eigenvalues(kron(np.eye(m), rho_b) - rho.mat)[0])
    lo_a = float(hermitian_eigenvalues(kron(rho_a, np.eye(n)) - rho.mat)[0])
    statistic = min(lo_a, lo_b)
    return _oracle("reduction", None, statistic, 0.0, -statistic)


def realignment_check(rho: DensityState) -> CriterionVerdict:
    """Trace norm of the realigned matrix against the separable bound 1."""
    statistic = trace_norm(realign(rho.mat, rho.dims))
    return _oracle("realignment", REALIGN_Y, statistic, 1.0, statistic - 1.0)


# The independent oracles by the name the CLI and find_threshold take.  Each
# entry looks its check up when called, so a rebound module name (a test's
# monkeypatch, or bench/tracer.py's spans) reaches callers of the table too.
ORACLES = {
    "ppt": lambda rho: ppt_check(rho),
    "reduction": lambda rho: reduction_check(rho),
    "realignment": lambda rho: realignment_check(rho),
}
