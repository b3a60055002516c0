"""Separability criteria: the generalized reduction trace-norm test over all
transposition subsets, plus the classical PPT, reduction and realignment
checks used as independent oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

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
# the named example families produces (2/3 for the Werner family).  The
# generalized reduction test scales it by max(1, bound): the map's entries,
# and with them the rounding error of the trace norm, grow like |a|*|b|.
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

    For norm-type criteria the statistic is a trace norm, violation is
    max(statistic - bound, 0) and the state is flagged when the violation
    exceeds TOL_VERDICT * max(1, bound); the realignment bound is 1, so
    there the tolerance is TOL_VERDICT itself.  For eigenvalue-type
    criteria (ppt, reduction) the statistic is a minimum eigenvalue, the
    bound is 0 and the state is flagged when the statistic drops below
    -TOL_VERDICT.
    """

    criterion: str
    params: ReductionParams | None
    yset: GptOpSet | None
    statistic: float
    bound: float
    violation: float
    entangled: bool


def reduction_maps(rho: DensityState, params: Sequence[ReductionParams]) -> np.ndarray:
    """The maps of generalized_reduction_map for every entry of params, as
    one (k, d, d) stack built from one pair of partial traces."""
    m, n = rho.dims.m, rho.dims.n
    k_b = kron(np.eye(m), partial_trace(rho, "A"))
    k_a = kron(partial_trace(rho, "B"), np.eye(n))
    a = np.array([p.a for p in params])[:, None, None]
    b = np.array([p.b for p in params])[:, None, None]
    ab = np.array([p.a * p.b for p in params])[:, None, None]
    return ab * np.eye(m * n) - a * k_b - b * k_a + rho.mat


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
    if row_in == col_in:
        return abs(x - 1.0) + (dim - 1) * abs(x)
    return math.sqrt(abs(x - 1.0) ** 2 + (dim - 1) * abs(x) ** 2)


def bound_for(p: ReductionParams, dims, y: GptOpSet) -> BoundPair:
    """Both bound factors for the given parameters and transposition subset."""
    return BoundPair(
        h_a=h_factor(p.a, dims.m, y.rA, y.cA),
        h_b=h_factor(p.b, dims.n, y.rB, y.cB),
    )


def _complement(y: GptOpSet) -> GptOpSet:
    return GptOpSet(rA=not y.rA, cA=not y.cA, rB=not y.rB, cB=not y.cB)


def evaluate_grid(
    rho: DensityState,
    params: Sequence[ReductionParams],
    ysets: Sequence[GptOpSet],
) -> Iterator[tuple[int, int, CriterionVerdict]]:
    """Generalized reduction criterion for every pair (params[i], ysets[j]),
    yielded lazily as (i, j, verdict).

    All maps come from one stack built once.  The requested subsets are
    taken one complement class {y, complement of y} at a time, each with one
    stacked SVD over all of params; a class is computed only when the
    consumer asks for its first verdict, so a consumer may stop early.  A
    subset and its complement have transposed transforms, hence the same
    statistic and the same bound: when both are requested, the member
    without rA is computed and its statistic serves both.  A subset
    requested without its complement is computed from its own transform.
    Within a class, verdicts come subset by subset in request order, each
    over params in order.
    """
    stack = reduction_maps(rho, params)
    requested = set(ysets)
    done: set[GptOpSet] = set()
    for y in ysets:
        if y in done:
            continue
        complement = _complement(y)
        members = {y, complement} & requested
        done |= members
        computed = y if len(members) == 1 or not y.rA else complement
        norms = np.linalg.svd(gpt_transform(stack, rho.dims, computed),
                              compute_uv=False).sum(-1)
        bounds = [bound_for(p, rho.dims, computed).product for p in params]
        for j, yj in enumerate(ysets):
            if yj in members:
                for i, p in enumerate(params):
                    yield i, j, _verdict(p, yj, float(norms[i]), bounds[i])


def _verdict(p: ReductionParams, y: GptOpSet, statistic: float, bound: float) -> CriterionVerdict:
    """The one place a generalized reduction verdict is flagged."""
    violation = max(statistic - bound, 0.0)
    return CriterionVerdict(
        criterion="generalized-reduction",
        params=p,
        yset=y,
        statistic=statistic,
        bound=bound,
        violation=violation,
        entangled=violation > TOL_VERDICT * max(1.0, bound),
    )


def evaluate(rho: DensityState, p: ReductionParams, y: GptOpSet) -> CriterionVerdict:
    """Generalized reduction criterion for one (a, b) pair and one subset y."""
    return next(evaluate_grid(rho, (p,), (y,)))[2]


def evaluate_all_Y(rho: DensityState, p: ReductionParams) -> tuple[CriterionVerdict, ...]:
    """One verdict per flag subset, in canonical counter order; the state is
    flagged overall when any individual verdict flags it.  Takes one SVD per
    complement pair, so 8 for the 16 subsets."""
    return in_request_order(evaluate_grid(rho, (p,), all_subsets()))


def in_request_order(results) -> tuple[CriterionVerdict, ...]:
    """The verdicts of evaluate_grid ordered by subset, then parameter."""
    return tuple(v for _, _, v in sorted(results, key=lambda r: (r[1], r[0])))


def ppt_check(rho: DensityState) -> CriterionVerdict:
    """Positivity of the partial transpose, taken on subsystem A.

    The B-side transpose has the same spectrum for Hermitian rho (global
    transpose similarity), so one side suffices.
    """
    pt = partial_transpose(rho.mat, rho.dims, "A")
    statistic = float(hermitian_eigenvalues(pt)[0])
    return CriterionVerdict(
        criterion="ppt",
        params=None,
        yset=None,
        statistic=statistic,
        bound=0.0,
        violation=max(-statistic, 0.0),
        entangled=statistic < -TOL_VERDICT,
    )


def reduction_check(rho: DensityState) -> CriterionVerdict:
    """Positivity of I kron rho_B - rho and rho_A kron I - rho, jointly."""
    m, n = rho.dims.m, rho.dims.n
    rho_a = partial_trace(rho, "B")
    rho_b = partial_trace(rho, "A")
    lo_b = float(hermitian_eigenvalues(kron(np.eye(m), rho_b) - rho.mat)[0])
    lo_a = float(hermitian_eigenvalues(kron(rho_a, np.eye(n)) - rho.mat)[0])
    statistic = min(lo_a, lo_b)
    return CriterionVerdict(
        criterion="reduction",
        params=None,
        yset=None,
        statistic=statistic,
        bound=0.0,
        violation=max(-statistic, 0.0),
        entangled=statistic < -TOL_VERDICT,
    )


def realignment_check(rho: DensityState) -> CriterionVerdict:
    """Trace norm of the realigned matrix against the separable bound 1."""
    statistic = trace_norm(realign(rho.mat, rho.dims))
    violation = max(statistic - 1.0, 0.0)
    return CriterionVerdict(
        criterion="realignment",
        params=None,
        yset=REALIGN_Y,
        statistic=statistic,
        bound=1.0,
        violation=violation,
        entangled=violation > TOL_VERDICT,
    )
