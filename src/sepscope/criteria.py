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
    realign,
)
from .matlin import (
    TOL_HERM,
    DensityState,
    check_hermitian,
    constant_cache,
    identity,
    kron,
    trace_norm,
)

# Two orders above solver residual, far below the smallest violation any of
# the named example families produces (2/3 for the Werner family).  Verdicts
# scale it by max(1, bound): the generalized reduction map's entries, and
# with them the rounding error of the trace norm, grow like |a|*|b|.
TOL_VERDICT = 1e-8

# (a, b) values exercised by soundness tests and the compare workflow.
AB_TEST_GRID = (-1.0, -1.0 / 3.0, 0.0, 0.5, 2.0 / 3.0, 1.0)

# The largest bound that lets detected settle a checked state's classes with
# no map built: below it every map, norm and trace norm is finite (Theorem 5
# of README's Theory section).
_SCALAR_BOUND = 1e100


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

    def __iter__(self) -> Iterator[complex]:  # a, b = p, as the kernel reads a plain pair
        return iter((self.a, self.b))


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


def _overflow(p: tuple[complex, complex]) -> ParamOutOfRange:
    a, b = (f"{x.real:g}" if x.imag == 0 else f"{x:g}" for x in p)
    return ParamOutOfRange(f"the map, its trace norm or the bound is not finite at a={a}, b={b}")


def _judge(excess: list[float], bound: list[float],
           culprit: Callable[[int], SepscopeError]) -> tuple[list[float], list[bool]]:
    """The one verdict rule of every criterion, entry by entry: the violation
    is max(0, excess), so +0.0 where the excess is -0.0, flagged where it
    exceeds TOL_VERDICT * max(1, bound).  An excess that is not a finite
    float raises culprit(i) for the first."""
    if not all(map(math.isfinite, excess)):
        raise culprit([math.isfinite(e) for e in excess].index(False))
    violation = [e if e > 0.0 else 0.0 for e in excess]  # max(0.0, e) without the call
    return violation, [v > TOL_VERDICT * (b if b > 1.0 else 1.0) for v, b in zip(violation, bound)]


def flag_margin(verdict: CriterionVerdict) -> float:
    """How far the verdict's excess lies past _judge's flag line: excess -
    TOL_VERDICT * max(1, bound), with the excess of CriterionVerdict.  It
    is > 0 exactly where the verdict is entangled, as a float difference
    has the sign of the exact one, save on a state with a factor of
    dimension 1, which verdict_blocks never flags."""
    if verdict.criterion in ("ppt", "reduction"):  # minimum eigenvalues against 0
        excess = -verdict.statistic
    else:
        excess = verdict.statistic - verdict.bound
    return excess - TOL_VERDICT * max(1.0, verdict.bound)


@constant_cache(16, lambda params, d: len(params) * (d * d + 2))
@np.errstate(over="ignore", invalid="ignore")  # found by reduction_maps, in the map it spoils
def _map_coefficients(params: tuple, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """reduction_maps' coefficients of params on d x d maps, read-only: a
    and b as (k, 1, 1) arrays and ab I as a (k, d, d) stack, built once per
    (params, d), so compare's grid takes them once for every state.  Keys
    equal as Python values share an entry, so a zero keeps the sign of the
    first params that asked; that moves only the sign of a zero entry of a
    map."""
    rows = np.array([(x, y, x * y) for x, y in params], dtype=complex).reshape(-1, 3)
    a, b, ab = rows.T[:, :, None, None]  # (k, 1, 1) each, k = 0 included
    return a, b, ab * identity(d)


@np.errstate(over="ignore", invalid="ignore")  # found below, by the map it spoils
def reduction_maps(rho: DensityState, params: Sequence[tuple[complex, complex]]) -> np.ndarray:
    """The maps of generalized_reduction_map for every entry of params, as
    one (k, d, d) stack built from the state's one pair of reductions and
    the cached coefficients of params.

    A map with an entry that is not finite raises ParamOutOfRange naming its
    (a, b), the first such in params, before any SVD sees it.  One isfinite
    check on the stack finds every overflow: the map's terms ab I, a (I kron
    rho_B), b (rho_A kron I) and rho are only added up, and a sum with an inf
    or NaN term is inf or NaN, so a product that overflowed, ab's included,
    leaves its map not finite.
    """
    m, n = rho.dims.m, rho.dims.n
    rho_a, rho_b = rho.reductions
    a, b, ab_identity = _map_coefficients(tuple(params), m * n)
    stack = (ab_identity - a * kron(identity(m, complex), rho_b)
             - b * kron(rho_a, identity(n, complex)) + rho.mat)
    finite = np.isfinite(stack)
    if not finite.all():
        raise _overflow(params[int(np.argmin(finite.all((1, 2))))])
    return stack


def generalized_reduction_map(rho: DensityState, p: ReductionParams) -> np.ndarray:
    """Map rho to ab*I - a*(I kron rho_B) - b*(rho_A kron I) + rho.

    The output has the same shape as rho and is Hermitian whenever a and b
    are real.
    """
    return reduction_maps(rho, (p,))[0]


def _factor(x: complex, dim: int, same: bool) -> float:
    """h_factor's value, keyed by whether the two flags are the same."""
    try:
        if same:
            return abs(x - 1.0) + (dim - 1) * abs(x)
        return math.sqrt(abs(x - 1.0) ** 2 + (dim - 1) * abs(x) ** 2)
    except OverflowError:  # an intermediate is not finite, so neither is the factor
        return math.inf


def h_factor(x: complex, dim: int, row_in: bool, col_in: bool) -> float:
    """Per-subsystem bound factor for parameter x on a dim-dimensional factor.

    With both transposition flags present or both absent the factor is
    |x-1| + (dim-1)|x|; with exactly one flag it is
    sqrt(|x-1|^2 + (dim-1)|x|^2).
    """
    return _factor(complex(x), dim, row_in == col_in)


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


def verdict_blocks(
    rho: DensityState,
    params: Sequence[tuple[complex, complex]],
    ysets: Sequence[GptOpSet],
) -> Iterator[VerdictBlock]:
    """Generalized reduction criterion for every pair (params[i], ysets[j]),
    one VerdictBlock per complement class, lazily.

    All maps come from one stack built once, and the classes and their
    bounds from _bound_table.  Each class is computed from its member
    without rA, with one stacked SVD over all of params, whatever was
    requested.  Classes come in order of their first request, each only
    when the consumer asks for its block, so a consumer may stop early.  A
    map, statistic or bound that is not finite raises ParamOutOfRange
    naming its (a, b).  A state with a factor of dimension 1 is a product,
    so no pair of it is flagged, whatever its violation; near a bound of 0
    the statistic's rounding may top the flag line there.  params are (a,
    b) pairs of Python complex, checked finite by the caller; a
    ReductionParams unpacks as one.
    """
    stack = reduction_maps(rho, params)
    codes, owner, limits = _bound_table(tuple(params), rho.dims, tuple(ysets))
    owners = owner.tolist()
    product = 1 in (rho.dims.m, rho.dims.n)
    for c, code in enumerate(codes.tolist()):
        bound = limits[:, c].tolist()
        statistic = trace_norm(gpt_transform(stack, rho.dims, all_subsets()[code]))
        excess = [s - b for s, b in zip(statistic, bound)]  # finite iff both are: s, b >= 0
        violation, entangled = _judge(excess, bound, lambda i: _overflow(params[i]))
        if product:
            entangled = [False] * len(entangled)
        yield VerdictBlock([j for j, o in enumerate(owners) if o == c],
                           statistic, bound, violation, entangled)


def _split_settles(rho: DensityState) -> bool:
    """detected's screen 4, Theorem 3: whether ZZZG's bound settles every
    pair of the realignment class, and with it the Frobenius class (Theorem
    4), at any (a, b), and the realignment oracle's statistic (Theorem 7).
    With e = d^2 eps, the state's cached residual ||R(Delta)||_1, Delta =
    rho - rho_A kron rho_B, is raised by e times itself plus e, alpha = 1 -
    ||rho_A||_F^2 and beta = 1 - ||rho_B||_F^2 are lowered by e, and delta
    = |tr rho_A - 1| is raised by e.  A purity past 1, as a pure
    reduction's may round, moves into the trace term: delta gains max(0,
    -alpha, -beta)/sqrt(2), and alpha and beta are clamped at 0."""
    e = rho.dims.total ** 2 * float(np.finfo(float).eps)
    rho_a, rho_b = rho.reductions
    residual = rho.residual * (1.0 + e) + e
    alpha, beta = (1.0 - float(np.vdot(x, x).real) - e for x in (rho_a, rho_b))
    trace = (max(abs(complex(np.trace(x)) - 1.0) for x in (rho_a, rho_b)) + e
             + max(0.0, -alpha, -beta) / math.sqrt(2.0))
    return (max(residual - math.sqrt(max(alpha, 0.0) * max(beta, 0.0)), 0.0)
            + trace * (2.0 * math.sqrt(2.0) + 2.0 * trace) <= TOL_VERDICT / 2)


def _ppt_clears(rho: DensityState) -> bool:
    """detected's screen 3, Theorems 1 and 2: whether every pair of the six
    classes other than cA,rB and cA,cB clears its bound by TOL_VERDICT/2,
    read off the state's two cached spectra, its skew norm s = ||rho -
    rho^†||_F and its trace defect; e = d^2 eps covers eigvalsh's
    rounding."""
    m, n = rho.dims.m, rho.dims.n
    d = m * n
    skew = rho.mat - rho.mat.conj().T
    s = math.sqrt(float(np.vdot(skew, skew).real))
    lam = max(0.0, s / 2 - float(rho.spectrum[0]), s / 2 - float(rho.pt_spectrum[0]))
    e = d * d * float(np.finfo(float).eps)
    defect = abs(complex(rho.mat.trace()) - 1.0)
    return (2 * d * (lam + e) + (d + 1) * defect + math.sqrt(max(m, n) / 2) * (1 + m + n) * s
            <= TOL_VERDICT / 2)


def _reduction_clears(rho: DensityState) -> bool:
    """compare's reduction screen, Theorem 6: whether reduction_check cannot
    flag a checked state, read off pt_spectrum, which the PPT oracle has
    cached.  With lambda its least entry and r = max(m, n), the oracle's
    excess is at most (r - 1) max(0, -lambda) + r (s + e): validation keeps
    the skew norm s = ||rho - rho^†||_F within d TOL_HERM, and e = d^2
    eps covers the rounding of the two eigvalsh calls and of the reduction
    maps.  It clears where that is at most TOL_VERDICT/2."""
    if not rho.checked:
        return False
    m, n = rho.dims.m, rho.dims.n
    d, r = m * n, max(m, n)
    budget = r * (d * TOL_HERM + d * d * float(np.finfo(float).eps))
    return (r - 1) * max(0.0, -float(rho.pt_spectrum[0])) + budget <= TOL_VERDICT / 2


@constant_cache(8, lambda params, dims, ysets: 8 * len(params) + len(ysets) + 8)
def _bound_table(params: tuple, dims, ysets: tuple) -> tuple[np.ndarray, ...]:
    """The complement classes {y, complement of y} of ysets and their bounds
    over params, read-only, as (codes, owner, limits).

    The classes come in order of their first request, each as the code 4 cA
    + 2 rB + cB of its member without rA, the subset of all_subsets() at
    that index.  A subset and its complement have transposed transforms,
    hence the same statistic and bound; a subset with rA is served by its
    complement, whose code is 7 minus its own.  owner[j] is the class that
    serves ysets[j].  limits is the (k, classes) table of the bounds h_a *
    h_b, Python float products, so its entries have the bits of scalar
    arithmetic.  A bound depends on the member's flags only through (not
    cA, rB == cB), so each side's list of factors, keyed by its flags being
    equal, is built once, with one _factor call per parameter: compare's
    grid takes 144.  The table depends on nothing but its arguments, so
    compare's grid builds it once for every state, and a sweep once for
    every state with the same b stack.  It holds at most 8 + len(ysets) +
    8k entries, the count its cache keeps it by.
    """
    codes: list[int] = []
    owner = []
    for y in ysets:
        code = 4 * y.cA + 2 * y.rB + y.cB
        code = 7 - code if y.rA else code
        if code not in codes:
            codes.append(code)
        owner.append(codes.index(code))
    h_a: dict[bool, list[float]] = {}  # each side's factors by flags equal, on first use
    h_b: dict[bool, list[float]] = {}
    bounds = []
    for code in codes:
        same_a, same_b = not code & 4, (code & 3) in (0, 3)
        if same_a not in h_a:
            h_a[same_a] = [_factor(a, dims.m, same_a) for a, _ in params]
        if same_b not in h_b:
            h_b[same_b] = [_factor(b, dims.n, same_b) for _, b in params]
        bounds.append([x * y for x, y in zip(h_a[same_a], h_b[same_b])])
    return np.array(codes, dtype=int), np.array(owner, dtype=int), np.array(bounds).T


def detected(
    rho: DensityState,
    params: Sequence[tuple[complex, complex]],
    ysets: Sequence[GptOpSet],
) -> bool:
    """Whether any pair (params[i], ysets[j]) is flagged: what
    ``any(any(b.entangled) for b in verdict_blocks(rho, params, ysets))``
    returns, raising what it raises, with verdict_blocks run only on the
    classes that two state-level screens leave open.  The proofs are the
    theorems of README's Theory section.

    The screens run on the scalar route, a checked state with m, n >= 2
    whose largest bound over params and ysets is at most _SCALAR_BOUND.
    There no map, norm or bound can overflow, and the T/2 * max(1, bound)
    that a screen leaves below the flag line, T = TOL_VERDICT, covers the
    full path's rounding (Theorem 5).  Each screen settles its classes
    whole, and runs where any of them is requested:

    - _ppt_clears, PPT read off the state's two cached spectra: the six
      classes other than cA,rB and cA,cB (screen 3, Theorems 1 and 2);
    - _split_settles, ZZZG's bound from one SVD of the residual: the
      realignment class cA,rB and the Frobenius class cA,cB (screen 4,
      Theorems 3 and 4).

    Where they settle every requested class, no map is built.  The classes
    left open go to verdict_blocks in order of first request, save that the
    realignment class goes before the Frobenius class, which flags only
    where it does (Theorem 4); the first flag returns True.  Every other
    input takes verdict_blocks on all its classes, so its flags and raises
    are the full path's by construction.
    params are (a, b) pairs of complex the caller checked finite.
    """
    codes, _, limits = _bound_table(tuple(params), rho.dims, tuple(ysets))
    if (rho.checked and rho.dims.m >= 2 and rho.dims.n >= 2
            and limits.size > 0 and limits.max() <= _SCALAR_BOUND):
        codes = codes.tolist()
        root = [code in (5, 6) for code in codes]  # the Frobenius and realignment classes
        settled = {False: not all(root) and _ppt_clears(rho),
                   True: any(root) and _split_settles(rho)}
        open_codes = [code for code, r in zip(codes, root) if not settled[r]]
        if 5 in open_codes and 6 in open_codes:  # Frobenius flags only where realignment does
            open_codes.remove(5)
            open_codes.insert(open_codes.index(6) + 1, 5)
        if not open_codes:
            return False
        ysets = [all_subsets()[code] for code in open_codes]
    return any(any(block.entangled) for block in verdict_blocks(rho, params, ysets))


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


def evaluate(rho: DensityState, p: ReductionParams, y: GptOpSet) -> CriterionVerdict:
    """Generalized reduction criterion for one (a, b) pair and one subset y:
    verdict_blocks' one block, taken to its end, which costs less than
    closing a generator left suspended."""
    (block,) = verdict_blocks(rho, ((p.a, p.b),), (y,))
    return _verdict(block, 0, p, y)


def evaluate_all_Y(rho: DensityState, p: ReductionParams) -> tuple[CriterionVerdict, ...]:
    """One verdict per flag subset, in canonical counter order; the state is
    flagged overall when any individual verdict flags it.  Takes one SVD per
    complement pair, so 8 for the 16 subsets."""
    subsets = all_subsets()
    verdicts: list = [None] * len(subsets)
    for block in verdict_blocks(rho, ((p.a, p.b),), subsets):
        for j in block.ysets:
            verdicts[j] = _verdict(block, 0, p, subsets[j])
    return tuple(verdicts)


def _oracle(criterion: str, yset: GptOpSet | None, statistic: float, bound: float,
            excess: float) -> CriterionVerdict:
    (violation,), (entangled,) = _judge([excess], [bound], lambda _: SepscopeError(
        f"the {criterion} statistic is not finite: {statistic}"))
    return CriterionVerdict(criterion, None, yset, statistic, bound, violation, entangled)


def ppt_check(rho: DensityState) -> CriterionVerdict:
    """Positivity of the partial transpose, taken on subsystem A.

    The B-side transpose has the same spectrum for Hermitian rho (global
    transpose similarity), so one side suffices.  The statistic is the
    least entry of rho.pt_spectrum, which detected's screen 3 shares; an
    unchecked state is tested for Hermiticity first, even where that cache
    is already filled.
    """
    if not rho.checked:  # T_A rho's defects are rho's, entry for entry
        check_hermitian(rho.mat)
    statistic = float(rho.pt_spectrum[0])
    return _oracle("ppt", None, statistic, 0.0, -statistic)


def reduction_check(rho: DensityState) -> CriterionVerdict:
    """Positivity of I kron rho_B - rho and rho_A kron I - rho, jointly."""
    m, n = rho.dims.m, rho.dims.n
    rho_a, rho_b = rho.reductions
    if not rho.checked:  # rho's own: a map's defect can sum m + 1 of rho's
        check_hermitian(rho.mat)
    maps = np.stack((kron(identity(m), rho_b), kron(rho_a, identity(n)))) - rho.mat
    statistic = float(np.linalg.eigvalsh(maps).min())  # both spectra in one call
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
