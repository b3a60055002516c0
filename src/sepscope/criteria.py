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
# no map built: below it every map, norm and trace norm is finite (see the
# rounding paragraph of detected's docstring).
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
    has the sign of the exact one."""
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
    a, b, ab = np.array([(x, y, x * y) for x, y in params]).T[:, :, None, None]
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


def _judged(statistic: list[float], bound: list[float], params: Sequence[tuple[complex, complex]]
            ) -> tuple[list[float], list[bool]]:
    """_judge on trace norms against their bounds; a pair whose excess is not
    finite raises ParamOutOfRange naming its (a, b)."""
    excess = [s - b for s, b in zip(statistic, bound)]  # finite iff both are: s, b >= 0
    return _judge(excess, bound, lambda i: _overflow(params[i]))


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
    naming its (a, b).  params are (a, b) pairs of Python complex, checked
    finite by the caller; a ReductionParams unpacks as one.
    """
    stack = reduction_maps(rho, params)
    codes, owner, limits, _ = _bound_table(tuple(params), rho.dims, tuple(ysets))
    owners = owner.tolist()
    for c, code in enumerate(codes.tolist()):
        bound = limits[:, c].tolist()
        statistic = trace_norm(gpt_transform(stack, rho.dims, all_subsets()[code]))
        violation, entangled = _judged(statistic, bound, params)
        yield VerdictBlock([j for j, o in enumerate(owners) if o == c],
                           statistic, bound, violation, entangled)


def _split_settles(rho: DensityState, roots: np.ndarray, bound: np.ndarray) -> bool | np.ndarray:
    """detected's screen 4 on open realignment-class pairs with root factors
    roots, a (k, 2) array of columns h_a, h_b, and bounds bound: True where
    ZZZG settles every pair at once, else which pairs the product bound
    settles.  With e = d^2 eps, the residual ||R(Delta)||_1, Delta = rho -
    rho_A kron rho_B, is raised by e times itself plus e, alpha = 1 -
    ||rho_A||_F^2 and beta = 1 - ||rho_B||_F^2 are lowered by e, delta =
    |tr rho_A - 1| is raised by e, and each side's (h + delta)^2 by e times
    itself.  A Delta that is not finite settles nothing."""
    e = rho.dims.total ** 2 * np.finfo(float).eps
    rho_a, rho_b = rho.reductions
    delta = rho.mat - kron(rho_a, rho_b)
    if not np.isfinite(delta).all():
        return False
    residual = trace_norm(realign(delta, rho.dims)) * (1.0 + e) + e
    alpha, beta = (1.0 - float(np.vdot(x, x).real) - e for x in (rho_a, rho_b))
    trace = max(abs(complex(np.trace(x)) - 1.0) for x in (rho_a, rho_b)) + e
    if alpha >= 0.0 and beta >= 0.0 and (max(residual - math.sqrt(alpha * beta), 0.0)
                                         + trace * (2.0 * math.sqrt(2.0) + 2.0 * trace)
                                         <= TOL_VERDICT / 2):
        return True
    h_a, h_b = roots.T
    upper = np.sqrt(((h_a + trace) ** 2 * (1.0 + e) - alpha)
                    * ((h_b + trace) ** 2 * (1.0 + e) - beta)) + residual
    return upper <= bound + TOL_VERDICT / 2 * np.maximum(bound, 1.0)


def _corners_clear(rho: DensityState) -> bool:
    """detected's screen 2: whether classes none and rB,cB both clear their
    four corners by TOL_VERDICT/2 of their bounds, read off upper bounds on
    ||rho||_1 and ||T_A rho||_1 from the state's two cached spectra, its
    cached skew norm and the trace defect that X(1, 1) carries."""
    m, n = rho.dims.m, rho.dims.n
    norm = (max(float(abs(rho.spectrum).sum()), float(abs(rho.pt_spectrum).sum()))
            + math.sqrt(m * n / 2) * rho.skew_norm)
    corner = (m - 1) * (n - 1)  # X(1, 1)'s bound
    defect = m * n * abs(complex(rho.mat.trace()) - 1.0)  # ||(1 - tr rho) I||_1
    return norm <= 1 + TOL_VERDICT / 2 and corner * norm + defect <= corner * (1 + TOL_VERDICT / 2)


def _ppt_clears(rho: DensityState) -> bool:
    """detected's screen 3: whether every pair of the mixed classes cB, rB,
    cA and cA,rB,cB clears its bound by TOL_VERDICT/2, read off the state's
    two cached spectra, its cached skew norm s = ||rho - rho^†||_F and its
    trace defect; e = d^2 eps covers eigvalsh's rounding."""
    m, n = rho.dims.m, rho.dims.n
    d = m * n
    s = rho.skew_norm
    lam = max(0.0, s / 2 - float(rho.spectrum[0]), s / 2 - float(rho.pt_spectrum[0]))
    e = d * d * float(np.finfo(float).eps)
    defect = abs(complex(rho.mat.trace()) - 1.0)
    return (2 * d * (lam + e) + (d + 1) * defect + math.sqrt(max(m, n) / 2) * (1 + m + n) * s
            <= TOL_VERDICT / 2)


@constant_cache(8, lambda params, dims, ysets: 10 * len(params) + len(ysets) + 8)
def _bound_table(params: tuple, dims, ysets: tuple) -> tuple[np.ndarray, ...]:
    """The complement classes {y, complement of y} of ysets and their bounds
    over params, read-only, as (codes, owner, limits, roots).

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
    grid takes 144.  roots holds the realignment class's two root-factor
    lists as (k, 2) columns h_a, h_b, or is empty, (0, 2), where that class
    is not requested.  The table depends on nothing but its arguments, so
    compare's grid builds it once for every state, and a sweep once for
    every state with the same b stack.  It holds at most 8 + len(ysets) +
    8k + 2k entries, the count its cache keeps it by.
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
    roots = [h_a[False], h_b[False]] if 6 in codes else [[], []]
    return (np.array(codes, dtype=int), np.array(owner, dtype=int),
            np.array(bounds).T, np.array(roots).T)


def _open_maps(rho: DensityState, params: Sequence[tuple[complex, complex]],
               limits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """detected's maps once a class is left open: reduction_maps' stack,
    each map's Frobenius norm, and where that norm and the bound of each
    (pair, class) of limits are both finite."""
    stack = reduction_maps(rho, params)
    norm = np.linalg.norm(stack, axis=(1, 2))
    return stack, norm, np.isfinite(norm)[:, None] & np.isfinite(limits)


def detected(
    rho: DensityState,
    params: Sequence[tuple[complex, complex]],
    ysets: Sequence[GptOpSet],
) -> bool:
    """Whether any pair (params[i], ysets[j]) is flagged: what
    ``any(any(b.entangled) for b in verdict_blocks(rho, params, ysets))``
    returns, raising what it raises, with an SVD only of the maps that its
    screens leave unsettled.  A pair flags where its excess tops T *
    max(1, bound), T = TOL_VERDICT.  The classes and their bounds come from
    _bound_table, built once per (params, dims, ysets), and are taken in
    order of first request.

    1. State-level scalars first, then the maps.  Each class first takes
       the scalar that settles it whole: screen 2's for none and rB,cB,
       screen 3's for the mixed classes, and screen 4's for the realignment
       class {cA,rB} and the Frobenius class {cA,cB}.  Every transform only
       permutes the entries of its map, so the Frobenius class, whose
       transform is the vector of X's entries, has statistic ||X||_F =
       ||R(X)||_F <= ||R(X)||_1, at most the realignment class's pair by
       pair, and the two share the root-root bound; so where screen 4
       settles the whole realignment class, it settles the Frobenius class
       too.  The Frobenius class asks that only where the realignment class
       is requested, on the scalar route, so asked alone it takes no SVD of
       the residual.  On the scalar route, a checked state with m, n >= 2
       whose largest bound is at most _SCALAR_BOUND, a class so settled
       needs no map, and reduction_maps' stack and its Frobenius norms are
       built only when a class is left open.  Off that route they are built
       first, as the full path builds them, and every screen sees only
       pairs whose ||X||_F and bound are finite.  Where the maps are built,
       the Frobenius class settles a pair where ||X||_F is at most its
       bound plus T/2 * max(1, bound).  The SVD of a vector and ||X||_F
       round alike, by O(d eps) of the norm, so the full path would not
       flag such a pair, for any m and n.

    2. Trace norms, classes none and rB,cB together.  The map is
       bilinear: X(a, b) = sum_c w'_c X_c over the corners c in {0, 1}^2,
       w' = (1-a, a) kron (1-b, b).  Y is linear, so with w = |w'| =
       (|1-a|, |a|) kron (|1-b|, |b|) the triangle inequality gives ||Y X(a,
       b)||_1 <= sum_c w_c ||Y X_c||_1.  Both bound factors are linear, h(x)
       = |1-x| h(0) + |x| h(1), so the bound splits alike: h_a h_b = sum_c
       w_c bound_c, with bound_c = 1, m-1, n-1, (m-1)(n-1).  So if each
       corner has ||Y X_c||_1 <= (1 + T/2) bound_c, every pair's exact
       excess is at most T/2 * bound, at any complex (a, b), for any
       matrix.  The reduction map R(Z) = tr(Z) I - Z is co-positive: R(Z)
       = Phi(Z^T) with Phi(Z) = tr(Z) I - Z^T completely positive, Phi*(I)
       = (dim - 1) I, and Phi commutes with the transpose.  So each corner is X_c = ±
       Phi_c(Z_c) with Phi_c CP and Phi_c*(I) = bound_c I: in none, rho,
       (Phi kron id) T_A rho, (id kron Phi) T_B rho and (Phi kron Phi)
       rho^T; in rB,cB, their partial transposes on B, rho^{T_B}, (Phi kron
       id) rho^T, (id kron Phi) rho and (Phi kron Phi) T_A rho.  X(1, 1)
       adds (1 - tr rho) I, as its ab I is I, not tr(rho) I.  By Russo-Dye
       a positive map's dual has norm ||Phi_c*(I)||, so ||Phi_c(Z)||_1 <=
       bound_c ||Z||_1 for any matrix Z, and transposes keep trace norms.
       So every corner of both classes is at most bound_c max(||rho||_1,
       ||T_A rho||_1), plus d |tr rho - 1| at (1, 1).  _corners_clear
       reads both trace norms off the state's cached spectra, spectrum and
       pt_spectrum, the eigvalsh of rho and T_A rho that validation and
       ppt_check take anyway, so it takes no eigvalsh of its own where they
       ran.  eigvalsh reads the lower triangle: its spectrum is that of
       H_L = tril(X, -1) + tril(X, -1)^† + Re diag X, and E = X - H_L
       holds X_ij - conj X_ji above the diagonal and i Im X_ii on it, so
       ||E||_F^2 <= ||X - X^†||_F^2 / 2 and ||X||_1 <= sum |eig(H_L)| +
       sqrt(d/2) ||X - X^†||_F.  T_A permutes entries and commutes with †,
       so one skew term serves rho and T_A rho, and the bound is sound on
       any input, checked or not; the trace term keeps off-trace input
       sound.  Where the larger is at most 1 + T/2, and (m-1)(n-1) times it plus
       the trace term at most (1 + T/2)(m-1)(n-1), both classes settle
       every pair with finite norm and bound; else both go to the SVD.
       On a unit-trace PSD state that is the trace-norm PPT test
       ||T_A rho||_1 <= 1 + T/2.

    3. PPT, the mixed classes cB, rB, cA and cA,rB,cB, on a checked state.
       On a PSD, PPT state with m, n >= 2, no mixed class exceeds its
       bound at any complex (a, b).  Take cB, whose bound is (|1-a| +
       (m-1)|a|) h_b with the root factor h_b.  X(a, b) = (1-a) X(0, b) +
       a X(1, b), so it is enough that ||Y X(0, b)||_1 <= h_b and ||Y X(1,
       b)||_1 <= (m-1) h_b.  The transform keeps only A's column digit
       among its columns, so ||Y_cB X||_1 = tr sqrt(tr_B(X^† X)); at (0, b),
       X = rho - b rho_A kron I, that is tr sqrt(tr_B rho^2 + (h_b^2 - 1)
       rho_A^2).  Cauchy-Schwarz with weight rho_A bounds it by
       sqrt(tr((rho_A^-1 kron I) rho^2) + h_b^2 - 1), and tr((rho_A^-1
       kron I) rho^2) <= 1 wherever 0 <= rho <= rho_A kron I: the
       reduction criterion, which PPT implies (Horodecki & Horodecki, PRA
       59, 4206 (1999)).  X(1, b) = -(Phi kron id)(id kron Psi_b)(T_A rho),
       with Phi as in screen 2, CP with Phi(I) = Phi*(I) = (m-1) I, and
       Psi_b(Z) = Z - b tr(Z) I; T_A rho is PSD and PPT too, so the same
       steps give the (m-1) h_b corner.  rB follows by conjugate
       transposition, and cA and cA,rB,cB by swapping A and B.
       The theorem reaches states that are only nearly PSD and PPT.  A
       Hermitian H of trace 1 with lambda = max(0, -lambda_min(H),
       -lambda_min(T_A H)) is (1 + t) rho' - t I/d, t = d lambda, with rho'
       PSD and PPT and I/d separable, so every mixed class's excess is at
       most 2 d lambda * bound.  On any matrix rho with m, n >= 2, take H
       its Hermitian part, s = ||rho - rho^†||_F and delta = |tr rho - 1|.
       The lower triangles eigvalsh reads lie within s/2 of H and T_A H in
       norm (see screen 2), so by Weyl lambda <= max(0, s/2 - spectrum[0],
       s/2 - pt_spectrum[0]).  A trace tau = Re tr rho other than 1 scales
       H and adds (1 - tau) ab I, whose transform's trace norm is at most d
       |ab| <= d * bound, so the excess gains at most (d + 1) delta *
       bound.  The skew part K/2 = (rho - rho^†)/2 adds K/2 - a I kron
       (K/2)_B - b (K/2)_A kron I, of Frobenius norm at most (1 + m|a| +
       n|b|) s/2, and the bound is at least max(1, |a|) max(1, |b|)/sqrt(2),
       so its transform adds at most sqrt(r/2) (1 + m + n) s * bound, r =
       max(m, n) covering each transform's smaller side.  _ppt_clears
       settles all four classes at once where 2 d (lambda + e) + (d + 1)
       delta + sqrt(r/2) (1 + m + n) s <= T/2, e = d^2 eps covering
       eigvalsh's rounding; else they go to the SVD.  On a unit-trace PSD
       state that is the PPT test lambda_min(T_A rho) >= -T/(4d) less
       rounding.  The screen runs on checked states only, whose rho
       spectrum validation took and whose defects it bounds; an unchecked
       state's mixed classes take the SVD.

    4. One product bound and its supremum, the realignment class {cA,rB}
       only.  The map is rho~ = (aI - rho_A) kron (bI - rho_B) + Delta,
       Delta = rho - rho_A kron rho_B, so R(rho~) = u v^T + R(Delta) with u
       = vec(aI - rho_A) and v = vec(bI - rho_B), and ||R(rho~)||_1 <=
       ||u|| ||v|| + ||R(Delta)||_1, as the rank-one term's trace norm is
       ||u|| ||v||.  With alpha = 1 - ||rho_A||_F^2 and delta = |tr rho_A -
       1|, ||u||^2 = h_a^2 - alpha - 2 Re(a^* (tr rho_A - 1)) for the root
       factor h_a, and |a| <= h_a for m >= 2, so ||u||^2 <= (h_a + delta)^2
       - alpha; likewise for v, with beta = 1 - ||rho_B||_F^2, h_b and n.
       So a pair's exact statistic is at most sqrt(((h_a + delta)^2 -
       alpha)((h_b + delta)^2 - beta)) + ||R(Delta)||_1, for any matrix and
       any complex (a, b), whatever the signs of alpha and beta, and a pair
       is settled where that exceeds its bound by at most T/2 * max(1,
       bound), h_a and h_b read from _bound_table's roots.  For alpha, beta
       >= 0, Cauchy-Schwarz bounds the square root by (h_a + delta)(h_b +
       delta) - sqrt(alpha beta), so the bound's excess is at most
       ||R(Delta)||_1 - sqrt(alpha beta), the excess bound of Zhang, Zhang,
       Zhang & Guo (PRA 77, 060301(R), 2008), its supremum over (a, b),
       plus delta (h_a + h_b + delta); as h >= 1/sqrt(2), that is at most z
       * max(1, bound), z = max(ZZZG, 0) + delta (2 sqrt(2) + 2 delta).
       So the class first tries the one scalar z <= T/2, which settles every
       pair with finite norm and bound at once, and goes pair by pair
       only where that fails or alpha or beta is below 0 (an entangled state
       that ZZZG detects, or a pure reduction whose purity rounds past 1).
       On screen 1's scalar route, a product bound that settles every pair
       settles the class whole, as the shortcut does.
       _split_settles rounds each term outward by e = d^2 eps, relative to
       (h + delta)^2 on each side, as that may be 1e10 at |a| = 1e5 while
       alpha is about 1: generous against the few roundings in each, so the
       computed bound is at least the exact one.

    Screens 2 to 4 run only for m, n >= 2.  With a factor of dimension 1 a
    linear factor |1-a| vanishes at a = 1, so a pair's bound no longer
    dominates |a|, |b| and |ab|, and the full path's own rounding can flag
    a pair that a screen would settle: every such class goes to the SVD.

    Rounding: the full path's statistic and each computed bound above round
    by O(d * eps * bound) (the statistic's worst measured excess is 0.67 eps
    d ||rho~||_F).  For m, n >= 2, h(x) >= max(1, |x|) for a linear factor
    and h(x) >= max(1/sqrt(2), |x|) for a root one, so a pair's bound in any
    class is at least max(1, |a|) max(1, |b|)/2, half the map's
    coefficients 1, |a|, |b|, |ab|; a state that clears screen 2 or 3 has
    rho, I kron rho_B and rho_A kron I at norms of about 1, m and n.  So the
    computed map, its SVD, and the spectra, skew terms and traces of screens
    2 and 3 round by O(d^2 eps bound), about 1e-13 bound at d = 9 and 1e-11
    bound at d = 100, far inside the T/2 * max(1, bound) that screens 2 to
    4 leave below the flag line.  So the full path would flag no settled
    pair.  Nor would it raise on one.  Off the scalar route every screen
    sees only pairs whose bound and ||X||_F, the square root of a sum of
    squares, are finite, so ||X||_F <= sqrt(float max), and the statistic,
    at most sqrt(d) ||X||_F, is finite too.  On it, the largest bound L <=
    _SCALAR_BOUND certifies the same for every pair of params: a checked
    state's rho, rho_A and rho_B have entries of modulus at most about 1,
    so each map entry is at most about (1 + |a|)(1 + |b|) <= 8 bound <= 8L,
    no map overflows, and ||X||_F <= 8 d L and the statistic are finite.

    Every other parameter takes the full path's arithmetic: the SVD of its
    own map and _judge.  numpy's stacked SVD takes each matrix alone, so an
    unsettled map's statistic has the bits verdict_blocks gives it, and a flag or
    a ParamOutOfRange comes from the same first class and names the same
    (a, b).  params are (a, b) pairs of complex the caller checked finite.
    """
    codes, _, limits, roots = _bound_table(tuple(params), rho.dims, tuple(ysets))
    codes = codes.tolist()
    m, n = rho.dims.m, rho.dims.n
    screens = m >= 2 and n >= 2  # screens 2 to 4
    scalar = screens and rho.checked and limits.size > 0 and limits.max() <= _SCALAR_BOUND
    with np.errstate(over="ignore", invalid="ignore"):  # a norm or bound not finite leaves its pairs open
        # Off the scalar route the maps come first, as verdict_blocks builds
        # them, so a map that is not finite raises before any class.
        maps = None if scalar else _open_maps(rho, params, limits)
        clear = mixed = split = None  # screens 2 to 4, each on first use
        for c, code in enumerate(codes):
            if split is None and screens and (code == 6 or code == 5 and scalar and 6 in codes):
                split = _split_settles(rho, roots, limits[:, codes.index(6)])  # one residual SVD
                if scalar and split is not True and split.all():  # certified finite: the whole class
                    split = True
            if code == 5:  # the Frobenius class: below the realignment class, else its norms
                settles = scalar and split is True
            elif not screens:
                settles = False
            elif code == 6:  # the realignment class
                settles = split
            elif code in (0, 3):  # none and rB,cB
                clear = _corners_clear(rho) if clear is None else clear
                settles = clear
            else:  # the mixed classes
                mixed = (rho.checked and _ppt_clears(rho)) if mixed is None else mixed
                settles = mixed
            if scalar and settles is True:
                continue
            stack, norm, finite = maps = maps or _open_maps(rho, params, limits)
            limit = limits[:, c]
            if code == 5:
                settles = norm <= limit + TOL_VERDICT / 2 * np.maximum(limit, 1.0)
            unsettled = np.flatnonzero(~(finite[:, c] & settles))
            if unsettled.size == 0:
                continue
            statistic = trace_norm(gpt_transform(stack[unsettled], rho.dims, all_subsets()[code]))
            _, entangled = _judged(statistic, limit[unsettled].tolist(),
                                   [params[i] for i in unsettled])
            if any(entangled):
                return True
    return False


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
    least entry of rho.pt_spectrum, which detected's screen 2 shares; an
    unchecked state is tested for Hermiticity first, whichever of the two
    filled that cache.
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
