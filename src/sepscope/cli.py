"""Command-line interface: check, sweep, gen and compare workflows.

Exit codes: 0 means the run completed and no entanglement was found, 1 means
at least one criterion detected entanglement (a result, not a failure), and
2 means an input or usage error.  "Not entangled" always means "not detected
by these necessary criteria", never "proven separable".
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

from .criteria import (
    AB_TEST_GRID,
    ORACLES,
    TOL_VERDICT,
    CriterionVerdict,
    ReductionParams,
    detected,
    evaluate,
    evaluate_all_Y,
    flag_margin,
)
from .errors import ParamOutOfRange, SepscopeError
from .gptops import GptOpSet, all_subsets
from .states import FAMILIES, LabeledState, family_names, load_state, save_state
from .sweep import GridSpec, _sweep_records, emit, format_float

CRITERIA = ("grc", *ORACLES)


def _add_state_source(parser: argparse.ArgumentParser, positional_family: bool) -> None:
    if positional_family:
        parser.add_argument("family", choices=family_names("option"),
                            help="state family to generate")
    else:
        source = parser.add_mutually_exclusive_group(required=True)
        source.add_argument("--builtin", choices=family_names("option"),
                            help="named state family")
        source.add_argument("--file", help="path to a state file")
        parser.add_argument("--unchecked", action="store_true",
                            help="skip density-matrix invariant checks when loading a file")
    parser.add_argument("--d", type=int, default=3, help="Werner local dimension (default 3)")
    parser.add_argument("--f", type=float, default=-1.0, help="Werner parameter in [-1, 1]")
    parser.add_argument("--c", type=float, default=0.5, help="Horodecki parameter in (0, 1)")
    parser.add_argument("--m", type=int, default=3, help="subsystem A dimension for random families")
    parser.add_argument("--n", type=int, default=3, help="subsystem B dimension for random families")
    parser.add_argument("--k", type=int, default=12, help="number of product terms (separable family)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for random families")


def _resolve_builtin(args: argparse.Namespace, family: str) -> LabeledState:
    entry = FAMILIES[family]
    return entry.build(args, getattr(args, entry.option))


def _resolve_state(args: argparse.Namespace) -> LabeledState:
    if getattr(args, "file", None):
        return load_state(args.file, unchecked=getattr(args, "unchecked", False))
    return _resolve_builtin(args, args.builtin)


ROW = "{:<22} {:<12} {:>24} {:>24} {:>24}  {}"
COMPARE_ROW = "{:<6} {:<24} {:>5} {:>10} {:>12} {:>5}"


def _print_verdicts(verdicts: list[CriterionVerdict]) -> bool:
    # Every printed number round-trips to the exact library value; the CLI
    # performs no arithmetic of its own.
    print(ROW.format("criterion", "yset", "statistic", "bound", "violation", "entangled"))
    any_flag = False
    for v in verdicts:
        yset = v.yset.code if v.yset is not None else "-"
        print(ROW.format(
            v.criterion, yset,
            format_float(v.statistic), format_float(v.bound),
            format_float(v.violation), "yes" if v.entangled else "no",
        ))
        any_flag = any_flag or v.entangled
    return any_flag


def cmd_check(args: argparse.Namespace) -> int:
    # Parse the code before any computation, so an unknown flag fails first.
    yset = None if args.yset.strip().lower() == "all" else GptOpSet.from_code(args.yset)
    labeled = _resolve_state(args)
    params = ReductionParams(complex(args.a, args.a_im), complex(args.b, args.b_im))
    selected = CRITERIA if args.criterion == "all" else (args.criterion,)
    verdicts: list[CriterionVerdict] = []
    for criterion in selected:
        if criterion == "grc":
            verdicts.extend(evaluate_all_Y(labeled.state, params) if yset is None
                            else (evaluate(labeled.state, params, yset),))
        else:
            verdicts.append(ORACLES[criterion](labeled.state))
    param_text = " ".join(f"{key}={value}" for key, value in labeled.params.items())
    print(f"state: {labeled.name} {param_text}".rstrip())
    flagged = _print_verdicts(verdicts)
    print("result: entangled" if flagged else "result: not detected by the selected criteria")
    return 1 if flagged else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    param_axis = tuple(default if value is None else value for default, value in zip(
        FAMILIES[args.family].axis, (args.param_start, args.param_stop, args.param_step)))
    spec = GridSpec(args.family, args.a, (args.b_start, args.b_stop, args.b_step),
                    param_axis, GptOpSet.from_code(args.yset), args.file)
    points, best = 0, None

    def tally(records):
        # Counts the records and keeps the first of maximal violation, as
        # max() does, while they stream to the file.
        nonlocal points, best
        for rec in records:
            points += 1
            if best is None or rec.violation > best.violation:
                best = rec
            yield rec

    emit(tally(_sweep_records(spec)), args.format, args.out)
    print(
        f"grid: {points} points; max N = {best.violation:.10g}"
        f" at param={best.family_param:.6g} b={best.b:.6g}; wrote {args.out}"
    )
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    labeled = _resolve_builtin(args, args.family)
    save_state(labeled, args.out)
    print(f"wrote {labeled.name} state ({labeled.state.dims.m}x{labeled.state.dims.n}) to {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ParamOutOfRange(f"count must be >= 1, got {args.count}")
    family = FAMILIES[args.family]
    # Each member is built when its row is due; the first before the header,
    # so a bad option fails before any output.
    members = (family.build(args, value) for value in family.spacing(args, args.count))
    first = next(members)
    grid = [(complex(a), complex(b)) for a in AB_TEST_GRID for b in AB_TEST_GRID]
    subsets = all_subsets()
    names = (*ORACLES, "grc")
    flags: list[tuple[bool, bool, bool, bool]] = []
    print(COMPARE_ROW.format("state", "params", *names))
    for idx, labeled in enumerate(itertools.chain((first,), members)):
        state = labeled.state
        oracles = {name: check(state) for name, check in ORACLES.items()}
        row = (
            *(verdict.entangled for verdict in oracles.values()),
            # A PPT flag is grc's pair (0, 0), {rA,cA}, whose bound is exactly
            # 1: with v = -lambda_min(T_A rho) > TOL_VERDICT, ||T_B rho||_1 =
            # sum |lambda_i| >= tr rho + 2v, and a validated state has tr rho
            # >= 1 - 1e-12, so that pair's excess is at least 2v - 1e-12 -
            # O(d eps) > TOL_VERDICT.  The realignment statistic is grc's at
            # (0, 0), {cA,rB}, bound 1, up to the signs of zero entries and
            # the SVD's O(d eps) rounding, so a flag TOL_VERDICT past its
            # line is grc's too.  0.0 is in AB_TEST_GRID and both subsets in
            # all_subsets(), so detected would flag either.
            oracles["ppt"].entangled or flag_margin(oracles["realignment"]) > TOL_VERDICT
            or detected(state, grid, subsets),
        )
        flags.append(row)
        param_text = " ".join(f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
                              for key, value in labeled.params.items())
        print(COMPARE_ROW.format(idx, param_text, *("Y" if hit else "-" for hit in row)))
    totals = [sum(row[col] for row in flags) for col in range(4)]
    print("flagged totals: " + "  ".join(f"{name}={total}" for name, total in zip(names, totals)))
    print("disagreements (row flags, column does not):")
    for i, name_i in enumerate(names):
        cells = []
        for j in range(4):
            cells.append(sum(1 for row in flags if row[i] and not row[j]))
        print("  {:<12} ".format(name_i) + " ".join(f"{cell:4d}" for cell in cells))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepscope",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate criteria on one state")
    _add_state_source(check, positional_family=False)
    check.add_argument("--criterion", choices=CRITERIA + ("all",), default="all")
    check.add_argument("--a", type=float, default=0.0, help="real part of a")
    check.add_argument("--a-im", type=float, default=0.0, help="imaginary part of a")
    check.add_argument("--b", type=float, default=0.0, help="real part of b")
    check.add_argument("--b-im", type=float, default=0.0, help="imaginary part of b")
    check.add_argument("--yset", default="all",
                       help='transposition subset, e.g. "cA,rB", "none", or "all" (default)')
    check.set_defaults(func=cmd_check)

    swp = sub.add_parser("sweep", help="grid sweep over (family parameter, b)")
    swp.add_argument("--family", choices=family_names("axis"), required=True)
    swp.add_argument("--file", help="state file for family 'file'")
    swp.add_argument("--a", type=float, default=0.0)
    swp.add_argument("--b-start", type=float, default=-1.0)
    swp.add_argument("--b-stop", type=float, default=1.0)
    swp.add_argument("--b-step", type=float, default=0.05)
    swp.add_argument("--param-start", type=float, default=None)
    swp.add_argument("--param-stop", type=float, default=None)
    swp.add_argument("--param-step", type=float, default=None)
    swp.add_argument("--yset", default="cA,rB")
    swp.add_argument("--out", required=True, help="output path")
    swp.add_argument("--format", choices=("csv", "json"), default="csv")
    swp.set_defaults(func=cmd_sweep)

    gen = sub.add_parser("gen", help="write a state file for a named or random family")
    _add_state_source(gen, positional_family=True)
    gen.add_argument("--out", required=True, help="output path")
    gen.set_defaults(func=cmd_gen)

    cmp_parser = sub.add_parser("compare", help="per-state criterion disagreement report")
    cmp_parser.add_argument("--family", choices=family_names("spacing"), required=True)
    cmp_parser.add_argument("--count", type=int, default=20)
    cmp_parser.add_argument("--seed", type=int, default=0)
    cmp_parser.add_argument("--m", type=int, default=3)
    cmp_parser.add_argument("--n", type=int, default=3)
    cmp_parser.add_argument("--k", type=int, default=12)
    cmp_parser.set_defaults(func=cmd_compare)

    return parser


# main's parser, built on first use and reused by every later call.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SepscopeError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
