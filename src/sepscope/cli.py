"""Command-line interface: check, sweep, gen and compare workflows.

Exit codes: 0 means the run completed and no entanglement was found, 1 means
at least one criterion detected entanglement (a result, not a failure), and
2 means an input or usage error.  "Not entangled" always means "not detected
by these necessary criteria", never "proven separable".
"""

from __future__ import annotations

import argparse
import sys

from .criteria import (
    AB_TEST_GRID,
    CriterionVerdict,
    ReductionParams,
    evaluate_grid,
    in_request_order,
    ppt_check,
    realignment_check,
    reduction_check,
)
from .errors import SepscopeError
from .gptops import GptOpSet, all_subsets
from .matlin import DensityState, SubsystemDims
from .states import (
    LabeledState,
    horodecki_3x3,
    load_state,
    random_density,
    random_separable,
    save_state,
    werner,
)
from .sweep import GridSpec, emit, run_sweep

CRITERIA = ("grc", "ppt", "reduction", "realignment")

DEFAULT_PARAM_AXES = {
    "werner-3": (-1.0, 1.0, 0.05),
    "horodecki": (0.05, 0.95, 0.05),
    "file": (0.0, 0.0, 1.0),
}


def _add_state_source(parser: argparse.ArgumentParser, positional_family: bool) -> None:
    if positional_family:
        parser.add_argument("family", choices=("werner", "horodecki", "separable", "random"),
                            help="state family to generate")
    else:
        source = parser.add_mutually_exclusive_group(required=True)
        source.add_argument("--builtin", choices=("werner", "horodecki", "separable", "random"),
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
    if family == "werner":
        return werner(args.d, args.f)
    if family == "horodecki":
        return horodecki_3x3(args.c)
    if family == "separable":
        return random_separable(SubsystemDims(args.m, args.n), args.k, args.seed)
    if family == "random":
        dims = SubsystemDims(args.m, args.n)
        mat = random_density(dims.total, args.seed)
        return LabeledState(
            name="random-density",
            params={"m": args.m, "n": args.n, "seed": args.seed},
            state=DensityState(dims, mat),
        )
    raise SepscopeError(f"unknown family {family!r}")


def _resolve_state(args: argparse.Namespace) -> LabeledState:
    if getattr(args, "file", None):
        return load_state(args.file, unchecked=getattr(args, "unchecked", False))
    return _resolve_builtin(args, args.builtin)


def _parse_ysets(code: str) -> list[GptOpSet]:
    if code.strip().lower() == "all":
        return list(all_subsets())
    return [GptOpSet.from_code(code)]


ROW = "{:<22} {:<12} {:>24} {:>24} {:>24}  {}"


def _print_verdicts(verdicts: list[CriterionVerdict]) -> bool:
    # 17 significant digits so every printed number round-trips to the exact
    # library value; the CLI performs no arithmetic of its own.
    print(ROW.format("criterion", "yset", "statistic", "bound", "violation", "entangled"))
    any_flag = False
    for v in verdicts:
        yset = v.yset.code if v.yset is not None else "-"
        print(ROW.format(
            v.criterion, yset,
            format(v.statistic, ".17g"), format(v.bound, ".17g"),
            format(v.violation, ".17g"), "yes" if v.entangled else "no",
        ))
        any_flag = any_flag or v.entangled
    return any_flag


def cmd_check(args: argparse.Namespace) -> int:
    ysets = _parse_ysets(args.yset)  # reject unknown codes before any computation
    labeled = _resolve_state(args)
    params = ReductionParams(complex(args.a, args.a_im), complex(args.b, args.b_im))
    selected = CRITERIA if args.criterion == "all" else (args.criterion,)
    verdicts: list[CriterionVerdict] = []
    for criterion in selected:
        if criterion == "grc":
            verdicts.extend(in_request_order(evaluate_grid(labeled.state, (params,), ysets)))
        elif criterion == "ppt":
            verdicts.append(ppt_check(labeled.state))
        elif criterion == "reduction":
            verdicts.append(reduction_check(labeled.state))
        elif criterion == "realignment":
            verdicts.append(realignment_check(labeled.state))
    param_text = " ".join(f"{key}={value}" for key, value in labeled.params.items())
    print(f"state: {labeled.name} {param_text}".rstrip())
    flagged = _print_verdicts(verdicts)
    print("result: entangled" if flagged else "result: not detected by the selected criteria")
    return 1 if flagged else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    d_start, d_stop, d_step = DEFAULT_PARAM_AXES[args.family]
    param_axis = (
        d_start if args.param_start is None else args.param_start,
        d_stop if args.param_stop is None else args.param_stop,
        d_step if args.param_step is None else args.param_step,
    )
    spec = GridSpec(
        family=args.family,
        a=args.a,
        b_axis=(args.b_start, args.b_stop, args.b_step),
        param_axis=param_axis,
        yset=GptOpSet.from_code(args.yset),
        path=args.file,
    )
    records = run_sweep(spec)
    emit(records, args.format, args.out)
    best = max(records, key=lambda rec: rec.violation)
    print(
        f"grid: {len(records)} points; max N = {best.violation:.10g}"
        f" at param={best.family_param:.6g} b={best.b:.6g}; wrote {args.out}"
    )
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    labeled = _resolve_builtin(args, args.family)
    save_state(labeled, args.out)
    print(f"wrote {labeled.name} state ({labeled.state.dims.m}x{labeled.state.dims.n}) to {args.out}")
    return 0


def _compare_ensemble(args: argparse.Namespace) -> list[LabeledState]:
    count = args.count
    if args.family == "werner-3":
        fs = [-1.0 + 2.0 * i / (count - 1) for i in range(count)] if count > 1 else [-1.0]
        return [werner(3, f) for f in fs]
    if args.family == "horodecki":
        cs = [(i + 1) / (count + 1) for i in range(count)]
        return [horodecki_3x3(c) for c in cs]
    if args.family == "separable":
        dims = SubsystemDims(args.m, args.n)
        return [random_separable(dims, args.k, args.seed + i) for i in range(count)]
    if args.family == "random":
        dims = SubsystemDims(args.m, args.n)
        out = []
        for i in range(count):
            mat = random_density(dims.total, args.seed + i)
            out.append(LabeledState("random-density", {"seed": args.seed + i},
                                    DensityState(dims, mat)))
        return out
    raise SepscopeError(f"unknown ensemble family {args.family!r}")


def cmd_compare(args: argparse.Namespace) -> int:
    ensemble = _compare_ensemble(args)
    grid = tuple(ReductionParams(a, b) for a in AB_TEST_GRID for b in AB_TEST_GRID)
    subsets = all_subsets()
    names = ("ppt", "reduction", "realignment", "grc")
    flags: list[tuple[bool, bool, bool, bool]] = []
    print("{:<6} {:<24} {:>5} {:>10} {:>12} {:>5}".format("state", "params", *names))
    for idx, labeled in enumerate(ensemble):
        state = labeled.state
        row = (
            ppt_check(state).entangled,
            reduction_check(state).entangled,
            realignment_check(state).entangled,
            # Stops at the first detection, before the remaining SVDs.
            any(v.entangled for _, _, v in evaluate_grid(state, grid, subsets)),
        )
        flags.append(row)
        param_text = " ".join(f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
                              for key, value in labeled.params.items())
        print("{:<6} {:<24} {:>5} {:>10} {:>12} {:>5}".format(
            idx, param_text, *("Y" if hit else "-" for hit in row)))
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
    swp.add_argument("--family", choices=tuple(DEFAULT_PARAM_AXES), required=True)
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
    cmp_parser.add_argument("--family", choices=("werner-3", "horodecki", "separable", "random"),
                            required=True)
    cmp_parser.add_argument("--count", type=int, default=20)
    cmp_parser.add_argument("--seed", type=int, default=0)
    cmp_parser.add_argument("--m", type=int, default=3)
    cmp_parser.add_argument("--n", type=int, default=3)
    cmp_parser.add_argument("--k", type=int, default=12)
    cmp_parser.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SepscopeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
