"""Parameter-grid evaluation over (family parameter, b), threshold location
by bisection, and CSV/JSON emission."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from .criteria import (
    TOL_VERDICT,
    ReductionParams,
    evaluate,
    evaluate_grid,
    ppt_check,
    realignment_check,
    reduction_check,
)
from .errors import NoSignChange, ParamOutOfRange
from .gptops import GptOpSet
from .matlin import DensityState
from .states import horodecki_3x3, load_state, werner

CSV_HEADER = ("family_param", "a", "b", "yset", "statistic", "bound", "violation")

FAMILIES = ("werner-3", "horodecki", "file")


@dataclass(frozen=True)
class GridSpec:
    """One sweep: a fixed, b and family-parameter axes as (start, stop, step)."""

    family: str
    a: float
    b_axis: tuple[float, float, float]
    param_axis: tuple[float, float, float]
    yset: GptOpSet
    path: str | None = None  # state file for family "file"


@dataclass(frozen=True)
class SweepRecord:
    """One grid point; violation = max(statistic - bound, 0)."""

    family_param: float
    a: float
    b: float
    yset: str
    statistic: float
    bound: float
    violation: float


def axis_points(start: float, stop: float, step: float) -> list[float]:
    """Points start + k*step up to stop, with the final point clamped to
    stop to avoid accumulation drift."""
    if step <= 0:
        raise ParamOutOfRange(f"axis step must be > 0, got {step}")
    if stop < start:
        raise ParamOutOfRange(f"axis start {start} exceeds stop {stop}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    points = [start + k * step for k in range(count)]
    if abs(points[-1] - stop) <= step * 1e-6:
        points[-1] = stop
    return points


def _state_factory(family: str, path: str | None = None) -> Callable[[float], DensityState]:
    if family == "werner-3":
        return lambda f: werner(3, f).state
    if family == "horodecki":
        return lambda c: horodecki_3x3(c).state
    if family == "file":
        if path is None:
            raise ParamOutOfRange("family 'file' requires a state-file path")
        fixed = load_state(path).state
        return lambda _param: fixed
    raise ParamOutOfRange(f"unknown family {family!r}; expected one of {FAMILIES}")


def run_sweep(spec: GridSpec, workers: int = 1) -> list[SweepRecord]:
    """Evaluate the criterion on every grid point, ordered family-parameter
    major then b.  Each family parameter's whole b axis is one evaluate_grid
    call, and each record matches a direct evaluate call bit for bit.

    workers is accepted for compatibility and ignored.
    """
    factory = _state_factory(spec.family, spec.path)
    params = axis_points(*spec.param_axis)
    bs = axis_points(*spec.b_axis)
    grid = [ReductionParams(spec.a, b) for b in bs]
    code = spec.yset.code
    return [
        SweepRecord(
            family_param=param,
            a=spec.a,
            b=bs[i],
            yset=code,
            statistic=verdict.statistic,
            bound=verdict.bound,
            violation=verdict.violation,
        )
        for param in params
        for i, _, verdict in evaluate_grid(factory(param), grid, (spec.yset,))
    ]


def find_threshold(
    family: str,
    a: float,
    b: float,
    yset: GptOpSet,
    lo: float,
    hi: float,
    criterion: str = "grc",
    path: str | None = None,
) -> float:
    """Bisect the family parameter to the boundary where the chosen
    criterion's verdict flips, to |hi - lo| <= 1e-6; returns the midpoint.

    criterion selects the detector: "grc" uses evaluate with (a, b, yset),
    "ppt"/"reduction"/"realignment" use the corresponding oracle check.
    """
    factory = _state_factory(family, path)

    def detected(param: float) -> bool:
        state = factory(param)
        if criterion == "grc":
            return evaluate(state, ReductionParams(a, b), yset).entangled
        if criterion == "ppt":
            return ppt_check(state).entangled
        if criterion == "reduction":
            return reduction_check(state).entangled
        if criterion == "realignment":
            return realignment_check(state).entangled
        raise ParamOutOfRange(f"unknown criterion {criterion!r}")

    flag_lo = detected(lo)
    if flag_lo == detected(hi):
        raise NoSignChange(
            f"verdict is {flag_lo} at both endpoints [{lo}, {hi}];"
            f" violation never crosses {TOL_VERDICT} * max(1, bound)"
        )
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if detected(mid) == flag_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def emit(records: Sequence[SweepRecord], format: str, path) -> None:
    """Write records as CSV (17-significant-digit floats) or JSON, in grid
    order."""
    if not records:
        raise ValueError("refusing to emit an empty record sequence")
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow([
                    format_float(rec.family_param),
                    format_float(rec.a),
                    format_float(rec.b),
                    rec.yset,
                    format_float(rec.statistic),
                    format_float(rec.bound),
                    format_float(rec.violation),
                ])
    elif format == "json":
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(rec) for rec in records], handle, indent=1)
            handle.write("\n")
    else:
        raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def load_records(path) -> list[SweepRecord]:
    """Read back a JSON record file written by emit."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return [SweepRecord(**entry) for entry in payload]
