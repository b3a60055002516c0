"""Parameter-grid evaluation over (family parameter, b), threshold location
by bisection, and CSV/JSON emission."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

from .criteria import ORACLES, TOL_VERDICT, ReductionParams, evaluate, verdict_blocks
from .errors import NoSignChange, ParamOutOfRange
from .gptops import GptOpSet
from .matlin import DensityState
from .states import FAMILIES, family_names, load_state

# The most points one sweep may ask for; their records take about 0.25 GB.
MAX_GRID_POINTS = 10**6

# The most maps one kernel call stacks, so a sweep's working arrays stay
# bounded however long its b axis is.
STACK_MAPS = 4096


@dataclass(frozen=True)
class GridSpec:
    """One sweep: a fixed, b and family-parameter axes as (start, stop, step)."""

    family: str
    a: float
    b_axis: tuple[float, float, float]
    param_axis: tuple[float, float, float]
    yset: GptOpSet
    path: str | None = None  # state file for family "file"

    def __post_init__(self) -> None:
        for name, axis in (("family parameter", self.param_axis), ("b", self.b_axis)):
            if not all(math.isfinite(x) for x in axis):
                raise ParamOutOfRange(f"{name} axis must be finite, got (start, stop, step) = {axis}")
        sizes = _axis_size(*self.param_axis), _axis_size(*self.b_axis)
        if sizes[0] * sizes[1] > MAX_GRID_POINTS:
            raise ParamOutOfRange("grid of {:.10g} family parameter x {:.10g} b points exceeds"
                                  " {} points".format(*sizes, MAX_GRID_POINTS))


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


CSV_HEADER = tuple(field.name for field in fields(SweepRecord))


def _axis_size(start: float, stop: float, step: float) -> float:
    """How many points axis_points gives, as a float: inf past the float range."""
    if step <= 0:
        raise ParamOutOfRange(f"axis step must be > 0, got {step}")
    if stop < start:
        raise ParamOutOfRange(f"axis start {start} exceeds stop {stop}")
    steps = (stop - start) / step + 1e-9
    return math.floor(steps) + 1.0 if math.isfinite(steps) else math.inf


def axis_points(start: float, stop: float, step: float) -> list[float]:
    """Points start + k*step up to stop, with the final point clamped to
    stop to avoid accumulation drift."""
    points = [start + k * step for k in range(int(_axis_size(start, stop, step)))]
    if abs(points[-1] - stop) <= step * 1e-6:
        points[-1] = stop
    return points


def _state_factory(family: str, path: str | None = None) -> Callable[[float], DensityState]:
    if family not in family_names("axis"):
        raise ParamOutOfRange(f"unknown family {family!r}; expected one of {family_names('axis')}")
    if family == "file":
        if path is None:
            raise ParamOutOfRange("family 'file' requires a state-file path")
        fixed = load_state(path).state
        return lambda _param: fixed
    return lambda param: FAMILIES[family].build(None, param).state


def run_sweep(spec: GridSpec, workers: int = 1) -> list[SweepRecord]:
    """Evaluate the criterion on every grid point, ordered family-parameter
    major then b.  Each family parameter's state is built once, and its b
    axis goes to verdict_blocks in stacks of at most STACK_MAPS maps, whose
    block lists become the records directly; each record matches a direct
    evaluate call bit for bit.

    workers is accepted for compatibility and ignored.
    """
    factory = _state_factory(spec.family, spec.path)
    bs = axis_points(*spec.b_axis)
    chunks = [(bs[i:i + STACK_MAPS], [ReductionParams(spec.a, b) for b in bs[i:i + STACK_MAPS]])
              for i in range(0, len(bs), STACK_MAPS)]
    code = spec.yset.code
    records = []
    for param in axis_points(*spec.param_axis):
        state = factory(param)
        for chunk, grid in chunks:
            for block in verdict_blocks(state, grid, (spec.yset,)):
                records.extend(
                    SweepRecord(param, spec.a, b, code, statistic, bound, violation)
                    for b, statistic, bound, violation in zip(chunk, block.statistic,
                                                              block.bound, block.violation))
    return records


def find_threshold(
    family: str,
    a: float,
    b: float,
    yset: GptOpSet,
    lo: float,
    hi: float,
    criterion: str = "grc",
) -> float:
    """Bisect the family parameter to the boundary where the chosen
    criterion's verdict flips, to |hi - lo| <= 1e-6; returns the midpoint.

    criterion selects the detector: "grc" uses evaluate with (a, b, yset),
    "ppt"/"reduction"/"realignment" use the corresponding oracle check.
    The bracket must have lo < hi.
    """
    factory = _state_factory(family)
    if criterion == "grc":
        params = ReductionParams(a, b)
        check = lambda rho: evaluate(rho, params, yset)
    elif criterion in ORACLES:
        check = ORACLES[criterion]
    else:
        raise ParamOutOfRange(f"unknown criterion {criterion!r}")
    if not lo < hi:  # also rejects NaN, on which the bisection would never run
        raise ParamOutOfRange(f"bracket must have lo < hi, got lo={lo}, hi={hi}")

    def detected(param: float) -> bool:
        return check(factory(param)).entangled

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
    order.

    JSON is an indent-1 list of one object per record, in field order, with
    floats as repr writes them.  Each object is the record's own attribute
    dict, which json.dump reads in place and streams into the file, so no
    copy of the records and no whole-document string is ever built.
    """
    if not records:
        raise ValueError("refusing to emit an empty record sequence")
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow([value if isinstance(value, str) else format_float(value)
                                 for value in vars(rec).values()])
    elif format == "json":
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([vars(rec) for rec in records], handle, indent=1)
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
