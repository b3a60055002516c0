"""Parameter-grid evaluation over (family parameter, b), threshold location
by bisection, and CSV/JSON emission."""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import operator
import os
import stat
from dataclasses import dataclass, fields
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple

from .criteria import ORACLES, TOL_VERDICT, ReductionParams, evaluate, verdict_blocks
from .errors import NoSignChange, ParamOutOfRange
from .gptops import GptOpSet
from .matlin import DensityState
from .states import FAMILIES, family_names, load_state

# The most points one sweep may ask for.  The command line streams its records
# to disk, but at this size the file alone runs to about 0.17 GB of JSON, and
# run_sweep's list of records takes about 0.25 GB.
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
    return list(_sweep_records(spec))


def _sweep_records(spec: GridSpec) -> Iterator[SweepRecord]:
    """run_sweep's records, computed one stack of b points at a time as they
    are asked for; errors surface when the first record is."""
    factory = _state_factory(spec.family, spec.path)
    bs = axis_points(*spec.b_axis)
    chunks = [(bs[i:i + STACK_MAPS], [ReductionParams(spec.a, b) for b in bs[i:i + STACK_MAPS]])
              for i in range(0, len(bs), STACK_MAPS)]
    code = spec.yset.code
    for param in axis_points(*spec.param_axis):
        state = factory(param)
        for chunk, grid in chunks:
            for block in verdict_blocks(state, grid, (spec.yset,)):
                yield from (SweepRecord(param, spec.a, b, code, statistic, bound, violation)
                            for b, statistic, bound, violation in zip(chunk, block.statistic,
                                                                      block.bound, block.violation))


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


# A record's values in field order, and which of them hold text: yset does,
# the rest hold floats.
_row_values = operator.attrgetter(*CSV_HEADER)
_TEXT_COLUMNS = tuple(name == "yset" for name in CSV_HEADER)

# How many records emit renders per write.
_WRITE_BATCH = 1024


@functools.lru_cache(maxsize=64)
def _csv_text(value: str) -> str:
    """value as csv.writer writes it inside a row: quoted where it holds a
    comma, a quote or a line break."""
    if not isinstance(value, str):
        raise TypeError(f"expected str, got {type(value).__name__}")
    line = io.StringIO(newline="")
    csv.writer(line).writerow((value, ""))
    return line.getvalue()[:-3]  # drop the empty second cell's ",\r\n"


_CSV_HEAD = ",".join(map(_csv_text, CSV_HEADER)) + "\r\n"
_CSV_ROW = ",".join("{}" for _ in CSV_HEADER) + "\r\n"

# One record as json.dump(indent=1) writes it as an item of the top-level list.
_JSON_OBJECT = "{{\n" + ",\n".join(
    f"  {encode_basestring_ascii(name)}: {{}}" for name in CSV_HEADER) + "\n }}"


def _csv_rows(rows: list[tuple]) -> str:
    """rows as csv.writer writes them: text as is, other values through
    format_float.

    Floats go through float.__format__ with format_float's spec and text
    through _csv_text.  A batch holding anything else, such as an int, is
    written by csv.writer itself.
    """
    try:
        cells = [list(map(_csv_text, column)) if text
                 else list(map(float.__format__, column, repeat(".17g")))
                 for text, column in zip(_TEXT_COLUMNS, zip(*rows))]
    except TypeError:
        out = io.StringIO(newline="")
        csv.writer(out).writerows([value if isinstance(value, str) else format_float(value)
                                   for value in row] for row in rows)
        return out.getvalue()
    return "".join(map(_CSV_ROW.format, *cells))


def _json_objects(rows: list[tuple]) -> str:
    """rows as json.dump(indent=1) writes them inside the top-level list.

    Floats go through float.__repr__ and text through
    encode_basestring_ascii, the calls json itself makes.  A batch holding
    anything those would render otherwise (a non-finite float, which json
    writes as NaN or Infinity, an int, a bool or any other type) is written
    by json's own encoder, so any input keeps json's bytes.
    """
    columns = list(zip(*rows))
    try:
        cells = [list(map(encode_basestring_ascii if text else float.__repr__, column))
                 for text, column in zip(_TEXT_COLUMNS, columns)]
    except TypeError:
        cells = None
    if cells is not None and all(all(map(math.isfinite, column))
                                 for text, column in zip(_TEXT_COLUMNS, columns) if not text):
        return ",\n ".join(map(_JSON_OBJECT.format, *cells))
    return json.dumps([dict(zip(CSV_HEADER, row)) for row in rows], indent=1)[3:-2]


class _Layout(NamedTuple):
    newline: str | None  # open()'s newline argument
    head: str
    render: Callable[[list[tuple]], str]
    join: str  # between two rendered batches
    tail: str


_LAYOUTS = {
    "csv": _Layout("", _CSV_HEAD, _csv_rows, "", ""),
    "json": _Layout(None, "[\n ", _json_objects, ",\n ", "\n]\n"),
}


@contextlib.contextmanager
def _replaced_on_success(path, newline: str | None) -> Iterator[io.TextIOWrapper]:
    """A text handle whose contents replace path once the block completes.

    The handle writes to a temporary file beside path, renamed over it on
    success and removed on any error, so a failure partway leaves path as
    it was: absent, or holding its old bytes.  A path that is a symlink or
    anything but a regular file (/dev/stdout, a FIFO) has nothing to
    rename over, so it is opened and written in place, as open() does.
    """
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        return
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the path asked for, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as handle:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def emit(records: Iterable[SweepRecord], format: str, path) -> None:
    """Write records as CSV (17-significant-digit floats) or JSON, in the
    order given.

    CSV is csv.writer's default dialect: a header of the field names, then
    one row per record with floats through format_float.  JSON is what
    json.dump(..., indent=1) writes for a list of one object per record, in
    field order, plus a final newline.  Both come from one format template
    per record, rendered a batch of records at a time and written as they
    come, so records may be any iterable, such as run_sweep's generator,
    and neither they nor the document are ever held whole.

    path appears only once the last record is written; an error partway,
    from the records or from the disk, leaves it as it was.  A symlink or a
    path that is not a regular file, such as /dev/stdout, is written in
    place instead.  An empty iterable or an unknown format raises
    ValueError before any file is made.
    """
    rows = map(_row_values, records)
    first = next(rows, None)
    if first is None:
        raise ValueError("refusing to emit an empty record sequence")
    layout = _LAYOUTS.get(format)
    if layout is None:
        raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")
    rows = chain([first], rows)
    with _replaced_on_success(path, layout.newline) as handle:
        handle.write(layout.head)
        join = ""
        for batch in iter(lambda: list(islice(rows, _WRITE_BATCH)), []):
            handle.write(join + layout.render(batch))
            join = layout.join
        handle.write(layout.tail)


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def load_records(path) -> list[SweepRecord]:
    """Read back a JSON record file written by emit."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return [SweepRecord(**entry) for entry in payload]
