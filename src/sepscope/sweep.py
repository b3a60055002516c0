"""Parameter-grid evaluation over (family parameter, b), threshold location
by a bracketed secant search bounded by ITP's projection, and CSV/JSON
emission."""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import logging
import math
import operator
import os
import stat
from dataclasses import dataclass, fields
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple

from .criteria import ORACLES, TOL_VERDICT, ReductionParams, evaluate, flag_margin, verdict_blocks
from .errors import NoSignChange, ParamOutOfRange
from .gptops import GptOpSet
from .matlin import DensityState
from .states import FAMILIES, family_names, load_state

_log = logging.getLogger(__name__)

# The most points one sweep may ask for.  The command line streams its records
# to disk, but at this size the file alone runs to about 0.17 GB of JSON, and
# run_sweep's list of records takes about 0.25 GB.
MAX_GRID_POINTS = 10**6

# The most maps one kernel call stacks, so a sweep's working arrays stay
# bounded however long its b axis is.
STACK_MAPS = 4096

# find_threshold's target: the width of the bracket it returns the midpoint of.
_WIDTH = 1e-6

# How far find_threshold moves a secant's prediction toward the midpoint,
# exactly, unless the midpoint is nearer: a probe just past a right
# prediction sends the next one just past it the other way, closing the
# bracket at 2 * _STRADDLE < _WIDTH.
_STRADDLE = 0.45 * _WIDTH


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
        if not math.isfinite(self.a):
            raise ParamOutOfRange(f"a must be finite, got {self.a}")
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
    stop to avoid accumulation drift.  An axis with an entry that is not
    finite, or of more than MAX_GRID_POINTS points, raises ParamOutOfRange
    naming it."""
    axis = (start, stop, step)
    if not all(math.isfinite(x) for x in axis):
        raise ParamOutOfRange(f"axis must be finite, got (start, stop, step) = {axis}")
    size = _axis_size(*axis)
    if size > MAX_GRID_POINTS:
        raise ParamOutOfRange(f"axis (start, stop, step) = {axis} has {size:.10g} points,"
                              f" more than {MAX_GRID_POINTS}")
    points = [start + k * step for k in range(int(size))]
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


def run_sweep(spec: GridSpec) -> list[SweepRecord]:
    """Evaluate the criterion on every grid point, ordered family-parameter
    major then b.  Each family parameter's state is built once, and its b
    axis goes to verdict_blocks in stacks of at most STACK_MAPS maps, whose
    block lists become the records directly; each record matches a direct
    evaluate call bit for bit.
    """
    return list(_sweep_records(spec))


def _sweep_records(spec: GridSpec) -> Iterator[SweepRecord]:
    """run_sweep's records, computed one stack of b points at a time as they
    are asked for; errors surface when the first record is.  A stack's
    (a, b) pairs are built when it is reached, from GridSpec's finite a."""
    factory = _state_factory(spec.family, spec.path)
    bs = axis_points(*spec.b_axis)
    a, code = complex(spec.a), spec.yset.code
    for param in axis_points(*spec.param_axis):
        state = factory(param)
        for chunk in (bs[start:start + STACK_MAPS] for start in range(0, len(bs), STACK_MAPS)):
            for block in verdict_blocks(state, [(a, complex(b)) for b in chunk], (spec.yset,)):
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
    """Narrow the family parameter to the boundary where the chosen
    criterion's verdict flips, to hi - lo <= 1e-6; returns the midpoint of
    the last bracket.

    criterion selects the detector: "grc" uses evaluate with (a, b, yset),
    "ppt"/"reduction"/"realignment" use the corresponding oracle check.
    The bracket must have lo < hi, and its two ends different verdicts.

    Each step probes one point, by one rule on the verdicts' flag_margin
    g, which is > 0 exactly where a verdict flags.  Until the flagged side
    holds two probes, the step takes the midpoint.  From then on it takes
    the secant through the flagged side's latest two probes, or the
    midpoint where their g are equal or the secant point is not strictly
    inside (lo, hi).  Only the flagged side's g is used: on the unflagged
    side the excess may stay at 0, as grc {rA,cA} at (0, 0), 2 tr (T_B
    rho)_-, does on the whole PPT side of werner-3.  A secant point moves
    exactly 0.45e-6 toward the midpoint, or onto the midpoint where that is
    nearer, so a probe just past a right prediction lands on its far side,
    the next passes it the other way, and the bracket closes at 0.9e-6.
    The point is then projected into ITP's ball (Oliveira & Takahashi, ACM
    TOMS 47(1), 2020) around the midpoint, of radius 1e-6/2 * 2**(n_max -
    j) - (hi - lo)/2 at step j, where n_max = ceil(log2((hi - lo) / 1e-6))
    + 1 is taken from the first bracket.  This bounds any search to n_max
    steps, one more than bisection; the radius keeps a relative 1e-8 of
    headroom, so rounding in the midpoint cannot leave the last bracket
    just over 1e-6.  The probe's verdict, not g, decides which end it
    replaces, so the two ends keep different verdicts throughout.  On the
    benchmark's werner-3 cases, near linear on the flagged side, the
    bracket closes 3 to 6 probes past the two ends.  Where g is curved the
    predictions take longer to come within 0.45e-6 of the flip, and the
    two probes that straddle the first such one close the bracket.

    Each probe is logged at DEBUG on the "sepscope.sweep" logger with its
    parameter, its flag and its flag_margin.
    """
    factory = _state_factory(family)
    if criterion == "grc":
        try:
            params = ReductionParams(a, b)
        except ValueError as exc:  # a or b not finite
            raise ParamOutOfRange(str(exc)) from None
        check = lambda rho: evaluate(rho, params, yset)
    elif criterion in ORACLES:
        check = ORACLES[criterion]
    else:
        raise ParamOutOfRange(f"unknown criterion {criterion!r}")
    if not lo < hi:  # also rejects NaN, on which the search would never run
        raise ParamOutOfRange(f"bracket must have lo < hi, got lo={lo}, hi={hi}")

    def probe(param: float) -> tuple[bool, float]:
        """The verdict's flag and its flag_margin."""
        verdict = check(factory(param))
        g = flag_margin(verdict)
        _log.debug("find_threshold probe x=%r entangled=%s flag_margin=%r",
                   param, verdict.entangled, g)
        return verdict.entangled, g

    (flag_lo, g_lo), (flag_hi, g_hi) = probe(lo), probe(hi)
    if flag_lo == flag_hi:
        raise NoSignChange(
            f"verdict is {flag_lo} at both endpoints [{lo}, {hi}];"
            f" violation never crosses {TOL_VERDICT} * max(1, bound)"
        )
    # After both ends are built, so a bracket the family rejects raises its
    # own ParamOutOfRange first.
    n_max = max(0, math.ceil(math.log2((hi - lo) / _WIDTH))) + 1
    radius = (1.0 - 1e-8) * _WIDTH / 2 * 2.0 ** n_max  # halved every step
    flagged = [(lo, g_lo) if flag_lo else (hi, g_hi)]  # its latest probes, the end last
    while hi - lo > _WIDTH:
        mid = x = 0.5 * (lo + hi)
        if len(flagged) == 2:
            (x0, g0), (x1, g1) = flagged
            secant = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else mid
            if lo < secant < hi:  # False for NaN and inf too
                sigma = math.copysign(1.0, mid - secant)
                x = secant + sigma * _STRADDLE if _STRADDLE <= abs(mid - secant) else mid
                r = radius - 0.5 * (hi - lo)
                if abs(x - mid) > r:
                    x = mid - sigma * r
        flag, g = probe(x)
        if flag:
            flagged = [flagged[-1], (x, g)]
        if flag == flag_lo:
            lo = x
        else:
            hi = x
        radius *= 0.5
    return 0.5 * (lo + hi)


# A record's values in field order; yset is the one that holds text.
_row_values = operator.attrgetter(*CSV_HEADER)
_YSET = CSV_HEADER.index("yset")

# How many records emit renders per write.
_WRITE_BATCH = 1024

# Numbers as text with 17 significant digits, enough to round-trip every
# float; every CSV number takes this spec too.
_FLOAT = "{:.17g}"
format_float: Callable[[float], str] = _FLOAT.format


@functools.lru_cache(maxsize=64)
def _csv_text(value) -> str:
    """value as csv.writer writes it inside a row: quoted where it holds a
    comma, a quote or a line break."""
    line = io.StringIO(newline="")
    csv.writer(line).writerow((value, ""))
    return line.getvalue()[:-3]  # drop the empty second cell's ",\r\n"


_CSV_HEAD = ",".join(map(_csv_text, CSV_HEADER)) + "\r\n"
_CSV_ROW = ",".join("{}" if name == "yset" else _FLOAT for name in CSV_HEADER) + "\r\n"

# One record as json.dump(indent=1) writes it as an item of the top-level list.
_JSON_OBJECT = "{{\n" + ",\n".join(
    f"  {encode_basestring_ascii(name)}: {{}}" for name in CSV_HEADER) + "\n }}"

# json's C encoder, writing a list as "[", one item a line, "]".  No scalar's
# encoding holds a raw line break, so a line that starts with "[" or "{"
# starts a list or an object.
_json_lines = json.JSONEncoder(separators=("\n", ": ")).encode


def _csv_rows(rows: list[tuple]) -> str:
    """rows as csv.writer writes them: yset through _csv_text, every other
    value through format_float's spec."""
    columns = list(zip(*rows))
    columns[_YSET] = map(_csv_text, columns[_YSET])
    return "".join(map(_CSV_ROW.format, *columns))


def _json_objects(rows: list[tuple]) -> str:
    """rows as json.dump(indent=1) writes them inside the top-level list,
    every value through json's own encoder; a list or an object raises
    TypeError, as json.dump would indent it over several lines."""
    text = _json_lines(list(chain.from_iterable(rows)))
    if text.startswith(("[[", "[{")) or "\n[" in text or "\n{" in text:
        raise TypeError("sweep record fields must be scalars, not lists or objects")
    values = iter(text[1:-1].split("\n"))
    return ",\n ".join(map(_JSON_OBJECT.format, *[values] * len(CSV_HEADER)))


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
    rename over, so it is opened and written in place, as open() does, or
    through a duplicate of stdout where it is stdout, at stdout's offset.
    """
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with contextlib.suppress(OSError):  # a dangling link, or no stdout
            if os.path.samestat(os.stat(path), os.fstat(1)):
                path = os.dup(1)
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
    """Write records as CSV or JSON, in the order given.

    CSV is csv.writer's default dialect: a header of the field names, then
    one row per record, yset quoted as csv.writer quotes it and every other
    value through format_float's spec.  JSON is what json.dump(...,
    indent=1) writes for a list of one object per record, in field order,
    plus a final newline, every value through json's own encoder.  The bytes
    equal those two writers' for float, int, bool and numpy scalar fields
    (in JSON, those json.dump takes) and any text yset.  A list or dict
    field makes JSON raise TypeError before its batch is written.  Records
    are rendered a batch at a time and written as they come, so records may
    be any iterable, such as run_sweep's generator, and neither they nor
    the document are ever held whole.

    path appears only once the last record is written; an error partway,
    from the records or from the disk, leaves it as it was.  A symlink or a
    path that is not a regular file, such as /dev/stdout, is written in
    place instead, through this process's stdout where it is the same file.
    An empty iterable or an unknown format raises ValueError before any
    file is made.
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


def load_records(path) -> list[SweepRecord]:
    """Read back a JSON record file written by emit."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return [SweepRecord(**entry) for entry in payload]
