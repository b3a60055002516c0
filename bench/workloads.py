"""The benchmark's workloads: seeded inputs, the timed unit of work, and the
checks that turn a wrong output into a failed operation.

Each workload exposes ``ops(index)``, the number of operations in unit
``index``; ``unit(index)``, the timed call into sepscope; ``output(result)``,
the bytes sepscope produced, for the traced/untraced identity check; and
``check(index, result)``, which returns the number of failed operations and
prints the reason for each failure to stderr.  sepscope is reached only
through its public functions and ``sepscope.cli.main``, looked up at call
time so the tracer's rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys

import numpy as np

# Flag rule the CLI documents for eigenvalue-type criteria: flagged when the
# minimum eigenvalue drops below -1e-8.
TOL_FLAG = 1e-8
THIRD = 1.0 / 3.0


def _fail(workload: str, index: int, reason: str) -> None:
    print(f"check failed: {workload} unit {index}: {reason}", file=sys.stderr)


def _run_cli(ss, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ss.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def ppt_min_eigenvalue(mat: np.ndarray, m: int, n: int) -> float:
    """Smallest eigenvalue of the partial transpose on subsystem A."""
    pt = mat.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)
    return float(np.linalg.eigvalsh(pt)[0])


def reference_random_density(dim: int, seed: int) -> np.ndarray:
    """The Ginibre state sepscope's ``random`` family draws for ``seed``.

    The compare command builds its ensemble from a seed, so the benchmark
    regenerates the same matrix to check the PPT column independently.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_separable_matrix(rng: np.random.Generator, m: int, n: int, k: int) -> np.ndarray:
    """Convex mixture of k Haar-random pure product states."""
    weights = rng.exponential(size=k)
    weights /= weights.sum()
    mat = np.zeros((m * n, m * n), dtype=complex)
    for weight in weights:
        kets = []
        for dim in (m, n):
            g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            kets.append(g / np.linalg.norm(g))
        product = np.kron(*kets)
        mat += weight * np.outer(product, product.conj())
    return mat


class FigSweeps:
    name = "fig-sweeps"
    why = ("the paper's two surfaces: thousands of independent 9x9 evaluations "
           "from 60 states, where a batched core acts fully")
    op = "grid point"
    aliases = {"ops_per_s": "sweep_points_per_s"}

    def __init__(self, ss, seed: int, workdir, tiny: bool) -> None:
        self.ss = ss
        self.rng = np.random.default_rng(seed)  # picks the spot-checked points only
        self.yset = ss.GptOpSet.from_code("cA,rB")
        step = 0.25 if tiny else 0.05
        self.specs = (
            ss.GridSpec("werner-3", 0.0, (-1.0, 1.0, step), (-1.0, 1.0, step), self.yset),
            ss.GridSpec("horodecki", 0.0, (-1.0, 1.0, step), (0.05, 0.95, step), self.yset),
        )
        self.sizes = [len(ss.axis_points(*s.param_axis)) * len(ss.axis_points(*s.b_axis))
                      for s in self.specs]
        self.csv_path = workdir / "surface.csv"
        self.json_path = workdir / "surface.json"

    def ops(self, index: int) -> int:
        return self.sizes[index % 2]

    def unit(self, index: int):
        records = self.ss.run_sweep(self.specs[index % 2])
        self.ss.emit(records, "csv", self.csv_path)
        self.ss.emit(records, "json", self.json_path)
        return records

    def output(self, records) -> bytes:
        return self.csv_path.read_bytes() + self.json_path.read_bytes()

    def check(self, index: int, records) -> int:
        ss, spec = self.ss, self.specs[index % 2]
        problems = []
        if len(records) != self.ops(index):
            problems.append(f"{len(records)} records, expected {self.ops(index)}")
        if ss.load_records(self.json_path) != records:
            problems.append("JSON does not round-trip through load_records")
        with open(self.csv_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        parsed = [ss.SweepRecord(float(r[0]), float(r[1]), float(r[2]), r[3],
                                 float(r[4]), float(r[5]), float(r[6])) for r in rows]
        if parsed != records:
            problems.append("CSV does not round-trip to the records")
        if spec.family == "werner-3":
            for rec in records:
                if abs(rec.b) < 1e-12:
                    want = max((abs(1.0 - 3.0 * rec.family_param) - 2.0) / 3.0, 0.0)
                    if abs(rec.violation - want) > 1e-9:
                        problems.append(f"Werner b=0 at f={rec.family_param}: N={rec.violation}"
                                        f" expected {want}")
        for pos in self.rng.choice(len(records), size=min(8, len(records)), replace=False):
            rec = records[pos]
            if spec.family == "werner-3":
                state = ss.werner(3, rec.family_param).state
            else:
                state = ss.horodecki_3x3(rec.family_param).state
            direct = ss.evaluate(state, ss.ReductionParams(spec.a, rec.b), self.yset)
            tol = 1e-9 * max(1.0, direct.bound)
            if (rec.yset != self.yset.code or rec.a != spec.a
                    or abs(rec.statistic - direct.statistic) > tol
                    or abs(rec.bound - direct.bound) > tol
                    or abs(rec.violation - direct.violation) > tol):
                problems.append(f"point {pos} differs from a direct evaluate: {rec} vs {direct}")
        for problem in problems:
            _fail(self.name, index, problem)
        return self.ops(index) if problems else 0


class CompareEnsemble:
    """``sepscope compare`` on ``count`` seeded 3x3 states per call; the op is one state."""

    op = "state"

    def __init__(self, ss, seed: int, workdir, tiny: bool) -> None:
        self.ss = ss
        self.base = int(np.random.default_rng(seed).integers(0, 2**30))

    def ops(self, index: int) -> int:
        return self.count

    def _seed(self, index: int) -> int:
        return self.base + index * self.count

    def unit(self, index: int):
        argv = ["compare", "--family", self.family, "--count", str(self.count),
                "--seed", str(self._seed(index))] + self.extra
        return _run_cli(self.ss, argv)

    def output(self, result) -> bytes:
        code, out, err = result
        return f"{code}\n{out}\n{err}".encode()

    def check(self, index: int, result) -> int:
        code, out, err = result
        lines = out.splitlines()
        if (code != 0 or err or len(lines) < self.count + 2
                or not lines[self.count + 1].startswith("flagged totals")):
            _fail(self.name, index, f"exit code {code}, stderr {err!r}, output:\n{out}")
            return self.count
        failed = 0
        for offset, line in enumerate(lines[1:self.count + 1]):
            ppt, reduction, realignment, grc = (flag == "Y" for flag in line.split()[-4:])
            reason = self.row_problem(self._seed(index) + offset, ppt, reduction, realignment, grc)
            if reason:
                _fail(self.name, index, f"state {offset}: {reason}")
                failed += 1
        return failed


class CompareSeparable(CompareEnsemble):
    name = "compare-separable"
    why = ("separable 3x3 ensembles (k=12) are never detected, so each state runs all "
           "576 evaluations plus 3 oracles: the 16-subset redundancy shows here")
    aliases = {"ops_per_s": "undetected_states_per_s"}
    family = "separable"
    extra = ["--k", "12"]
    count = 1  # about 80 ms a state already

    def row_problem(self, seed, ppt, reduction, realignment, grc) -> str:
        if ppt or reduction or realignment or grc:
            return "a separable state was flagged"
        return ""


class CompareRandom(CompareEnsemble):
    name = "compare-random"
    why = ("random-density 3x3 ensembles are always detected, so any() exits early: "
           "a change that computes all 576 evaluations up front shows as a loss here")
    aliases = {"ops_per_s": "detected_states_per_s"}
    family = "random"
    extra = []
    # About a fifth of random states run ~230 evaluations before detection and
    # the rest ~7.  With 4 states a call, the median call holds one slow state
    # and the 90th percentile two, whatever the seed; at 16 a call the median
    # jumped between 3 and 4 slow states from seed to seed.
    count = 4

    def row_problem(self, seed, ppt, reduction, realignment, grc) -> str:
        want = ppt_min_eigenvalue(reference_random_density(9, seed), 3, 3) < -TOL_FLAG
        if ppt != want:
            return f"ppt flag {ppt}, numpy partial-transpose test says {want}"
        # grc at (a, b) = (0, 0) with Y = {rA, cA} is the PPT test as a trace
        # norm, so a PPT detection must also be a grc detection.
        if ppt and not grc:
            return "ppt flagged but grc did not"
        return ""


class CheckD8:
    name = "check-d8"
    why = ("interactive latency of one check on a 64x64 state file, where the SVD and "
           "JSON loading dominate and batching tiny matrices buys little")
    op = "check"
    aliases = {"op_p50_ms": "check_p50_ms", "op_p90_ms": "check_p90_ms"}

    def __init__(self, ss, seed: int, workdir, tiny: bool) -> None:
        self.ss = ss
        rng = np.random.default_rng(seed)
        self.files = []
        for i in range(2 if tiny else 16):
            separable = i % 2 == 0
            if separable:
                mat = random_separable_matrix(rng, 8, 8, 40)
            else:
                g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
                mat = g @ g.conj().T
            mat = mat / np.trace(mat).real
            path = workdir / f"state{i:02d}.json"
            name = "separable" if separable else "random-density"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"m": 8, "n": 8, "re": mat.real.tolist(), "im": mat.imag.tolist(),
                           "name": name, "params": {"index": i}}, handle)
            # The reference reads the file back, so it sees the exact matrix sepscope does.
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            stored = np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
            self.files.append((str(path), separable, ppt_min_eigenvalue(stored, 8, 8)))

    def ops(self, index: int) -> int:
        return 1

    def unit(self, index: int):
        path = self.files[index % len(self.files)][0]
        return _run_cli(self.ss, ["check", "--file", path, "--a", "0.5", f"--b={-THIRD!r}"])

    def output(self, result) -> bytes:
        code, out, err = result
        return f"{code}\n{out}\n{err}".encode()

    def check(self, index: int, result) -> int:
        code, out, err = result
        _, separable, min_eig = self.files[index % len(self.files)]
        lines = out.splitlines()
        rows = [line.split() for line in lines[2:-1]]
        problems = []
        if err:
            problems.append(f"stderr {err!r}")
        if len(rows) != 19 or not lines[-1].startswith("result:"):
            problems.append(f"expected 19 verdict rows:\n{out}")
        else:
            flags = [row[-1] == "yes" for row in rows]
            if code != (1 if any(flags) else 0):
                problems.append(f"exit code {code} disagrees with the flags")
            ppt = [row for row in rows if row[0] == "ppt"]
            want = min_eig < -TOL_FLAG
            if len(ppt) != 1 or (ppt[0][-1] == "yes") != want:
                problems.append(f"ppt row disagrees with numpy (min eigenvalue {min_eig})")
            elif abs(float(ppt[0][2]) - min_eig) > 1e-9:
                problems.append(f"ppt statistic {ppt[0][2]} vs numpy {min_eig}")
            if separable and (code != 0 or any(flags)):
                problems.append(f"separable state flagged (exit code {code})")
        for problem in problems:
            _fail(self.name, index, problem)
        return 1 if problems else 0


class Thresholds:
    name = "thresholds"
    why = ("serial bisection on werner-3 that cannot be batched; the only workload "
           "where building and validating states does real work")
    op = "threshold"
    aliases = {"op_p50_ms": "threshold_p50_ms", "op_p90_ms": "threshold_p90_ms"}

    # (criterion, a, b, yset, threshold): the acceptance suite's four {cA,rB}
    # combinations, grc at {rA,cA}, and the two oracles.
    CASES = (
        ("grc", 0.0, 0.0, "cA,rB", -THIRD),
        ("grc", 0.0, 2.0 / 3.0, "cA,rB", -THIRD),
        ("grc", 1.0, -THIRD, "cA,rB", -THIRD),
        ("grc", 1.0, 1.0, "cA,rB", -THIRD),
        ("grc", 0.0, 0.0, "rA,cA", 0.0),
        ("ppt", 0.0, 0.0, "none", 0.0),
        ("realignment", 0.0, 0.0, "none", -THIRD),
    )

    def __init__(self, ss, seed: int, workdir, tiny: bool) -> None:
        self.ss = ss
        self.rng = np.random.default_rng(seed)
        self.brackets: list[list[tuple[float, float]]] = []

    def ops(self, index: int) -> int:
        return len(self.CASES)

    def _brackets(self, index: int) -> list[tuple[float, float]]:
        while len(self.brackets) <= index:
            self.brackets.append([(float(self.rng.uniform(-1.0, -0.5)),
                                   float(self.rng.uniform(0.2, 1.0))) for _ in self.CASES])
        return self.brackets[index]

    def unit(self, index: int):
        """Every case once, so all units do alike work."""
        ss = self.ss
        return [ss.find_threshold("werner-3", a, b, ss.GptOpSet.from_code(code), lo, hi,
                                  criterion=criterion)
                for (criterion, a, b, code, _), (lo, hi) in zip(self.CASES, self._brackets(index))]

    def output(self, result) -> bytes:
        return repr(result).encode()

    def check(self, index: int, result) -> int:
        failed = 0
        for case, value in zip(self.CASES, result):
            target = case[-1]
            if not (isinstance(value, float) and math.isfinite(value)
                    and abs(value - target) <= 1e-6):
                _fail(self.name, index, f"{case}: threshold {value!r}, expected {target} within 1e-6")
                failed += 1
        return failed + len(self.CASES) - len(result)


WORKLOADS = {w.name: w for w in (FigSweeps, CompareSeparable, CompareRandom, CheckD8, Thresholds)}
