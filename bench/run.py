"""Layered benchmark for sepscope.

One workload, as BENCHMARK.json's command runs it:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the machine facts, each end-to-end metric (``--trace 0``) or
per-layer metric (``--trace 1``) by name with its unit, and as its last line
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every workload, each in its own fresh process, then one traced run each:

    python3 bench/run.py [--seed N] [--seconds S] [--repeats R] [--out FILE]

prints every end-to-end metric, under its display name where it has one, with
median and quartiles over the repeats (seeds N..N+R-1), and the per-layer
metrics of the traced runs.  See bench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 9
# Untimed units after each set-up probe: a probe evicts the caches the units use.
SETTLE_S = 0.25
# A child run may take its measuring time plus set-up probes and checks.
CHILD_TIMEOUT_S = 170

# The gated end-to-end metrics (BENCHMARK.json), the JSON line of a
# --trace 0 run.  Op times are divided by the reference kernel's time around
# the same unit (unit "ref"), which cancels the machine's current speed; see
# README.md for the measurements behind this.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("ops_per_ref", "1/ref"),
)
# Printed with them in wall-clock units, also under the workload's display
# name where it has one (each workload's ``aliases``).
WALL_CLOCK = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("error_rate", "ratio"),
)


def load_sepscope():
    """Import sepscope from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sepscope" / "__init__.py").is_file():
        raise SystemExit(f"error: sepscope sources not found under {src}")
    sys.path.insert(0, str(src))
    import sepscope
    import sepscope.cli

    if Path(sepscope.__file__).resolve().parent != (src / "sepscope").resolve():
        raise SystemExit(f"error: imported sepscope from {sepscope.__file__}, not {src}")
    return sepscope


def blas_facts() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    facts = {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def machine_facts(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_facts(),
        "blas_env": {key: os.environ.get(key) for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# A fixed 9x9 matrix for the reference kernel (any well-conditioned one will do).
REF_MATRIX = np.add.outer(np.arange(9.0), 1j * np.arange(9.0) ** 1.5) / 81.0 + np.eye(9)


def reference_seconds() -> float:
    """Time one run of a fixed kernel that does sepscope's kind of work
    (small Kronecker products and SVDs driven from Python) without calling
    sepscope, so that dividing by it cancels the machine's current speed.

    A single run right after a unit sees caches in the state the workload
    leaves them; a warm best-of-three tracked the workload less well."""
    start = time.perf_counter()
    for _ in range(8):
        mat = np.kron(np.eye(3), REF_MATRIX[:3, :3]) - REF_MATRIX
        np.linalg.svd(mat, compute_uv=False).sum()
    return time.perf_counter() - start


def percentile(values: list[float], pct: int) -> float:
    """pct-th percentile (exclusive method); the value itself for one sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


class Phase:
    """Timed units of one workload: per-op times, ops, failures, output digests."""

    def __init__(self) -> None:
        self.per_op_s: list[float] = []
        # Per-op time over the reference kernel's time around the same unit.
        self.per_op_ref: list[float] = []
        self.busy_ref = 0.0
        self.ops = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}

    def run_unit(self, workload, index: int, tracer=None, timed: bool = True) -> float | None:
        """Time one unit, traced if a tracer is given, and check it untimed and
        untraced.  Returns the unit's time, or None if it raised; an untimed
        unit is checked but left out of the time statistics."""
        ops = workload.ops(index)
        self.attempted += ops
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            result = workload.unit(index)
        except Exception as exc:  # a crash inside sepscope is a failed unit, not a dead run
            print(f"check failed: {workload.name} unit {index}: {exc!r}", file=sys.stderr)
            self.failed += ops
            return None
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
                tracer.end_unit()
        if timed:
            self.per_op_s.append(elapsed / ops)
            self.ops += ops
            self.busy_s += elapsed
        self.failed += workload.check(index, result)
        self.digests[index] = digest(workload.output(result))
        return elapsed

    def run_for(self, workload, seconds: float, pause=None, pauses: int = 0) -> None:
        """Run units 0, 1, ... for ``seconds`` of their own time (at least one
        unit), timing the reference kernel between units.  ``pause()`` is
        called ``pauses`` times, spread evenly over the run between units,
        each followed by SETTLE_S of untimed units while caches refill; that
        time does not count."""
        start = time.perf_counter()
        paused = 0.0
        done = 0
        index = 0
        before = reference_seconds()
        while True:
            if done < pauses and pauses * (time.perf_counter() - start - paused) >= seconds * done:
                pause_start = time.perf_counter()
                pause()
                settled = time.perf_counter() + SETTLE_S
                while time.perf_counter() < settled:
                    self.run_unit(workload, index, timed=False)
                    index += 1
                paused += time.perf_counter() - pause_start
                done += 1
                before = reference_seconds()
            elapsed = self.run_unit(workload, index)
            after = reference_seconds()
            if elapsed is not None:
                ref = (before + after) / 2
                self.per_op_ref.append(self.per_op_s[-1] / ref)
                self.busy_ref += elapsed / ref
            before = after
            index += 1
            if time.perf_counter() - start - paused >= seconds and done >= pauses:
                return


def setup_probe(args) -> float:
    """Wall time of a fresh process from its start to the end of its first
    unit: interpreter, imports, input generation and one unit."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed (exit code {code}, said {line!r})")
    return elapsed


def print_metric(name: str, value: float, unit: str) -> None:
    print(f"metric {name} {value!r} {unit}")


def run_workload(args) -> int:
    ss = load_sepscope()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ss, args.seed, workdir, args.tiny)
        warm = Phase()
        warm.run_unit(workload, 0)
        if args.setup_probe:
            print("ready", flush=True)
            return 0 if warm.failed == 0 else 1

        print("facts " + json.dumps(machine_facts(args.seed), sort_keys=True))
        print(f"workload {workload.name}: op = one {workload.op}; {workload.why}")
        if args.trace:
            # Each unit runs untraced and then traced on the same input, so
            # the overhead ratio and the identity check compare like with like.
            plain, traced, tracer = Phase(), Phase(), Tracer()
            deadline = time.perf_counter() + args.seconds
            index = 0
            while True:
                plain.run_unit(workload, index)
                traced.run_unit(workload, index, tracer)
                index += 1
                if time.perf_counter() >= deadline:
                    break
            mismatched = [i for i, d in traced.digests.items() if plain.digests.get(i) != d]
            for index in mismatched:
                print(f"check failed: {workload.name} unit {index}: traced output differs",
                      file=sys.stderr)
            phases = (warm, plain, traced)
            failed = sum(p.failed for p in phases) + sum(workload.ops(i) for i in mismatched)
            values = tracer.layer_metrics(traced.ops, traced.busy_s, traced.busy_s / plain.busy_s)
            units = dict(LAYER_METRICS)
            print(f"traced {traced.ops} ops in {len(tracer.spans)} spans; "
                  f"untraced {plain.ops} ops; outputs identical: {not mismatched}")
        else:
            # Set-up probes run between units across the whole run, so they
            # sample the machine's speed as widely as the units do.
            setups: list[float] = []
            phase = Phase()
            phase.run_for(workload, args.seconds, lambda: setups.append(setup_probe(args)),
                          1 if args.tiny else SETUP_PROBES)
            setup = statistics.median(setups)
            phases = (warm, phase)
            failed = warm.failed + phase.failed
            values = {
                "setup_s": setup,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "op_p50_ref": percentile(phase.per_op_ref, 50),
                "op_p90_ref": percentile(phase.per_op_ref, 90),
                "ops_per_ref": phase.ops / phase.busy_ref,
            }
            units = dict(END_TO_END)
            wall = {
                "op_p50_ms": percentile(phase.per_op_s, 50) * 1e3,
                "op_p90_ms": percentile(phase.per_op_s, 90) * 1e3,
                "ops_per_s": phase.ops / phase.busy_s,
                "error_rate": failed / sum(p.attempted for p in phases),
            }
            print(f"measured {phase.ops} ops in {len(phase.per_op_s)} timed units, "
                  f"{phase.busy_s:.3f} s busy")
            for name, unit in WALL_CLOCK:
                print_metric(name, wall[name], unit)
                if name in workload.aliases:
                    print_metric(workload.aliases[name], wall[name], unit)
        for name, value in values.items():
            print_metric(name, value, units[name])
        print(json.dumps({
            "correct": failed == 0,
            "attempted": sum(p.attempted for p in phases),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One single-workload run in a fresh process: its JSON line and every
    metric it printed."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S + 3 * seconds)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    printed = {line.split()[1]: float(line.split()[2])
               for line in lines if line.startswith("metric ")}
    return json.loads(lines[-1]), printed


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def run_all(args) -> int:
    load_sepscope()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"facts": machine_facts(args.seed), "seconds": args.seconds,
              "seeds": list(range(args.seed, args.seed + args.repeats)), "workloads": {}}
    runs = {name: [] for name in WORKLOADS}
    # Repeats interleave the workloads so slow drift on the machine hits each alike.
    for seed in report["seeds"]:
        for name in WORKLOADS:
            runs[name].append(run_child(name, seed, args.seconds, 0))
    print(f"{'workload':<18} {'metric':<24} {'unit':<6} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for name, cls in WORKLOADS.items():
        results = [result for result, _ in runs[name]]
        entry = {"op": cls.op, "why": cls.why,
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "correct": all(r["correct"] for r in results),
                 "end_to_end": {}, "wall_clock": {}}
        for section, metrics in (("end_to_end", END_TO_END), ("wall_clock", WALL_CLOCK)):
            for metric, unit in metrics:
                stats = summarize([printed[metric] for _, printed in runs[name]])
                label = cls.aliases.get(metric, metric)
                entry[section][label] = {"unit": unit, **stats}
                print(f"{name:<18} {label:<24} {unit:<6} {stats['median']:>11.5g} "
                      f"{stats['q1']:>11.5g} {stats['q3']:>11.5g} {stats['spread']:>7.3f} "
                      f"{bounds.get(metric, ''):>6}")
        report["workloads"][name] = entry
    print()
    names = list(WORKLOADS)
    traced = {name: run_child(name, args.seed, args.seconds, 1)[0] for name in names}
    print(f"{'per-layer metric (traced run)':<40} {'unit':<8} "
          + " ".join(f"{name:>17}" for name in names))
    for metric, unit in LAYER_METRICS:
        cells = " ".join(f"{traced[n]['metrics'][metric]['value']:>17.6g}" for n in names)
        print(f"{metric:<40} {unit:<8} {cells}")
    for name in names:
        report["workloads"][name]["per_layer"] = {
            metric: value["value"] for metric, value in traced[name]["metrics"].items()}
        report["workloads"][name]["traced_correct"] = traced[name]["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    ok = all(w["correct"] and w["traced_correct"] for w in report["workloads"].values())
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="run one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload when running them all, seeds N..N+R-1")
    parser.add_argument("--out", help="write the combined report here (all workloads only)")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.repeats < 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --repeats >= 1")
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
