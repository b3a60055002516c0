"""Fast self-test of the benchmark: every workload at a tiny size emits every
named metric, with no failed operation, in both the plain and the traced run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The display names of each workload's end-to-end metrics; each
# single-workload run prints them as "metric <name> <value> <unit>" lines.
DISPLAY_NAMES = {
    "fig-sweeps": ["sweep_points_per_s"],
    "compare-separable": ["undetected_states_per_s"],
    "compare-random": ["detected_states_per_s"],
    "check-d8": ["check_p50_ms", "check_p90_ms"],
    "thresholds": ["threshold_p50_ms", "threshold_p90_ms"],
}
COMMON = ["setup_s", "peak_rss_mb", "error_rate"]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout: str) -> dict[str, float]:
    return {line.split()[1]: float(line.split()[2])
            for line in stdout.splitlines() if line.startswith("metric ")}


def test_spec_lists_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(DISPLAY_NAMES)


@pytest.mark.parametrize("workload", sorted(DISPLAY_NAMES))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    listed = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in listed}
    facts = json.loads(next(line for line in proc.stdout.splitlines()
                            if line.startswith("facts "))[len("facts "):])
    assert {"nproc", "python", "numpy", "blas", "blas_threads", "commit", "seed"} <= set(facts)
    if trace == "0":
        printed = printed_metrics(proc.stdout)
        for name in COMMON + DISPLAY_NAMES[workload]:
            assert name in printed, name
        assert printed["error_rate"] == 0.0
    else:
        assert "outputs identical: True" in proc.stdout
        assert result["metrics"]["trace.self_share"]["value"] > 0.5


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "thresholds", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
