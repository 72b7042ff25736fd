"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

Runs every workload, untraced and traced, and checks that each metric
BENCHMARK.json names is emitted with its unit, together with the
workload-specific metrics the benchmark prints before its result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# printed as "<workload> <name> <value> <unit>" before the result line
NAMED = {
    "collect": {"episodes_per_s": "1/s", "ticks_per_s": "1/s"},
    "fit": {"epoch_s": "s", "val_rmse": "1"},
    "compare": {"ticks_per_s": "1/s", "lstm_target_mm": "mm", "ekf_target_mm": "mm"},
}
COMMON = {"error_rate": "ratio", "cpu_ms_per_item": "ms", "peak_rss_mb": "MB",
          "setup_s": "s"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def printed(stdout: str, workload: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        parts = line.split(" ")
        if len(parts) == 4 and parts[0] == workload:
            out[parts[1]] = parts[3]
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if trace:
        assert result["metrics"]["trace.overhead"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        units = printed(proc.stdout, workload)
        for name, unit in {**COMMON, **NAMED[workload]}.items():
            assert units.get(name) == unit, name


def test_all_runs_every_workload():
    proc = run_bench("--workload", "all", "--seed", "4", "--seconds", "0.1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n in names}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "collect", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
