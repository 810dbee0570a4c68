"""Smoke test of the benchmark: every workload at minimal size, end to end and traced.

    python3 -m pytest bench/test_bench.py

Each run must exit 0, pass its output check, and print every metric that
BENCHMARK.json names, with its unit, in the report and in the result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = "1"  # bench/golden.json holds outputs for this seed


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", DEFAULT_SEED,
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_output_check_passes(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    report = {line.split()[0]: line.split()[2] for line in lines[:-1] if line.startswith("  ") and len(line.split()) > 2}
    for m in expected:
        assert report.get(m["name"]) == m["unit"], f"{m['name']} not printed with unit {m['unit']}"
    assert "  output check: passed" in lines


def test_fails_without_the_program(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "null_grid", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
