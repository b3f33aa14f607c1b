"""Tests of the benchmark itself, on the tiny size of every workload.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from check_counts import moved_counts  # noqa: E402
from inputs import SIZES, digest, make_inputs  # noqa: E402
from metrics import RACY_PREFIX  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    inputs_line = next(line for line in lines if line.startswith("workload "))
    return json.loads(lines[-1]), inputs_line


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    result, _ = run_bench(workload, 1, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for metric in BENCH["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_print_and_counts_repeat(workload):
    first, first_inputs = run_bench(workload, 1, 1)
    second, second_inputs = run_bench(workload, 1, 1)
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    # same seed in two processes: identical inputs and identical counts
    assert first_inputs == second_inputs
    assert [name for name in moved_counts(first, second)
            if not name.startswith(RACY_PREFIX)] == []
    assert first["metrics"]["trace.coverage"]["value"] >= 0.9


@pytest.mark.parametrize("workload", ["plan", "churn"])
def test_a_second_seed_gives_other_inputs(workload):
    # federation takes churn's inputs
    size = SIZES["tiny"]
    one = digest(make_inputs(workload, 1, size))
    assert one == digest(make_inputs(workload, 1, size))
    assert one != digest(make_inputs(workload, 2, size))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
