"""Run one workload traced twice with one seed and name every moved count.

Usage, from the repository root::

    python3 perfbench/check_counts.py --workload plan --seed 1 --seconds 30

Every per-layer count and count ratio must repeat exactly for one seed;
only ``federation.memo.*`` may move, because the shard processes race on
the shared memo store.  Exits with status 1 if any other count moved.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import COUNTS, RACY_PREFIX

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int, seconds: float,
               size: str = "full") -> dict:
    """The last-line JSON of one ``--trace 1`` run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
         "--size", size],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def moved_counts(first: dict, second: dict) -> list:
    """Names of the counts that differ between two runs' metrics."""
    return sorted(name for name in COUNTS
                  if first["metrics"][name]["value"]
                  != second["metrics"][name]["value"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    runs = [traced_run(args.workload, args.seed, args.seconds, args.size)
            for _ in range(2)]
    for run in runs:
        metrics = run["metrics"]
        print(f"correct {run['correct']}, trace.coverage "
              f"{metrics['trace.coverage']['value']:.4f}, trace.overhead_ms "
              f"{metrics['trace.overhead_ms']['value']:.3f}")
    moved = moved_counts(*runs)
    for name in moved:
        values = [run["metrics"][name]["value"] for run in runs]
        exempt = " (exempt)" if name.startswith(RACY_PREFIX) else ""
        print(f"moved {name}: {values[0]} -> {values[1]}{exempt}")
    bad = [name for name in moved if not name.startswith(RACY_PREFIX)]
    print(f"{len(COUNTS) - len(moved)} of {len(COUNTS)} counts "
          f"repeat exactly; {len(bad)} moved that must not")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
