"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 --seconds 25 [--workload NAME ...]

For every end-to-end metric of ``BENCHMARK.json`` and every workload it
prints the median of the runs and their inter-quartile distance as a
share of that median, next to the metric's bound (``!`` marks a spread
above a third of the bound; ``setup_s`` is exempt from the spread rule).
Seeds are 1..runs, so two invocations measure the same inputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import median, spread  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: exit {out.returncode}, "
                      f"correct={result['correct']}, failed={result['failed']}")
                status = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            share = spread(values[name])
            mark = "!" if name != "setup_s" and share > bound / 3 else " "
            print(f"{workload:<13} {name:<16} median {median(values[name]):>10.4f}"
                  f"  spread {share:6.3f} {mark} bound {bound}  runs "
                  + " ".join(f"{v:.4g}" for v in values[name]), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
