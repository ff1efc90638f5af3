#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/stability.py --seeds 10 [--first-seed 1] [--seconds 20]
        [--workload cold-bound ...]

Runs perfbench/run.py once per seed and workload (--trace 0) and prints, per
metric, the median, the interquartile range over the median (the spread
the acceptance rule takes) and its ratio to the metric's bound in
BENCHMARK.json. A spread at or above a third of the bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
                return 1
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            s = benchlib.spread(vals)
            share = s / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            flag = "  <-- over a third of the bound" if share >= 1 / 3 else ""
            print(f"{workload:16s} {name:18s} median={statistics.median(vals):10.4g}"
                  f" spread={s:7.2%} bound={bounds[name]:.2f}"
                  f" spread/bound={share:5.2f}{flag}", flush=True)
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
