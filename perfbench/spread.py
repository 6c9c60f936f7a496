#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--record]

For every workload in BENCHMARK.json it makes ten untraced runs, seeds 1 to
10, and prints each end-to-end metric's median, quartiles
(``statistics.quantiles(n=4)``) and spread, the quartile distance as a share
of the median, beside the metric's bound; a spread at or above a third of the
bound is flagged WIDE. With --record it also makes one traced run
per workload at the default seed and writes both into baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{proc.stderr}")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help="write the results to baseline.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, RUNS + 1):
            metrics = run(workload, seed, bench["run_seconds"], 0)["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
        summary = {}
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "samples": len(xs)}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"{workload:<13} {name:<12} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}  {flag}", flush=True)
        if args.record:
            traced = run(workload, 1, bench["run_seconds"], 1)["metrics"]
            baseline.setdefault("end_to_end", {})[workload] = summary
            baseline.setdefault("per_layer", {})[workload] = {
                name: m["value"] for name, m in traced.items()
            }
    if args.record:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
