#!/usr/bin/env python3
"""retrans benchmark: seeded CLI workloads, end-to-end times and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload align-corpus --seed 1 --seconds 40 --trace 0

The run generates the workload's inputs from --seed (untimed), measures the
CLI start-up several times, then runs the workload's commands in a fresh
process per iteration until --seconds have passed. Each command is
``retrans.cli.main(argv)``, as users run it. Outputs are checked after every
iteration; a command that exits non-zero or whose output check fails counts
as failed. With --trace 1, untraced and traced iterations alternate and the
per-layer metrics come from the traced ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1). The lines before it print every metric with its unit, the
per-command times and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 5
ITERATION_TIMEOUT_S = 150
COMMAND_METRICS = ("align", "gen-partial", "mix", "simulate", "reseg", "score")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import retrans.cli; retrans.cli.build_parser()"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def setup_sample() -> float:
    """Wall time of interpreter start + import retrans.cli + build_parser() in a fresh process."""
    started = perf_counter()
    # No timeout: with one, wait() polls in coarse sleeps and quantises the sample.
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
    return perf_counter() - started


def run_iteration(spec: dict, work: Path, k: int, traced: bool) -> dict:
    """Run the workload's commands once in a fresh worker process."""
    out = work / f"iter{k}"
    out.mkdir()
    commands = workloads.commands(spec, out)
    job = {
        "src": str(SRC),
        "workload": spec["workload"],
        "commands": [[c.label, c.argv] for c in commands],
        "trace": traced,
        "result": str(work / f"result{k}.json"),
        "spans": str(WORK / f"{spec['workload']}.spans.jsonl"),
    }
    job_path = work / f"job{k}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                       check=True, timeout=ITERATION_TIMEOUT_S, cwd=ROOT)
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"iteration {k} failed: {exc}", file=sys.stderr)
        shutil.rmtree(out)
        return {"traced": traced, "attempted": len(commands), "failed": len(commands)}

    failed = sum(c["code"] != 0 for c in result["commands"])
    for c in result["commands"]:
        if c["code"] != 0:
            print(f"{c['label']} exited {c['code']}: {c['stderr']}", file=sys.stderr)
    if not failed:
        stdouts = [c["stdout"] for c in result["commands"]]
        try:
            problems = workloads.check(spec, out, stdouts)
            if spec["seed"] == workloads.DEFAULT_SEED and spec["scale"] == 1:
                found = workloads.digest(out, stdouts)
                expected = json.loads((HERE / "baseline.json").read_text())["digests"].get(spec["workload"])
                print(f"digest {spec['workload']} {found}", file=sys.stderr)
                if found != expected:
                    problems.append(f"output digest {found} != recorded {expected}")
        except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
            problems = [f"{type(exc).__name__}: {exc}"]
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        failed = min(len(commands), len(problems))
    shutil.rmtree(out)

    times = dict.fromkeys(COMMAND_METRICS, 0.0)
    for c in result["commands"]:
        times[c["label"]] += c["seconds"]
    return {
        "traced": traced,
        "attempted": len(commands),
        "failed": failed,
        "wall_s": sum(times.values()),
        "peak_rss_mb": result["peak_rss_mb"],
        "commands": times,
        "layers": result.get("layers"),
    }


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test uses a small one)")
    args = parser.parse_args()
    if not (SRC / "retrans" / "cli.py").is_file():
        print(f"error: no retrans sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        spec = workloads.generate(args.workload, args.seed, args.scale, work / "inputs")
        setup_sample()  # warms the bytecode cache
        setup = [setup_sample() for _ in range(SETUP_SAMPLES)]
        rows = []
        started = perf_counter()
        deadline = started + args.seconds
        while True:
            # Start-up samples spread over the run see the same machine load as the iterations.
            setup += [setup_sample(), setup_sample()]
            traced = bool(args.trace) and len(rows) % 2 == 1
            rows.append(run_iteration(spec, work, len(rows), traced))
            print(f"iteration {len(rows) - 1}: traced={traced} wall_s={rows[-1].get('wall_s')}",
                  file=sys.stderr)
            now = perf_counter()
            # Stop at the iteration boundary nearest the deadline, once every kind has run.
            kinds = {r["traced"] for r in rows if "wall_s" in r}
            if now + (now - started) / len(rows) / 2 >= deadline and len(kinds) == 1 + args.trace:
                break
            if now >= deadline + 60:  # every iteration is failing
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in rows)
    failed = sum(r["failed"] for r in rows)
    plain = [r for r in rows if "wall_s" in r and not r["traced"]]
    traced = [r for r in rows if "wall_s" in r and r["traced"]]
    if not plain or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 0

    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": median_of(plain, "wall_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
    }
    commands = {c: statistics.median(r["commands"][c] for r in plain) for c in COMMAND_METRICS}
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced iterations, {attempted} commands, {failed} failed")
    for name, value in end_to_end.items():
        print(f"  {name:<44} {value:14.6f} {END_TO_END_UNITS[name]}")
    for name, value in commands.items():
        if value:
            print(f"  {name.replace('-', '_') + '_s':<44} {value:14.6f} s")
    print(f"  {'error_rate':<44} {failed / attempted:14.6f} 1")

    if args.trace:
        units = per_layer_units()
        metrics = dict.fromkeys(units, 0.0)
        for name in {k for r in traced for k in r["layers"]} & set(units):
            metrics[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        for name, value in commands.items():
            metrics[f"cli.{name}.wall_s"] = value
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - end_to_end["wall_s"]
        for name, value in metrics.items():
            print(f"  {name:<44} {value:14.6f} {units[name]}")
    else:
        units, metrics = END_TO_END_UNITS, end_to_end
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
