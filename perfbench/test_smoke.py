"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


# The per-command times each workload prints before its JSON line.
COMMAND_TIMES = {
    "align-corpus": ["align_s", "gen_partial_s", "mix_s"],
    "prefix-data": ["gen_partial_s", "mix_s"],
    "talk-eval": ["simulate_s", "reseg_s", "score_s"],
}


def _row(table: str, name: str, unit: str) -> bool:
    """Whether the table has a line "<name> <number> <unit>" for this metric."""
    return re.search(rf"^\s+{re.escape(name)}\s+-?\d+\.\d+\s+{re.escape(unit)}$", table, re.M) is not None


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", NAMES)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.generate(workload, seed, 0.02, tmp_path / name)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_run_prints_every_metric_with_its_unit(workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--scale", "0.02"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in expected] == list(result["metrics"])
    table = "\n".join(lines[:-1])
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert _row(table, metric["name"], metric["unit"]), metric["name"]
    for name in COMMAND_TIMES[workload]:
        assert _row(table, name, "s"), name
    assert re.search(r"^\s+error_rate\s+0\.0+\s+1$", table, re.M)
    if trace:
        assert result["metrics"]["trace.uncounted"]["value"] == 0


def test_tracer_binds_keywords_and_tallies_lazy_values():
    tracer = Tracer("unit")
    lengths = tracer.wrap("unit.lengths", lambda words, scale=1: [scale * len(w) for w in words],
                          lambda b, r: {"words": len(b["words"]), "scale": b["scale"]})
    assert lengths(words=["ab", "c"], scale=2) == [4, 2]
    lazy = tracer.wrap("unit.lazy", lambda n: iter(range(n)), lambda b, r: {"items": len(r)})
    assert list(lazy(n=3)) == [0, 1, 2]
    metrics = tracer.metrics()
    assert metrics["unit.lengths.words"] == 2 and metrics["unit.lengths.scale"] == 2
    assert "unit.lazy.items" not in metrics
    assert metrics["trace.uncounted"] == 1 and metrics["trace.spans"] == 2


def test_fixture_walk_matches_run_pipeline(tmp_path):
    """The benchmark's worker and scripts/run_pipeline.py write identical artifacts."""
    ours = tmp_path / "bench"
    ours.mkdir()
    commands = workloads.fixture_commands(ROOT / "data" / "fixtures", ours)
    job = {"src": str(ROOT / "src"), "workload": "fixtures", "trace": False,
           "commands": [[c.label, c.argv] for c in commands],
           "result": str(tmp_path / "result.json"), "spans": str(tmp_path / "spans.jsonl")}
    (tmp_path / "job.json").write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(tmp_path / "job.json")],
                   cwd=ROOT, check=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert [c["code"] for c in result["commands"]] == [0] * len(commands)

    theirs = tmp_path / "pipeline"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_pipeline.py"),
                           "--workdir", str(theirs)],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120)
    assert _files(ours) == _files(theirs)
    for c in result["commands"]:
        assert c["stdout"] in proc.stdout
