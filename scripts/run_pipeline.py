#!/usr/bin/env python3
"""Walk the whole toolkit over the bundled 20-sentence fixture corpus.

Trains a lexical table, extracts alignments, generates prefix pairs by the
alignment rule, mixes them 1:1 with the full corpus, replays an update stream
through the word-by-word translator, resegments a hypothesis stream, and
scores it. Everything lands in the chosen work directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from retrans.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "data" / "fixtures"


def run(argv: list[str]) -> None:
    print("$ retrans " + " ".join(argv))
    code = main(argv)
    if code != 0:
        sys.exit(code)


def steps(fixtures: Path, workdir: Path, seed: int) -> list[list[str]]:
    """The argv of each subcommand of the walk, in order."""
    src = str(fixtures / "tiny.en")
    tgt = str(fixtures / "tiny.es")
    return [
        [
            "align", "--src", src, "--tgt", tgt, "--iterations", "5",
            "--out", str(workdir / "tiny.align"),
            "--table-out", str(workdir / "table.tsv"),
        ],
        [
            "gen-partial", "--src", src, "--tgt", tgt,
            "--method", "alignment",
            "--alignments", str(workdir / "tiny.align"),
            "--out-prefix", str(workdir / "partial"),
        ],
        [
            "mix",
            "--full-src", src, "--full-tgt", tgt,
            "--partial-src", str(workdir / "partial.src"),
            "--partial-tgt", str(workdir / "partial.tgt"),
            "--out-prefix", str(workdir / "mixed"),
            "--seed", str(seed),
        ],
        [
            "simulate",
            "--events", str(fixtures / "tiny.events.jsonl"),
            "--translator", f"dict:{fixtures / 'tiny.lexicon.tsv'}",
            "--refs", str(fixtures / "tiny.refs.txt"),
            "--log-out", str(workdir / "session.jsonl"),
            "--report-out", str(workdir / "report.txt"),
        ],
        [
            "reseg",
            "--hyp-stream", str(fixtures / "tiny.hyp.es"),
            "--refs", tgt,
            "--out", str(workdir / "resegmented.txt"),
        ],
        [
            "score",
            "--hyp", str(workdir / "resegmented.txt"),
            "--ref", tgt,
            "--metric", "bleu",
        ],
    ]


def pipeline(workdir: Path, seed: int) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for argv in steps(FIXTURES, workdir, seed):
        run(argv)
    print(f"\nartifacts in {workdir}:")
    for path in sorted(workdir.iterdir()):
        print(f"  {path.name}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("pipeline-out"))
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args()
    pipeline(args.workdir, args.seed)
