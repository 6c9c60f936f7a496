"""The README's examples, run as written on the bundled fixtures.

Every `retrans` line of the README's `sh` blocks runs through `cli.main`, in
order, and its `python` block is executed, in a directory where the
placeholder file names are copies of fixture files.
"""

from __future__ import annotations

import re
import shlex
import shutil
from pathlib import Path

import pytest

from retrans.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# The README's placeholder files, and the fixture each one stands for.
PLACEHOLDERS = {
    "corpus.en": "tiny.en",
    "corpus.es": "tiny.es",
    "updates.jsonl": "tiny.events.jsonl",
    "lexicon.tsv": "tiny.lexicon.tsv",
    "refs.txt": "tiny.refs.txt",
    "stream.txt": "tiny.hyp.es",
}

# The lines of the `sh` blocks that are not `retrans` commands, and why none is run.
NOT_RUN = {
    "pip install -e . --no-build-isolation": "installs the package",
    "pytest": "runs this suite",
    "pytest tests/test_acceptance.py -v -s": "runs part of this suite",
    "python -X importtime -m retrans.cli --help": "prints import timings, which vary by run",
    "python scripts/run_pipeline.py --workdir pipeline-out": (
        "tests/test_acceptance.py runs the steps of scripts/run_pipeline.py"
    ),
}


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)


def commands() -> list[list[str]]:
    """Each command of every `sh` block, continuation lines joined and comments dropped."""
    lines = "".join(blocks("sh")).replace("\\\n", " ").splitlines()
    return [argv for line in lines if (argv := shlex.split(line, comments=True))]


@pytest.fixture
def placeholders(tmp_path, monkeypatch, fixtures) -> Path:
    for name, fixture in PLACEHOLDERS.items():
        shutil.copyfile(fixtures / fixture, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_shell_commands_run(placeholders, capsys):
    ran = []
    for argv in commands():
        if argv[0] != "retrans":
            assert " ".join(argv) in NOT_RUN, f"README command neither run nor named: {argv}"
            continue
        code = main(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)
        ran.append(argv[1])
    assert ran == ["align", "gen-partial", "mix", "simulate", "reseg", "score"]
    assert (placeholders / "report.txt").exists() and (placeholders / "segments.txt").exists()


def test_library_example_runs(placeholders):
    [code] = blocks("python")
    namespace: dict[str, object] = {}
    exec(compile(code, f"{README}:python", "exec"), namespace)
    assert namespace["manifest"].output_size == len(namespace["mixed"])
    assert namespace["report"].bleu is not None
