from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shlex
import signal
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrans import partials
from retrans.cli import build_parser, main
from retrans.corpus import corpus_lines, load_corpus, read_lines
from retrans.errors import DataError
from retrans.mixing import mix
from retrans.partials import read_partial


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


class TestUsageErrors:
    def test_gen_partial_alignment_method_needs_alignments(self, capsys, tmp_path, fixtures):
        code, _, err = run(
            capsys,
            "gen-partial",
            "--src", str(fixtures / "tiny.en"),
            "--tgt", str(fixtures / "tiny.es"),
            "--method", "alignment",
            "--out-prefix", str(tmp_path / "p"),
        )
        assert code == 1
        assert "usage:" in err
        assert "--alignments" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage:" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "score", "--hyp", "x")
        assert code == 1
        assert "usage:" in err

    def test_unknown_translator(self, capsys, tmp_path, fixtures):
        code, _, err = run(
            capsys,
            "simulate",
            "--events", str(fixtures / "tiny.events.jsonl"),
            "--translator", "magic",
        )
        assert code == 1
        assert "magic" in err


_ALIGN_USAGE = (
    "usage: retrans align [-h] [--seed SEED] [-v] --src SRC --tgt TGT\n"
    "                     [--iterations ITERATIONS] --out OUT\n"
    "                     [--table-out TABLE_OUT]\n"
)
_GEN_PARTIAL_USAGE = (
    "usage: retrans gen-partial [-h] [--seed SEED] [-v] --src SRC --tgt TGT\n"
    "                           --method {ratio,alignment}\n"
    "                           [--alignments ALIGNMENTS] [--min-i MIN_I]\n"
    "                           --out-prefix OUT_PREFIX\n"
)


class TestStderrContract:
    """The exact stderr and exit code of in-command usage errors and the config echo."""

    @pytest.fixture(autouse=True)
    def _fixed_width(self, monkeypatch):
        # argparse wraps usage text to the terminal width.
        monkeypatch.setenv("COLUMNS", "80")

    def test_align_iterations_below_one(self, capsys, tmp_path, fixtures):
        src, tgt, out = fixtures / "tiny.en", fixtures / "tiny.es", tmp_path / "a.align"
        code, stdout, err = run(
            capsys, "align", "--src", str(src), "--tgt", str(tgt),
            "--iterations", "0", "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert err == (
            f"config: command=align seed=17 verbose=0 iterations=0 out={out} "
            f"src={src} tgt={tgt}\n"
            + _ALIGN_USAGE
            + "error: --iterations must be >= 1\n"
        )

    def test_gen_partial_min_i_below_one(self, capsys, tmp_path, fixtures):
        src, tgt, prefix = fixtures / "tiny.en", fixtures / "tiny.es", tmp_path / "p"
        code, stdout, err = run(
            capsys, "gen-partial", "--src", str(src), "--tgt", str(tgt),
            "--method", "ratio", "--min-i", "0", "--out-prefix", str(prefix),
        )
        assert (code, stdout) == (1, "")
        assert err == (
            f"config: command=gen-partial seed=17 verbose=0 method=ratio min_i=0 "
            f"out_prefix={prefix} src={src} tgt={tgt}\n"
            + _GEN_PARTIAL_USAGE
            + "error: --min-i must be >= 1\n"
        )

    def test_gen_partial_alignment_without_alignments(self, capsys, tmp_path, fixtures):
        src, tgt, prefix = fixtures / "tiny.en", fixtures / "tiny.es", tmp_path / "p"
        code, stdout, err = run(
            capsys, "gen-partial", "--src", str(src), "--tgt", str(tgt),
            "--method", "alignment", "--out-prefix", str(prefix),
        )
        assert (code, stdout) == (1, "")
        assert err == (
            f"config: command=gen-partial seed=17 verbose=0 method=alignment min_i=1 "
            f"out_prefix={prefix} src={src} tgt={tgt}\n"
            + _GEN_PARTIAL_USAGE
            + "error: --alignments is required with --method alignment\n"
        )

    def test_dict_translator_without_file(self, capsys, fixtures):
        events = fixtures / "tiny.events.jsonl"
        code, stdout, err = run(
            capsys, "simulate", "--events", str(events), "--translator", "dict:"
        )
        assert (code, stdout) == (1, "")
        assert err == (
            f"config: command=simulate seed=17 verbose=0 events={events} "
            f"timeout=30.0 translator=dict:\n"
            "error: dict translator needs a file: dict:FILE\n"
        )

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_simulate_timeout_not_finite_and_positive(self, capsys, tmp_path, timeout):
        # The events file does not exist and the child would create `started`:
        # the timeout is rejected before either is touched.
        events, started = tmp_path / "missing.jsonl", tmp_path / "started"
        translator = _cmd_spec(f"open({str(started)!r}, 'w')")
        code, stdout, err = run(
            capsys, "simulate", "--events", str(events), "--translator", translator,
            "--timeout", timeout,
        )
        assert (code, stdout) == (1, "")
        assert err.splitlines()[1].startswith("usage: retrans simulate ")
        assert err.endswith("error: --timeout must be a finite number > 0\n")
        assert not started.exists()

    def test_successful_run_echoes_config_and_notes(self, capsys, tmp_path, fixtures):
        src, tgt, out = fixtures / "tiny.en", fixtures / "tiny.es", tmp_path / "a.align"
        table = tmp_path / "table.tsv"
        code, stdout, err = run(
            capsys, "align", "--src", str(src), "--tgt", str(tgt), "--out", str(out),
            "--table-out", str(table), "--seed", "5", "-vv",
        )
        assert (code, stdout) == (0, "")
        assert err == (
            f"config: command=align seed=5 verbose=2 iterations=5 out={out} "
            f"src={src} table_out={table} tgt={tgt}\n"
            "trained on 20 pairs, 5 iterations\n"
        )


def test_method_choices_are_the_method_values():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in commands.choices["gen-partial"]._actions if a.dest == "method")
    assert sorted(method.choices) == sorted(m.value for m in partials.Method)


class TestProcess:
    """The CLI contract when it runs as its own process, as users start it."""

    def test_help_lists_every_command(self, fresh_python):
        proc = fresh_python("-m", "retrans.cli", "--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        listed = {line.split()[0] for line in proc.stdout.splitlines() if line.startswith("    ")}
        assert listed >= {"align", "gen-partial", "mix", "score", "reseg", "simulate"}

    def test_missing_required_flag_is_a_usage_error(self, fresh_python):
        proc = fresh_python("-m", "retrans.cli", "score", "--hyp", "x")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("usage: retrans score ")
        assert "error: the following arguments are required: --ref, --metric" in proc.stderr

    def test_missing_input_is_a_data_error(self, fresh_python, tmp_path, fixtures):
        missing = tmp_path / "missing.txt"
        proc = fresh_python(
            "-m", "retrans.cli", "score", "--hyp", str(missing),
            "--ref", str(fixtures / "tiny.es"), "--metric", "bleu",
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines()[-1].startswith("error: ")
        assert str(missing) in proc.stderr

    def test_config_echo_goes_to_stderr(self, fresh_python, fixtures):
        hyp, ref = fixtures / "tiny.hyp.es", fixtures / "tiny.es"
        proc = fresh_python(
            "-m", "retrans.cli", "reseg", "--hyp-stream", str(hyp), "--refs", str(ref),
            "--out", os.devnull,
        )
        assert (proc.returncode, proc.stdout) == (0, "")
        assert proc.stderr == (
            f"config: command=reseg seed=17 verbose=0 hyp_stream={hyp} out={os.devnull} "
            f"refs={ref}\n"
        )


class TestDataErrors:
    def test_score_mismatched_line_counts(self, capsys, tmp_path):
        hyp = write(tmp_path / "hyp.txt", "a b\nc d\n")
        ref = write(tmp_path / "ref.txt", "a b\n")
        code, _, err = run(
            capsys, "score", "--hyp", str(hyp), "--ref", str(ref), "--metric", "bleu"
        )
        assert code == 2
        assert "2" in err and "1" in err

    @pytest.mark.parametrize("command", ["align", "gen-partial", "mix", "score"])
    def test_line_count_mismatch_names_both_files(self, capsys, tmp_path, command):
        two = write(tmp_path / "s.txt", "a b\nc\n")
        one = write(tmp_path / "t.txt", "x\n")
        out = str(tmp_path / "out")
        if command == "align":
            argv = ["--src", str(two), "--tgt", str(one), "--out", out]
        elif command == "gen-partial":
            tgt = write(tmp_path / "u.txt", "x\ny\n")
            argv = ["--src", str(two), "--tgt", str(tgt), "--method", "alignment",
                    "--alignments", str(one), "--out-prefix", out]
        elif command == "mix":
            argv = ["--full-src", str(two), "--full-tgt", str(two), "--partial-src", str(two),
                    "--partial-tgt", str(one), "--out-prefix", out]
        else:
            argv = ["--hyp", str(two), "--ref", str(one), "--metric", "bleu"]
        code, stdout, err = run(capsys, command, *argv)
        assert (code, stdout) == (2, "")
        assert err.splitlines()[-1] == f"error: {one} has 1 lines but {two} has 2"
        assert not list(tmp_path.glob("out*"))

    def test_empty_corpus_line_names_position(self, capsys, tmp_path):
        src = write(tmp_path / "s.txt", "a\n\nb\n")
        tgt = write(tmp_path / "t.txt", "x\ny\nz\n")
        code, _, err = run(
            capsys,
            "align",
            "--src", str(src),
            "--tgt", str(tgt),
            "--out", str(tmp_path / "a.align"),
        )
        assert code == 2
        assert "line 2" in err
        assert err.splitlines()[-1] == f"error: {src} line 2: empty sentence"

    @pytest.mark.parametrize("side", ["full", "partial"])
    def test_mix_empty_source_line_names_file_and_line(self, capsys, tmp_path, side):
        good = write(tmp_path / "good.src", "a\nb\nc\n")
        bad = write(tmp_path / "bad.src", "a\n \nc\n")
        tgt = write(tmp_path / "t.txt", "x\ny\nz\n")
        full, partial = (bad, good) if side == "full" else (good, bad)
        code, out, err = run(
            capsys,
            "mix",
            "--full-src", str(full),
            "--full-tgt", str(tgt),
            "--partial-src", str(partial),
            "--partial-tgt", str(tgt),
            "--out-prefix", str(tmp_path / "m"),
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"error: {bad} line 2: empty sentence"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "score",
            "--hyp", str(tmp_path / "none.txt"),
            "--ref", str(tmp_path / "none.txt"),
            "--metric", "bleu",
        )
        assert code == 2

    def test_bad_alignment_file(self, capsys, tmp_path, fixtures):
        bad = write(tmp_path / "bad.align", "9-9\n" * 20)
        code, _, err = run(
            capsys,
            "gen-partial",
            "--src", str(fixtures / "tiny.en"),
            "--tgt", str(fixtures / "tiny.es"),
            "--method", "alignment",
            "--alignments", str(bad),
            "--out-prefix", str(tmp_path / "p"),
        )
        assert code == 2
        assert err.splitlines()[-1] == (
            f"error: {bad} line 1: bad alignment token '9-9': "
            "index out of range for lengths (4,4)"
        )


class TestAlignmentTokens:
    # Tokens that the link scanner rejects: digits outside ASCII, and dashes
    # that leave a side empty or signed.
    @pytest.mark.parametrize("bad", ["١-٢", "１-２", "²-0", "1--2", "+1-2", "1-", "-"])
    def test_gen_partial_names_file_line_and_token(self, capsys, tmp_path, fixtures, bad):
        lines = ["0-0"] * 20
        lines[4] = f"0-0 {bad} 1-1"
        alignments = write(tmp_path / "bad.align", "".join(line + "\n" for line in lines))
        code, out, err = run(
            capsys,
            "gen-partial",
            "--src", str(fixtures / "tiny.en"),
            "--tgt", str(fixtures / "tiny.es"),
            "--method", "alignment",
            "--alignments", str(alignments),
            "--out-prefix", str(tmp_path / "p"),
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"error: {alignments} line 5: bad alignment token {bad!r}"
        assert not list(tmp_path.glob("p.*"))


class TestScore:
    def test_bleu_output_format(self, capsys, tmp_path):
        hyp = write(tmp_path / "hyp.txt", "a b c d\n")
        ref = write(tmp_path / "ref.txt", "a b c d e f g h\n")
        code, out, _ = run(
            capsys, "score", "--hyp", str(hyp), "--ref", str(ref), "--metric", "bleu"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bleu\t0.3679"
        assert lines[1] == "bleu100\t36.7879"

    def test_gleu_metric(self, capsys, tmp_path):
        hyp = write(tmp_path / "hyp.txt", "yo animo a todo el mundo\n")
        ref = write(tmp_path / "ref.txt", "yo animo a\n")
        code, out, _ = run(
            capsys, "score", "--hyp", str(hyp), "--ref", str(ref), "--metric", "gleu"
        )
        assert code == 0
        assert out.splitlines()[0] == "gleu\t0.3333"

    def test_wer_metric(self, capsys, tmp_path):
        hyp = write(tmp_path / "hyp.txt", "a x c\n")
        ref = write(tmp_path / "ref.txt", "a b c\n")
        code, out, _ = run(
            capsys, "score", "--hyp", str(hyp), "--ref", str(ref), "--metric", "wer"
        )
        assert code == 0
        assert out.splitlines()[0] == "wer\t0.3333"

    def test_config_echoed_to_stderr(self, capsys, tmp_path):
        hyp = write(tmp_path / "hyp.txt", "a\n")
        code, _, err = run(
            capsys, "score", "--hyp", str(hyp), "--ref", str(hyp), "--metric", "bleu"
        )
        assert code == 0
        assert err.startswith("config: command=score seed=17 verbose=0")

    @pytest.mark.parametrize(
        "metric, hyp_text, ref_text, bad_file, message",
        [
            ("gleu", "a b\n\nc\n", "a b\nx\nc\n", "hyp", "line 2: gleu requires a non-empty hypothesis"),
            ("gleu", "a b\ny\nc\n", "a b\nx\n\n", "ref", "line 3: gleu requires a non-empty reference"),
            ("wer", "a b\n\nc\n", "a b\n \nc\n", "ref", "line 2: wer requires a non-empty reference"),
        ],
        ids=["gleu-empty-hyp", "gleu-empty-ref", "wer-empty-ref"],
    )
    def test_empty_line_names_file_and_line(
        self, capsys, tmp_path, metric, hyp_text, ref_text, bad_file, message
    ):
        hyp = write(tmp_path / "hyp.txt", hyp_text)
        ref = write(tmp_path / "ref.txt", ref_text)
        code, out, err = run(
            capsys, "score", "--hyp", str(hyp), "--ref", str(ref), "--metric", metric
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"error: {tmp_path / bad_file}.txt {message}"

    @pytest.mark.parametrize(
        "metric, expected", [("bleu", "bleu\t0.7788"), ("wer", "wer\t0.2000")], ids=["bleu", "wer"]
    )
    def test_empty_hypothesis_line_still_scores(self, capsys, tmp_path, metric, expected):
        hyp = write(tmp_path / "hyp.txt", "a b\n\nc d\n")
        ref = write(tmp_path / "ref.txt", "a b\nx\nc d\n")
        code, out, _ = run(
            capsys, "score", "--hyp", str(hyp), "--ref", str(ref), "--metric", metric
        )
        assert code == 0
        assert out.splitlines()[0] == expected

    def test_two_empty_files_are_named(self, capsys, tmp_path):
        hyp = write(tmp_path / "hyp.txt", "")
        ref = write(tmp_path / "ref.txt", "")
        code, out, err = run(
            capsys, "score", "--hyp", str(hyp), "--ref", str(ref), "--metric", "bleu"
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"error: nothing to score: {hyp} and {ref} are both empty"
        )

    def test_invalid_utf8_names_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a b\n\xffc d\n")
        code, out, err = run(
            capsys, "score", "--hyp", str(bad), "--ref", str(bad), "--metric", "bleu"
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"error: {bad} line 2: invalid UTF-8 byte 0xff at column 1 (invalid start byte)"
        )


class TestAlign:
    def test_writes_alignments_and_table(self, capsys, tmp_path, fixtures):
        out = tmp_path / "tiny.align"
        table = tmp_path / "table.tsv"
        code, _, _ = run(
            capsys,
            "align",
            "--src", str(fixtures / "tiny.en"),
            "--tgt", str(fixtures / "tiny.es"),
            "--iterations", "5",
            "--out", str(out),
            "--table-out", str(table),
        )
        assert code == 0
        align_lines = read_lines(out)
        assert len(align_lines) == 20
        first = read_lines(table)[0].split("\t")
        assert first[0] == "<NULL>"
        assert 0.0 <= float(first[2]) <= 1.0

    def test_two_empty_files_are_named(self, capsys, tmp_path):
        src = write(tmp_path / "c.src", "")
        tgt = write(tmp_path / "c.tgt", "")
        out = tmp_path / "c.align"
        code, stdout, err = run(
            capsys, "align", "--src", str(src), "--tgt", str(tgt), "--out", str(out)
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines()[-1] == f"error: nothing to align: {src} and {tgt} are both empty"
        assert not out.exists()


class TestGenPartialAndMix:
    def test_ratio_generation_and_mixing(self, capsys, tmp_path, fixtures):
        prefix = tmp_path / "partial"
        code, _, _ = run(
            capsys,
            "gen-partial",
            "--src", str(fixtures / "tiny.en"),
            "--tgt", str(fixtures / "tiny.es"),
            "--method", "ratio",
            "--out-prefix", str(prefix),
        )
        assert code == 0
        src_lines = read_lines(f"{prefix}.src")
        manifest = read_lines(f"{prefix}.manifest.tsv")
        assert manifest[0] == "parent_id\ti\tj\tmethod"
        assert len(src_lines) == len(manifest) - 1

        out = tmp_path / "mixed"
        code, _, _ = run(
            capsys,
            "mix",
            "--full-src", str(fixtures / "tiny.en"),
            "--full-tgt", str(fixtures / "tiny.es"),
            "--partial-src", f"{prefix}.src",
            "--partial-tgt", f"{prefix}.tgt",
            "--out-prefix", str(out),
            "--seed", "17",
        )
        assert code == 0
        mixed_src = read_lines(f"{out}.src")
        assert len(mixed_src) == 40
        keys = dict(
            line.split(": ", 1) for line in read_lines(f"{out}.manifest.txt")
        )
        assert keys["full_count"] == "20"
        assert keys["partial_sampled"] == "20"
        assert keys["output_size"] == "40"
        assert keys["seed"] == "17"


def prefix_rows(n: int) -> tuple[list[str], list[str]]:
    """n prefix rows of 1 to 6 tokens; every fourth target is empty."""
    src = [" ".join(f"w{(k + t) % 9}" for t in range(1 + k % 6)) for k in range(n)]
    return src, ["" if k % 4 == 0 else f"v{k % 7} v{k % 5}" for k in range(n)]


def eager_mix(full: tuple[Path, Path], partial: tuple[Path, Path], seed: int) -> tuple[bytes, ...]:
    """The bytes of mix's two outputs, with every prefix line read into memory first."""
    src, tgt = map(read_lines, partial)
    rows = read_partial(src, tgt, what=(str(partial[0]), str(partial[1])))
    mixed, _ = mix(load_corpus(*full), rows, seed)
    return tuple("".join(line + "\n" for line in side).encode() for side in corpus_lines(mixed))


class TestMixReadsPrefixFilesTwice:
    """mix counts and checks the prefix files, then rereads them for the sampled rows."""

    def files(self, tmp_path: Path, src: bytes, tgt: bytes) -> list[str]:
        full = (write(tmp_path / "full.src", "a b\nc\nd e f\n"),
                write(tmp_path / "full.tgt", "x\ny z\nw\n"))
        (tmp_path / "p.src").write_bytes(src)
        (tmp_path / "p.tgt").write_bytes(tgt)
        self.full, self.partial = full, (tmp_path / "p.src", tmp_path / "p.tgt")
        return ["mix", "--full-src", str(full[0]), "--full-tgt", str(full[1]),
                "--partial-src", str(self.partial[0]), "--partial-tgt", str(self.partial[1]),
                "--out-prefix", str(tmp_path / "m"), "--seed", "5"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("last_newline", [True, False], ids=["ended", "open"])
    def test_same_bytes_as_the_eager_read(self, capsys, tmp_path, newline, last_newline):
        src, tgt = prefix_rows(50)
        data = ["".join(line + newline for line in side).encode() for side in (src, tgt)]
        if not last_newline:
            data = [d[: -len(newline)] for d in data]
        code, _, _ = run(capsys, *self.files(tmp_path, *data))
        assert code == 0
        outputs = ((tmp_path / "m.src").read_bytes(), (tmp_path / "m.tgt").read_bytes())
        assert outputs == eager_mix(self.full, self.partial, 5)
        assert b"\r" not in b"".join(outputs)
        lf = ["".join(line + "\n" for line in side).encode() for side in (src, tgt)]
        (tmp_path / "p.src").write_bytes(lf[0])
        (tmp_path / "p.tgt").write_bytes(lf[1])
        assert outputs == eager_mix(self.full, self.partial, 5)

    def assert_same_error(self, capsys, argv, expected: str) -> None:
        with pytest.raises(DataError) as eager:
            eager_mix(self.full, self.partial, 5)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"error: {eager.value}" == f"error: {expected}"
        assert not list(self.partial[0].parent.glob("m.*"))

    def test_invalid_utf8_in_an_unsampled_target_line(self, capsys, tmp_path):
        # The bad line is the last; mix draws 3 of the 20,000 rows, and the
        # last of them lies about 200 KB before it, so reading the sampled
        # rows alone would never reach it.
        src, _ = prefix_rows(20_000)
        tgt = [f"v{k % 7} " + "x" * 80 for k in range(20_000)]
        assert max(random.Random(5).sample(range(20_000), 3)) < 17_500  # mix's draw
        tgt[-1] = "v\udcff"
        data = ["".join(line + "\n" for line in side) for side in (src, tgt)]
        argv = self.files(tmp_path, data[0].encode(), data[1].encode("utf-8", "surrogateescape"))
        expected = (
            f"{self.partial[1]} line 20000: invalid UTF-8 byte 0xff at column 2 "
            "(invalid start byte)"
        )
        self.assert_same_error(capsys, argv, expected)

    @pytest.mark.parametrize(
        "blank", ["\r", "\u3000", "\x85", " \t"], ids=["cr", "u3000", "nel", "spaces"]
    )
    def test_blank_source_line(self, capsys, tmp_path, blank):
        src, tgt = prefix_rows(50)
        src[37] = blank
        data = ["".join(line + "\r\n" for line in side).encode() for side in (src, tgt)]
        argv = self.files(tmp_path, *data)
        self.assert_same_error(capsys, argv, f"{self.partial[0]} line 38: empty sentence")

    def test_count_mismatch_names_both_files(self, capsys, tmp_path):
        src, tgt = prefix_rows(50)
        data = ["".join(line + "\n" for line in side).encode() for side in (src, tgt[:49])]
        argv = self.files(tmp_path, *data)
        expected = f"{self.partial[1]} has 49 lines but {self.partial[0]} has 50"
        self.assert_same_error(capsys, argv, expected)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_decode_error_in_the_pick_pass_closes_both_files(self, capsys, tmp_path, monkeypatch):
        src, tgt = prefix_rows(50)
        data = ["".join(line + "\n" for line in side).encode() for side in (src, tgt)]
        argv = self.files(tmp_path, *data)
        checked = partials.read_partial

        def read_then_spoil(*args, **kwargs):
            # The files pass the first pass; then line 1 of the target goes bad.
            rows = checked(*args, **kwargs)
            self.partial[1].write_bytes(b"\xff" + data[1])
            return rows

        monkeypatch.setattr(partials, "read_partial", read_then_spoil)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"error: {self.partial[1]} line 1: invalid UTF-8 byte 0xff at column 1 "
            "(invalid start byte)"
        )
        assert not list(tmp_path.glob("m.*"))
        open_files = {os.path.realpath(f"/proc/self/fd/{fd}") for fd in os.listdir("/proc/self/fd")}
        assert not open_files & {os.path.realpath(path) for path in self.partial}


class TestReseg:
    def test_segments_match_reference_count(self, capsys, tmp_path, fixtures):
        out = tmp_path / "segments.txt"
        code, _, _ = run(
            capsys,
            "reseg",
            "--hyp-stream", str(fixtures / "tiny.hyp.es"),
            "--refs", str(fixtures / "tiny.es"),
            "--out", str(out),
        )
        assert code == 0
        segments = Path(out).read_text(encoding="utf-8").splitlines()
        assert len(segments) == 20

    def test_empty_refs_names_the_file(self, capsys, tmp_path, fixtures):
        refs = write(tmp_path / "refs.txt", "")
        out = tmp_path / "segments.txt"
        code, stdout, err = run(
            capsys,
            "reseg",
            "--hyp-stream", str(fixtures / "tiny.hyp.es"),
            "--refs", str(refs),
            "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines()[-1] == f"error: {refs}: need at least one reference segment"
        assert not out.exists()


class TestSimulate:
    def test_dict_translator_full_report(self, capsys, tmp_path, fixtures):
        log = tmp_path / "log.jsonl"
        report = tmp_path / "report.txt"
        code, out, _ = run(
            capsys,
            "simulate",
            "--events", str(fixtures / "tiny.events.jsonl"),
            "--translator", f"dict:{fixtures / 'tiny.lexicon.tsv'}",
            "--refs", str(fixtures / "tiny.refs.txt"),
            "--log-out", str(log),
            "--report-out", str(report),
        )
        assert code == 0
        report_lines = read_lines(report)
        assert report_lines == out.splitlines()
        keys = dict(line.split(": ", 1) for line in report_lines)
        assert set(keys) == {"bleu", "word_up", "mssg_up", "updates_total"}
        assert keys["updates_total"] == "5"
        # The word-by-word translator never retracts words on extends, and
        # the replace-style streams here are consistent extensions too.
        assert keys["word_up"] == "0"
        log_lines = read_lines(log)
        assert len(log_lines) == 8

    def test_identity_translator_without_refs(self, capsys, tmp_path, fixtures):
        code, out, _ = run(
            capsys,
            "simulate",
            "--events", str(fixtures / "tiny.events.jsonl"),
            "--translator", "identity",
        )
        assert code == 0
        keys = dict(line.split(": ", 1) for line in out.splitlines())
        assert set(keys) == {"word_up", "mssg_up", "updates_total"}

    def test_scripted_translator_replay_fixture(self, capsys, tmp_path, fixtures):
        report = tmp_path / "report.txt"
        code, _, _ = run(
            capsys,
            "simulate",
            "--events", str(fixtures / "replay.events.jsonl"),
            "--translator", f"script:{fixtures / 'replay.baseline.tsv'}",
            "--report-out", str(report),
        )
        assert code == 0
        keys = dict(line.split(": ", 1) for line in read_lines(report))
        assert keys["word_up"] == "18"
        assert keys["mssg_up"] == "6"

    def test_empty_events_without_refs_reports_zeros(self, capsys, tmp_path):
        events = write(tmp_path / "events.jsonl", "")
        code, out, _ = run(
            capsys, "simulate", "--events", str(events), "--translator", "identity"
        )
        assert code == 0
        assert out.splitlines() == ["word_up: 0", "mssg_up: 0", "updates_total: 0"]

    def test_empty_events_with_refs_is_data_error(self, capsys, tmp_path, fixtures):
        # The child would create `started`: the empty events file is caught first.
        events, started = write(tmp_path / "events.jsonl", ""), tmp_path / "started"
        code, out, err = run(
            capsys,
            "simulate",
            "--events", str(events),
            "--translator", _cmd_spec(f"open({str(started)!r}, 'w')"),
            "--refs", str(fixtures / "tiny.refs.txt"),
        )
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            f"error: {events}: need at least one event when --refs is given"
        )
        assert not started.exists()

    def test_script_key_with_inner_spaces_matches(self, capsys, tmp_path):
        events = write(
            tmp_path / "events.jsonl", '{"utterance_id": 0, "kind": "replace", "text": "i encourage"}\n'
        )
        script = write(tmp_path / "script.tsv", "i  encourage\tyo animo\n")
        log = tmp_path / "log.jsonl"
        code, _, _ = run(
            capsys,
            "simulate",
            "--events", str(events),
            "--translator", f"script:{script}",
            "--log-out", str(log),
        )
        assert code == 0
        assert json.loads(read_lines(log)[0])["translation"] == "yo animo"

    @pytest.mark.parametrize("refs_text", [None, ""], ids=["missing", "empty"])
    def test_refs_checked_before_the_translator_starts(self, capsys, tmp_path, fixtures, refs_text):
        refs = tmp_path / "refs.txt"
        if refs_text is not None:
            write(refs, refs_text)
        started = tmp_path / "started"
        log = tmp_path / "log.jsonl"
        child = (
            "import sys\n"
            f"open({str(started)!r}, 'w').close()\n"
            "for line in sys.stdin: print(line.rstrip(), flush=True)"
        )
        code, out, err = run(
            capsys,
            "simulate",
            "--events", str(fixtures / "tiny.events.jsonl"),
            "--translator", _cmd_spec(child),
            "--timeout", "10",
            "--refs", str(refs),
            "--log-out", str(log),
        )
        assert (code, out) == (2, "")
        if refs_text is None:
            assert str(refs) in err.splitlines()[-1]
        else:
            assert err.splitlines()[-1] == f"error: {refs}: need at least one reference segment"
        assert not started.exists()
        assert not log.exists()

    def test_word_to_word_lexicon_enforced(self, capsys, tmp_path, fixtures):
        bad = write(tmp_path / "bad.tsv", "source\ttwo words\n")
        code, _, err = run(
            capsys,
            "simulate",
            "--events", str(fixtures / "tiny.events.jsonl"),
            "--translator", f"dict:{bad}",
        )
        assert code == 2
        assert "word-to-word" in err

    def test_bad_events_line_names_file_and_line(self, capsys, tmp_path):
        events = write(
            tmp_path / "bad.jsonl", '{"utterance_id": 0, "kind": "replace", "text": "a"}\nnot json\n'
        )
        code, out, err = run(
            capsys, "simulate", "--events", str(events), "--translator", "identity"
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"error: {events} line 2: invalid JSON: Expecting value: line 1 column 1 (char 0)"
        )

    def test_empty_replace_event_names_file_and_line(self, capsys, tmp_path):
        events = write(
            tmp_path / "ev.jsonl",
            '{"utterance_id": 0, "kind": "replace", "text": "a"}\n'
            '{"utterance_id": 0, "kind": "replace", "text": "  "}\n',
        )
        code, out, err = run(
            capsys, "simulate", "--events", str(events), "--translator", "identity"
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"error: {events} line 2: replace event for utterance 0 has no tokens"
        )

    @pytest.mark.parametrize("kind", ["dict", "script"])
    def test_bad_tsv_line_names_file_and_line(self, capsys, tmp_path, fixtures, kind):
        bad = write(tmp_path / "bad.tsv", "a\tb\nno tab here\n")
        code, out, err = run(
            capsys,
            "simulate",
            "--events", str(fixtures / "tiny.events.jsonl"),
            "--translator", f"{kind}:{bad}",
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"error: {bad} line 2: expected 'source<TAB>target'"

    def test_multiword_lexicon_entry_names_file_and_line(self, capsys, tmp_path, fixtures):
        bad = write(tmp_path / "bad.tsv", "a\tb\n\nsource\ttwo words\n")
        code, out, err = run(
            capsys,
            "simulate",
            "--events", str(fixtures / "tiny.events.jsonl"),
            "--translator", f"dict:{bad}",
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"error: {bad} line 3: lexicon entry 'source' -> 'two words' is not word-to-word"
        )


def test_determinism_across_runs(capsys, tmp_path, fixtures):
    outputs = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        code, _, _ = run(
            capsys,
            "gen-partial",
            "--src", str(fixtures / "tiny.en"),
            "--tgt", str(fixtures / "tiny.es"),
            "--method", "ratio",
            "--out-prefix", str(d / "p"),
        )
        assert code == 0
        code, _, _ = run(
            capsys,
            "mix",
            "--full-src", str(fixtures / "tiny.en"),
            "--full-tgt", str(fixtures / "tiny.es"),
            "--partial-src", str(d / "p.src"),
            "--partial-tgt", str(d / "p.tgt"),
            "--out-prefix", str(d / "m"),
            "--seed", "99",
        )
        assert code == 0
        outputs.append(
            [(d / name).read_bytes() for name in ("m.src", "m.tgt", "m.manifest.txt")]
        )
    assert outputs[0] == outputs[1]


def _cmd_spec(code: str) -> str:
    return f"cmd:{shlex.quote(sys.executable)} -u -c {shlex.quote(code)}"


class TestSimulateCommandFaults:
    def test_child_exiting_after_first_line(self, capsys, tmp_path):
        events = write(
            tmp_path / "events.jsonl",
            '{"utterance_id": 0, "kind": "replace", "text": "a"}\n'
            '{"utterance_id": 0, "kind": "extend", "text": "b"}\n',
        )
        child = "import sys\nprint(sys.stdin.readline().rstrip(), flush=True)"
        code, out, err = run(
            capsys, "simulate", "--events", str(events),
            "--translator", _cmd_spec(child), "--timeout", "10",
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(
            "error: translator failed on utterance 0, step 1"
        )

    def test_child_terminated_when_events_are_out_of_order(self, capsys, tmp_path):
        events = write(
            tmp_path / "events.jsonl",
            '{"utterance_id": 0, "kind": "replace", "text": "a"}\n'
            '{"utterance_id": 1, "kind": "replace", "text": "b"}\n'
            '{"utterance_id": 0, "kind": "extend", "text": "c"}\n',
        )
        pid_file = tmp_path / "child.pid"
        child = (
            "import os, sys\n"
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "for line in sys.stdin: print(line.rstrip(), flush=True)"
        )
        code, out, err = run(
            capsys, "simulate", "--events", str(events),
            "--translator", _cmd_spec(child), "--timeout", "10",
        )
        pid = int(pid_file.read_text())
        try:
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == (
                f"error: {events}: utterance 0 reappears after other events"
            )
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)

    def test_child_that_reads_all_input_before_answering(self, capsys, tmp_path):
        # The input is closed after the last source, so a batching child sees
        # its end and answers; the log equals the identity translator's.
        events = write(tmp_path / "events.jsonl", _EIGHT_EVENTS)
        child = "import sys\nfor line in sys.stdin.readlines(): print(line.rstrip('\\n'))"
        logs = []
        for name, spec in (("identity", "identity"), ("batch", _cmd_spec(child))):
            log = tmp_path / f"{name}.jsonl"
            code, _, err = run(
                capsys, "simulate", "--events", str(events), "--translator", spec,
                "--timeout", "10", "--log-out", str(log),
            )
            assert code == 0, err
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]

    def test_extra_output_after_the_last_reply_fails_the_run(self, capsys, tmp_path):
        # The extra line comes late, so every later reply is shifted by one;
        # the last reply then runs past the end of the session.
        events = write(tmp_path / "events.jsonl", _EIGHT_EVENTS)
        child = (
            "import sys, time\n"
            "for k, line in enumerate(sys.stdin):\n"
            "    time.sleep(0.05 if k > 3 else 0)\n"
            "    print(line.rstrip(), flush=True)\n"
            "    if k == 3:\n"
            "        time.sleep(0.2)\n"
            "        print('EXTRA', flush=True)"
        )
        log = tmp_path / "log.jsonl"
        code, out, err = run(
            capsys, "simulate", "--events", str(events), "--translator", _cmd_spec(child),
            "--timeout", "10", "--log-out", str(log),
        )
        assert (code, out) == (2, "")
        last = err.splitlines()[-1]
        assert last.startswith("error: translator failed on utterance 1, step 3: ")
        assert "output ran past the last reply" in last
        assert not log.exists()

    def test_output_that_never_ends_fails_the_run(self, capsys, tmp_path):
        # Every reply comes, but the child ignores the end of its input and
        # keeps its output open, so the end-of-output wait times out.
        events = write(tmp_path / "events.jsonl", _EIGHT_EVENTS)
        child = (
            "import sys, time\n"
            "for line in sys.stdin: print(line.rstrip(), flush=True)\n"
            "time.sleep(60)"
        )
        log = tmp_path / "log.jsonl"
        start = time.monotonic()
        code, out, err = run(
            capsys, "simulate", "--events", str(events), "--translator", _cmd_spec(child),
            "--timeout", "2", "--log-out", str(log),
        )
        assert time.monotonic() - start < 4
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "error: translator failed on utterance 1, step 3: "
            "translator output did not end within 2.0s of its input closing"
        )
        assert not log.exists()

    def test_grandchild_holding_the_output_does_not_hold_up_the_run(self, capsys, tmp_path):
        events = write(tmp_path / "events.jsonl", _EIGHT_EVENTS)
        pid_file = tmp_path / "grandchild.pid"
        child = (
            "import subprocess, sys\n"
            "sleeper = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
            f"open({str(pid_file)!r}, 'w').write(str(sleeper.pid))\n"
            "for line in sys.stdin: print(line.rstrip(), flush=True)"
        )
        start = time.monotonic()
        try:
            code, _, err = run(
                capsys, "simulate", "--events", str(events), "--translator", _cmd_spec(child),
                "--timeout", "10",
            )
            assert time.monotonic() - start < 5
            assert code == 0, err
        finally:
            with contextlib.suppress(FileNotFoundError, ProcessLookupError):
                os.kill(int(pid_file.read_text()), signal.SIGKILL)

    def test_child_stderr_is_shown_and_its_tail_ends_the_error(self, capsys, tmp_path):
        events = write(tmp_path / "events.jsonl", _EIGHT_EVENTS)
        child = (
            "import sys\n"
            "sys.stderr.write('x' * 5000 + 'model failed to load\\n')\n"
            "sys.exit(3)"
        )
        code, _, err = run(
            capsys, "simulate", "--events", str(events), "--translator", _cmd_spec(child),
            "--timeout", "10",
        )
        assert code == 2
        assert "x" * 5000 + "model failed to load\n" in err
        last = err.splitlines()[-1]
        assert last.startswith("error: translator failed on utterance 0, step 0: ")
        assert last.endswith("model failed to load\\n'")
        assert "x" * 2100 not in last


_EIGHT_EVENTS = "".join(
    json.dumps({"utterance_id": u, "kind": kind, "text": text}) + "\n"
    for u, kind, text in [
        (0, "replace", "a"), (0, "extend", "b c"), (0, "replace", "d"), (0, "extend", "e"),
        (1, "replace", "f"), (1, "extend", "g"), (1, "replace", "h i"), (1, "extend", "j"),
    ]
)


# Pieces of hostile input files: line ends of every kind, NUL, blanks that
# str.split() splits on, invalid UTF-8, stray alignment tokens and JSON.
HOSTILE_PIECES = [
    b"a", b"b c", b" ", b"\t", b"\n", b"\r\n", b"\r", b"\x00", b"\x0c", b"\x0b",
    "\x85".encode(), "\u3000".encode(), "\u2028".encode(), b"\xff", b"\xc3", b"\xef\xbb\xbf",
    b"0-0", b"1-0", b"0-1", b"9-9", b"0-", b"-1-0", b"x-y", b"1:2",
    b'{"utterance_id": 0, "kind": "extend", "text": "a b"}',
    b'{"utterance_id": 1, "kind": "replace", "text": "c"}',
    b'{"utterance_id": 0, "kind": "replace", "text": " "}',
    b'{"utterance_id": "0", "kind": "extend", "text": "a"}',
    b"{", b"[]", b"null", b"a\tb",
]
hostile_file_st = st.lists(st.sampled_from(HOSTILE_PIECES), max_size=12).map(b"".join)

# Each run's arguments; {0} to {3} are its input files, {out} its output prefix.
HOSTILE_RUNS = {
    "align": ["align", "--src", "{0}", "--tgt", "{1}", "--iterations", "2", "--out", "{out}"],
    "gen-partial-ratio": [
        "gen-partial", "--src", "{0}", "--tgt", "{1}", "--method", "ratio", "--out-prefix", "{out}",
    ],
    "gen-partial-alignment": [
        "gen-partial", "--src", "{0}", "--tgt", "{1}", "--method", "alignment",
        "--alignments", "{2}", "--min-i", "2", "--out-prefix", "{out}",
    ],
    "mix": [
        "mix", "--full-src", "{0}", "--full-tgt", "{1}", "--partial-src", "{2}",
        "--partial-tgt", "{3}", "--out-prefix", "{out}",
    ],
    "score-bleu": ["score", "--hyp", "{0}", "--ref", "{1}", "--metric", "bleu"],
    "score-gleu": ["score", "--hyp", "{0}", "--ref", "{1}", "--metric", "gleu"],
    "score-wer": ["score", "--hyp", "{0}", "--ref", "{1}", "--metric", "wer"],
    "reseg": ["reseg", "--hyp-stream", "{0}", "--refs", "{1}", "--out", "{out}"],
    "simulate": ["simulate", "--events", "{0}", "--translator", "identity", "--log-out", "{out}"],
    "simulate-refs": [
        "simulate", "--events", "{0}", "--translator", "identity", "--refs", "{1}",
        "--report-out", "{out}",
    ],
}


@pytest.mark.parametrize("name", list(HOSTILE_RUNS))
@given(files=st.lists(hostile_file_st, min_size=4, max_size=4))
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
def test_hostile_input_exits_cleanly_and_names_an_input(name, files):
    """Any input files give exit 0, 1 or 2, and every data error names an input path."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs = [Path(tmp, f"in{k}.txt") for k in range(len(files))]
        for path, data in zip(inputs, files):
            path.write_bytes(data)
        argv = [a.format(*inputs, out=Path(tmp, "out")) for a in HOSTILE_RUNS[name]]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        named = [str(path) for path in inputs if str(path) in argv]
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        assert errors
        for line in errors:
            assert any(path in line for path in named), line
