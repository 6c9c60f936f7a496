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

from retrans import partials, session
from retrans.cli import build_parser, main
from retrans.corpus import detokenize, load_corpus, read_lines
from retrans.errors import DataError
from retrans.mixing import mix
from retrans.partials import read_partial

from oracles import (
    bleu_reference,
    em_reference,
    file_lines_reference,
    gleu_reference,
    left_sum,
    levenshtein_full,
    prefix_len_bruteforce,
    ratio_len_reference,
    resegment_dp,
    table_dump_reference,
    viterbi_reference,
)


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

    def test_gen_partial_empty_alignments_path(self, capsys, tmp_path, fixtures):
        code, _, err = run(
            capsys,
            "gen-partial",
            "--src", str(fixtures / "tiny.en"),
            "--tgt", str(fixtures / "tiny.es"),
            "--method", "alignment",
            "--alignments", "",
            "--out-prefix", str(tmp_path / "p"),
        )
        assert code == 1
        assert err.endswith("error: --alignments is required with --method alignment\n")

    @pytest.mark.parametrize("command", ["gen-partial", "mix"])
    @pytest.mark.parametrize("inputs", ["present", "missing"])
    def test_an_empty_out_prefix_is_refused_before_any_input_is_read(
        self, capsys, tmp_path, monkeypatch, fixtures, command, inputs
    ):
        # An empty prefix would write .src, .tgt and a manifest into the working directory.
        monkeypatch.chdir(tmp_path)
        en, es = (fixtures / "tiny.en", fixtures / "tiny.es") if inputs == "present" else ("x", "y")
        sides = {
            "gen-partial": ["--src", en, "--tgt", es, "--method", "ratio"],
            "mix": ["--full-src", en, "--full-tgt", es, "--partial-src", en, "--partial-tgt", es],
        }
        code, _, err = run(capsys, command, *map(str, sides[command]), "--out-prefix", "")
        assert code == 1
        assert "usage:" in err
        assert err.endswith("error: --out-prefix must not be empty\n")
        assert list(tmp_path.iterdir()) == []

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
    "                           [--alignments ALIGNMENTS] --out-prefix OUT_PREFIX\n"
)
_SCORE_USAGE = (
    "usage: retrans score [-h] [--seed SEED] [-v] --hyp HYP --ref REF --metric\n"
    "                     {bleu,gleu,wer} [--smooth]\n"
)
_SIMULATE_USAGE = (
    "usage: retrans simulate [-h] [--seed SEED] [-v] --events EVENTS --translator\n"
    "                        TRANSLATOR [--refs REFS] [--log-out LOG_OUT]\n"
    "                        [--report-out REPORT_OUT] [--timeout TIMEOUT]\n"
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

    def test_gen_partial_has_no_min_i(self, capsys, tmp_path, fixtures):
        src, tgt, prefix = fixtures / "tiny.en", fixtures / "tiny.es", tmp_path / "p"
        code, stdout, err = run(
            capsys, "gen-partial", "--src", str(src), "--tgt", str(tgt),
            "--method", "ratio", "--min-i", "2", "--out-prefix", str(prefix),
        )
        assert (code, stdout) == (1, "")
        # argparse reports an unknown option with the top-level usage, before any echo.
        assert err == "usage: retrans [-h] COMMAND ...\nerror: unrecognized arguments: --min-i 2\n"
        assert not list(tmp_path.glob("p*"))

    def test_gen_partial_alignment_without_alignments(self, capsys, tmp_path, fixtures):
        src, tgt, prefix = fixtures / "tiny.en", fixtures / "tiny.es", tmp_path / "p"
        code, stdout, err = run(
            capsys, "gen-partial", "--src", str(src), "--tgt", str(tgt),
            "--method", "alignment", "--out-prefix", str(prefix),
        )
        assert (code, stdout) == (1, "")
        assert err == (
            f"config: command=gen-partial seed=17 verbose=0 method=alignment "
            f"out_prefix={prefix} src={src} tgt={tgt}\n"
            + _GEN_PARTIAL_USAGE
            + "error: --alignments is required with --method alignment\n"
        )

    def test_gen_partial_ratio_with_alignments(self, capsys, tmp_path, fixtures):
        src, tgt, prefix = fixtures / "tiny.en", fixtures / "tiny.es", tmp_path / "p"
        alignments = write(tmp_path / "a.align", "0-0\n" * 20)
        code, stdout, err = run(
            capsys, "gen-partial", "--src", str(src), "--tgt", str(tgt),
            "--method", "ratio", "--alignments", str(alignments), "--out-prefix", str(prefix),
        )
        assert (code, stdout) == (1, "")
        assert err == (
            f"config: command=gen-partial seed=17 verbose=0 alignments={alignments} "
            f"method=ratio out_prefix={prefix} src={src} tgt={tgt}\n"
            + _GEN_PARTIAL_USAGE
            + "error: --alignments is only used with --method alignment\n"
        )
        assert not list(tmp_path.glob("p*"))

    @pytest.mark.parametrize("metric", ["gleu", "wer"])
    def test_score_smooth_without_bleu(self, capsys, fixtures, metric):
        hyp, ref = fixtures / "tiny.hyp.es", fixtures / "tiny.es"
        code, stdout, err = run(
            capsys, "score", "--hyp", str(hyp), "--ref", str(ref), "--metric", metric, "--smooth"
        )
        assert (code, stdout) == (1, "")
        assert err == (
            f"config: command=score seed=17 verbose=0 hyp={hyp} metric={metric} ref={ref} "
            "smooth=True\n"
            + _SCORE_USAGE
            + "error: --smooth is only used with --metric bleu\n"
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
            + _SIMULATE_USAGE
            + "error: dict translator needs a file: dict:FILE\n"
        )

    @pytest.mark.parametrize(
        "translator, message",
        [("cmd:   ", 'cmd translator needs a command: cmd:"..."'),
         ("identity:whatever", "unknown translator 'identity:whatever'"),
         ('cmd:"unclosed', """--translator 'cmd:"unclosed': No closing quotation"""),
         ("script:", "script translator needs a file: script:FILE")],
        ids=["blank-cmd", "identity-suffix", "unclosed-quote", "script-without-file"],
    )
    def test_translator_spec_refused(self, capsys, fixtures, translator, message):
        events = fixtures / "tiny.events.jsonl"
        code, stdout, err = run(
            capsys, "simulate", "--events", str(events), "--translator", translator
        )
        assert (code, stdout) == (1, "")
        assert err == (
            f"config: command=simulate seed=17 verbose=0 events={events} "
            f"timeout=30.0 translator={translator}\n"
            + _SIMULATE_USAGE
            + f"error: {message}\n"
        )

    def test_translator_spec_refused_before_the_events_are_read(self, capsys, tmp_path):
        events = tmp_path / "missing.jsonl"
        code, stdout, err = run(
            capsys, "simulate", "--events", str(events), "--translator", "bogus"
        )
        assert (code, stdout) == (1, "")
        assert err.endswith(_SIMULATE_USAGE + "error: unknown translator 'bogus'\n")

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
    assert tuple(method.choices) == partials.METHODS


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

    def test_a_blank_extend_is_named_once_by_its_events_line(self, fresh_python, tmp_path):
        blank = '{"utterance_id": 0, "kind": "extend", "text": " "}'
        replace = '{"utterance_id": 0, "kind": "replace", "text": "a"}'
        events = write(tmp_path / "e.jsonl", f"{replace}\n\n{blank}\n")
        proc = fresh_python(
            "-m", "retrans.cli", "simulate", "--events", str(events), "--translator", "identity"
        )
        assert (proc.returncode, proc.stdout) == (0, "word_up: 0\nmssg_up: 0\nupdates_total: 1\n")
        # Python prints the warning's line of the events file under it.
        assert proc.stderr == (
            f"config: command=simulate seed=17 verbose=0 events={events} timeout=30.0 "
            "translator=identity\n"
            f"{events}:3: NoOpEventWarning: extend event with empty text on utterance 0\n"
            f"  {blank}\n"
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

    def test_a_digit_run_past_ints_limit_names_file_and_line(self, capsys, tmp_path):
        # int() refuses a run of more than 4,300 digits, even of zeros.
        src, tgt = write(tmp_path / "c.src", "a\nb c\n"), write(tmp_path / "c.tgt", "x\ny\n")
        token = "0-" + "0" * 5000
        alignments = write(tmp_path / "c.align", f"0-0\n{token}\n")
        code, out, err = run(
            capsys, "gen-partial", "--src", str(src), "--tgt", str(tgt), "--method", "alignment",
            "--alignments", str(alignments), "--out-prefix", str(tmp_path / "p"),
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"error: {alignments} line 2: bad alignment token {token!r}: "
            "index out of range for lengths (2,1)"
        )


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

    def test_an_empty_table_out_path_cannot_be_opened(self, capsys, tmp_path, fixtures):
        code, stdout, err = run(
            capsys,
            "align",
            "--src", str(fixtures / "tiny.en"),
            "--tgt", str(fixtures / "tiny.es"),
            "--out", str(tmp_path / "tiny.align"),
            "--table-out", "",
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines()[-1] == "error: [Errno 2] No such file or directory: ''"


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
    sides = ([p.source for p in mixed], [p.target for p in mixed])
    return tuple("".join(detokenize(t) + "\n" for t in side).encode() for side in sides)


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

    @pytest.mark.parametrize(
        "events, translator",
        [("tiny.events.jsonl", "dict:tiny.lexicon.tsv"), ("replay.events.jsonl", "script:replay.baseline.tsv")],
        ids=["dict", "script"],
    )
    def test_the_log_is_session_log_lines(self, capsys, tmp_path, fixtures, events, translator):
        log = tmp_path / "log.jsonl"
        name, _, table = translator.partition(":")
        code, _, _ = run(
            capsys,
            "simulate",
            "--events", str(fixtures / events),
            "--translator", f"{name}:{fixtures / table}",
            "--log-out", str(log),
        )
        assert code == 0
        mapping = session.load_tsv_map(read_lines(fixtures / table), what=table)
        build = session.dictionary_translator if name == "dict" else session.scripted_translator
        logs = session.run_session(session.read_events(read_lines(fixtures / events)), build(mapping))
        assert list(session.log_lines(logs)) == read_lines(log)

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

    @pytest.mark.parametrize("option", ["--refs", "--log-out", "--report-out"])
    def test_an_empty_path_cannot_be_opened(self, capsys, tmp_path, fixtures, option):
        # The references are read before the translator starts; the outputs are written after it.
        started = tmp_path / "started"
        child = (
            "import sys\n"
            f"open({str(started)!r}, 'w').close()\n"
            "for line in sys.stdin: print(line.rstrip(), flush=True)"
        )
        code, _, err = run(
            capsys,
            "simulate",
            "--events", str(fixtures / "tiny.events.jsonl"),
            "--translator", _cmd_spec(child),
            "--timeout", "10",
            option, "",
        )
        assert code == 2
        assert err.splitlines()[-1] == "error: [Errno 2] No such file or directory: ''"
        assert started.exists() == (option != "--refs")

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

    def test_a_digit_run_past_ints_limit_names_file_and_line(self, capsys, tmp_path):
        # json.loads raises ValueError, not JSONDecodeError, past int()'s 4,300 digits.
        event = '{"utterance_id": %s, "kind": "replace", "text": "a"}\n'
        events = write(tmp_path / "ev.jsonl", event % 0 + event % ("9" * 5001))
        code, out, err = run(
            capsys, "simulate", "--events", str(events), "--translator", "identity"
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(f"error: {events} line 2: invalid JSON: Exceeds ")

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


    @pytest.mark.parametrize("kind", ["dict", "script"])
    def test_repeated_tsv_source_names_both_lines(self, capsys, tmp_path, fixtures, kind):
        # Before, the later line silently won: the replay said "two".
        bad = write(tmp_path / "bad.tsv", "x\tone\n\nx\ttwo\n")
        code, out, err = run(
            capsys,
            "simulate",
            "--events", str(fixtures / "tiny.events.jsonl"),
            "--translator", f"{kind}:{bad}",
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"error: {bad} line 3: duplicate source 'x' (first on line 1)"

    @pytest.mark.parametrize(
        "data, line",
        [(b"\xef\xbb\xbfhello world\n", 1), (b"a b\n\xef\xbb\xbfhello world\n", 2)],
        ids=["file-start", "later-line"],
    )
    def test_byte_order_mark_in_a_corpus_or_a_lexicon(self, capsys, tmp_path, fixtures, data, line):
        # Before, the mark became part of the first token: the prefix "\ufeffhello".
        src, out = tmp_path / "bom.en", tmp_path / "partial"
        src.write_bytes(data)
        tgt = write(tmp_path / "plain.es", "hola mundo\n" * line)
        code, stdout, err = run(
            capsys, "gen-partial", "--src", str(src), "--tgt", str(tgt),
            "--method", "ratio", "--out-prefix", str(out),
        )
        assert (code, stdout) == (2, "")
        mark = "byte-order mark (U+FEFF) at column 1"
        assert err.splitlines()[-1] == f"error: {src} line {line}: {mark}"
        assert not Path(f"{out}.src").exists()
        # A lexicon saved with a mark never matched its first key.
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_bytes(data.replace(b" ", b"\t"))
        code, stdout, err = run(
            capsys, "simulate", "--events", str(fixtures / "tiny.events.jsonl"),
            "--translator", f"dict:{lexicon}",
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines()[-1] == f"error: {lexicon} line {line}: {mark}"


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
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"error: {events}: utterance 0 reappears after other events"
        )
        assert not pid_file.exists()  # the order is checked before the child would start

    def test_missing_executable_names_the_first_step(self, capsys, tmp_path):
        events, missing = write(tmp_path / "events.jsonl", _EIGHT_EVENTS), tmp_path / "missing"
        code, out, err = run(
            capsys, "simulate", "--events", str(events), "--translator", f"cmd:{missing}"
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "error: translator failed on utterance 0, step 0: "
            f"[Errno 2] No such file or directory: {str(missing)!r}"
        )

    def test_child_exit_status_is_ignored(self, capsys, tmp_path):
        # The child answers every line, then fails on its way out; the replies
        # are all there, so the run reports as the identity translator does.
        events = write(tmp_path / "events.jsonl", _EIGHT_EVENTS)
        child = (
            "import sys\n"
            "for line in sys.stdin: print(line.rstrip(), flush=True)\n"
            "sys.stderr.write('fatal: model crashed on shutdown\\n')\n"
            "sys.exit(3)"
        )
        outs = []
        for spec in ("identity", _cmd_spec(child)):
            code, out, err = run(
                capsys, "simulate", "--events", str(events), "--translator", spec,
                "--timeout", "10",
            )
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]
        assert "fatal: model crashed on shutdown" in err

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
                os.kill(int(pid_file.read_text(encoding="utf-8")), signal.SIGKILL)

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
        "--alignments", "{2}", "--out-prefix", "{out}",
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


# Tokens that repeat, one spelled as the table dump spells the null source, and
# "<null-source>", which must not meet the oracle's null source; blank runs that
# str.split() splits on, U+3000 among them.
WALK_TOKENS = ["a", "b", "a", "dé", "<NULL>", "<null-source>"]
WALK_BLANKS = [" ", "\t", "\u3000", " \u3000\xa0"]


@st.composite
def walk_file_st(draw, lines: int, min_tokens: int) -> bytes:
    """lines lines of tokens with blank runs between and around them, ended by LF or CRLF."""
    text, edges, tokens = "", st.sampled_from(["", *WALK_BLANKS]), []
    for _ in range(lines):
        tokens = draw(st.lists(st.sampled_from(WALK_TOKENS), min_size=min_tokens, max_size=6))
        line = "".join(draw(st.sampled_from(WALK_BLANKS)) + t for t in tokens[1:])
        line = tokens[0] + line if tokens else ""
        text += draw(edges) + line + draw(edges) + draw(st.sampled_from(["\n", "\r\n"]))
    if tokens and draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")  # no line end after the last line
    return text.encode("utf-8")


@st.composite
def walk_inputs_st(draw) -> dict[str, bytes]:
    n = draw(st.integers(1, 5))
    return {
        "c.src": draw(walk_file_st(n, 1)),
        "c.tgt": draw(walk_file_st(n, 1)),
        "refs": draw(walk_file_st(draw(st.integers(1, 4)), 0)),
    }


def oracle_lines(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


@given(walk_inputs_st(), st.integers(1, 3), st.booleans())
@settings(max_examples=120, derandomize=True, database=None, deadline=None)
def test_commands_write_the_oracles_bytes(files, iterations, smooth):
    """align, gen-partial, reseg and score, each output rebuilt from tests/oracles.py alone.

    --alignments and --smooth are passed only where they apply; elsewhere they are refused.
    """
    src, tgt, refs = (
        [line.split() for line in file_lines_reference(files[name])]
        for name in ("c.src", "c.tgt", "refs")
    )
    pairs = list(zip(src, tgt))
    probs = em_reference(pairs, iterations)
    links = [viterbi_reference(probs, s, t) for s, t in pairs]
    expected = {
        "a.out": oracle_lines(" ".join(f"{i - 1}-{j - 1}" for i, j in sorted(ls)) for ls in links),
        "table.tsv": oracle_lines(table_dump_reference(probs)),
    }
    for method in ("ratio", "alignment"):
        rows = [
            (k, i, j, s, t)
            for k, ((s, t), ls) in enumerate(zip(pairs, links))
            for i in range(1, len(s) + 1)
            for j in [
                ratio_len_reference(len(s), i, len(t))
                if method == "ratio"
                else prefix_len_bruteforce(ls, i, len(t))
            ]
        ]
        expected[f"{method}.src"] = oracle_lines(" ".join(s[:i]) for _, i, _, s, _ in rows)
        expected[f"{method}.tgt"] = oracle_lines(" ".join(t[:j]) for _, _, j, _, t in rows)
        expected[f"{method}.manifest.tsv"] = oracle_lines(
            ["parent_id\ti\tj\tmethod", *(f"{k}\t{i}\t{j}\t{method}" for k, i, j, _, _ in rows)]
        )
    stream = [token for line in tgt for token in line]
    expected["reseg.out"] = oracle_lines(" ".join(s) for s in resegment_dp(stream, refs)[0])
    score = bleu_reference(tgt, src, smooth=smooth)
    mean = left_sum(gleu_reference(h, r) for h, r in zip(tgt, src)) / len(src)
    rate = sum(levenshtein_full(h, r) for h, r in zip(tgt, src)) / sum(map(len, src))
    printed = {
        "bleu": f"bleu\t{score:.4f}\nbleu100\t{100 * score:.4f}\n",
        "gleu": f"gleu\t{mean:.4f}\n",
        "wer": f"wer\t{rate:.4f}\n",
    }

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, data in files.items():
            (d / name).write_bytes(data)
        corpus = ["--src", str(d / "c.src"), "--tgt", str(d / "c.tgt")]
        runs = [
            ["align", *corpus, "--iterations", str(iterations), "--out", str(d / "a.out"),
             "--table-out", str(d / "table.tsv")],
            ["gen-partial", *corpus, "--method", "ratio", "--out-prefix", str(d / "ratio")],
            ["gen-partial", *corpus, "--method", "alignment", "--alignments", str(d / "a.out"),
             "--out-prefix", str(d / "alignment")],
            ["reseg", "--hyp-stream", str(d / "c.tgt"), "--refs", str(d / "refs"),
             "--out", str(d / "reseg.out")],
        ]
        score = ["score", "--hyp", str(d / "c.tgt"), "--ref", str(d / "c.src"), "--metric"]
        runs = [(argv, 0, "") for argv in runs] + [
            ([*score, metric, *(["--smooth"] if smooth and metric == "bleu" else [])], 0, text)
            for metric, text in printed.items()
        ]
        refused = [
            ["gen-partial", *corpus, "--method", "ratio", "--alignments", str(d / "a.out"),
             "--out-prefix", str(d / "refused")],
            [*score, "gleu", "--smooth"],
            [*score, "wer", "--smooth"],
        ]
        for argv, code, text in runs + [(argv, 1, "") for argv in refused]:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == code, argv
            assert stdout.getvalue() == text, argv
        for name, data in expected.items():
            assert (d / name).read_bytes() == data, name
        assert not list(d.glob("refused*"))


# Blank runs without a tab, which would end a lexicon line's source side.
TABLESS_BLANKS = [" ", "\u3000", "\xa0"]


@st.composite
def session_inputs_st(draw) -> dict[str, bytes]:
    """Prefix files for mix, grouped update events and a word-to-word lexicon for simulate.

    The texts have walk_file_st's tokens and blank runs; lines end by LF or CRLF.
    """
    m = draw(st.integers(1, 8))
    ends = st.sampled_from(["\n", "\r\n"])
    events = ""
    for utterance_id in draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True)):
        for _ in range(draw(st.integers(1, 4))):
            text = draw(walk_file_st(1, 1)).decode("utf-8").rstrip("\r\n")
            kind = draw(st.sampled_from(["replace", "extend"]))
            event = {"utterance_id": utterance_id, "kind": kind, "text": text}
            events += json.dumps(event, ensure_ascii=draw(st.booleans())) + draw(ends)
            events += draw(st.sampled_from(["", "", *TABLESS_BLANKS])) + draw(ends)
    blank = st.sampled_from(["", *TABLESS_BLANKS])
    words = st.sampled_from([*WALK_TOKENS, "x", "yé"])
    lexicon = "".join(
        draw(blank) + draw(words) + draw(blank) + "\t" + draw(blank) + draw(words) + draw(blank)
        + draw(ends)
        for _ in range(draw(st.integers(0, 4)))
    )
    return {
        "p.src": draw(walk_file_st(m, 1)),
        "p.tgt": draw(walk_file_st(m, 0)),
        "events": events.encode("utf-8"),
        "lexicon": lexicon.encode("utf-8"),
    }


@given(walk_inputs_st(), session_inputs_st(), st.integers(0, 99), st.booleans())
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_mix_and_simulate_write_the_oracles_bytes(files, more, seed, with_refs):
    """mix and simulate --translator dict:, each output rebuilt without the package.

    mix's picks come from random.Random(seed) through the sample and shuffle calls
    that mix makes; simulate's from event application, word-by-word lookup,
    resegment_dp and bleu_reference.
    """
    files = {**files, **more}
    lines = {name: file_lines_reference(data) for name, data in files.items()}
    full = [(s.split(), t.split()) for s, t in zip(lines["c.src"], lines["c.tgt"])]
    partial = [(s.split(), t.split()) for s, t in zip(lines["p.src"], lines["p.tgt"])]
    rng = random.Random(seed)
    sampled = partial
    if len(full) < len(partial):
        sampled = [partial[k] for k in sorted(rng.sample(range(len(partial)), len(full)))]
    rows = full + sampled
    rng.shuffle(rows)
    counts = [("full_count", len(full)), ("partial_total", len(partial)),
              ("partial_sampled", len(sampled)), ("seed", seed), ("output_size", len(rows))]
    expected = {
        "m.src": oracle_lines(" ".join(s) for s, _ in rows),
        "m.tgt": oracle_lines(" ".join(t) for _, t in rows),
        "m.manifest.txt": oracle_lines(f"{k}: {v}" for k, v in counts),
    }

    lexicon, first, repeated = {}, {}, None
    for no, line in enumerate(lines["lexicon"], start=1):
        if line.strip():
            key, value = line.split()
            if key in first and repeated is None:
                repeated = f"line {no}: duplicate source {key!r} (first on line {first[key]})"
            first.setdefault(key, no)
            lexicon[key] = value
    sessions = []  # [utterance id, [(source, translation) per step]]
    for record in (json.loads(line) for line in lines["events"] if line.strip()):
        if not sessions or sessions[-1][0] != record["utterance_id"]:
            sessions.append([record["utterance_id"], []])
            source = []
        words = record["text"].split()
        source = words if record["kind"] == "replace" else source + words
        sessions[-1][1].append((source, [lexicon.get(w, w) for w in source]))
    expected["log.jsonl"] = oracle_lines(
        json.dumps({"utterance_id": u, "step": k, "source": " ".join(source),
                    "translation": " ".join(translation)}, ensure_ascii=False)
        for u, steps in sessions
        for k, (source, translation) in enumerate(steps)
    )
    word_up = mssg_up = updates = 0
    for _, steps in sessions:
        for (_, prev), (_, new) in zip(steps, steps[1:]):
            kept = 0  # the common prefix; every word of prev after it is rewritten
            while kept < min(len(prev), len(new)) and prev[kept] == new[kept]:
                kept += 1
            word_up += len(prev) - kept
            mssg_up += kept < len(prev)
            updates += 1
    report = [f"word_up: {word_up}", f"mssg_up: {mssg_up}", f"updates_total: {updates}"]
    if with_refs:
        refs = [line.split() for line in lines["refs"]]
        stream = [w for _, steps in sessions for w in steps[-1][1]]
        report.insert(0, f"bleu: {bleu_reference(resegment_dp(stream, refs)[0], refs):.4f}")
    expected["report.txt"] = oracle_lines(report)

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, data in files.items():
            (d / name).write_bytes(data)
        if repeated is not None:  # simulate stops before it writes a file
            del expected["log.jsonl"], expected["report.txt"]
        runs = [
            (["mix", "--full-src", str(d / "c.src"), "--full-tgt", str(d / "c.tgt"),
              "--partial-src", str(d / "p.src"), "--partial-tgt", str(d / "p.tgt"),
              "--out-prefix", str(d / "m"), "--seed", str(seed)], 0, ""),
            (["simulate", "--events", str(d / "events"), "--translator", f"dict:{d / 'lexicon'}",
              *(["--refs", str(d / "refs")] if with_refs else []),
              "--log-out", str(d / "log.jsonl"), "--report-out", str(d / "report.txt")],
             0 if repeated is None else 2, expected.get("report.txt", b"").decode("utf-8")),
        ]
        for argv, code, text in runs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                assert main(argv) == code, argv
            assert stdout.getvalue() == text, argv
        if repeated is not None:
            assert stderr.getvalue().splitlines()[-1] == f"error: {d / 'lexicon'} {repeated}"
            assert not (d / "log.jsonl").exists() and not (d / "report.txt").exists()
        for name, data in expected.items():
            assert (d / name).read_bytes() == data, name
