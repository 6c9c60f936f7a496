"""Command line entry point dispatching the toolkit subcommands.

Exit codes: 0 success, 1 usage error (with usage text), 2 data error (with
file or line context). Every run echoes its resolved configuration to stderr
so outputs can be reproduced.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

from . import aligner, metrics, mixing, partials, session
from .corpus import (
    LineFile,
    Tokens,
    alignment_links,
    corpus_lines,
    detokenize,
    format_alignment,
    load_corpus,
    read_lines,
    token_lines,
    write_lines,
)
from .errors import CorpusMismatchError, DataError, EventOrderError, TranslatorError

DEFAULT_SEED = 17


class UsageError(Exception):
    def __init__(self, message: str, usage: str = "") -> None:
        self.usage = usage
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via UsageError."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message, self.format_usage())


def _echo_config(args: argparse.Namespace) -> None:
    """Echo the resolved invocation to stderr, so a run can be reproduced."""
    head = ["command", "seed", "verbose"]
    options = sorted(
        k for k, v in vars(args).items() if k not in {*head, "func", "parser"} and v is not None
    )
    print("config:", *(f"{k}={getattr(args, k)}" for k in head + options), file=sys.stderr)


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def cmd_align(args: argparse.Namespace) -> int:
    if args.iterations < 1:
        args.parser.error("--iterations must be >= 1")
    corpus = load_corpus(args.src, args.tgt)
    if not corpus:
        raise DataError(f"nothing to align: {args.src} and {args.tgt} are both empty")
    table = aligner.train_model1(corpus, args.iterations)
    _note(args, f"trained on {len(corpus)} pairs, {args.iterations} iterations")
    alignments = aligner.align_corpus(table, corpus)
    write_lines(args.out, map(format_alignment, alignments))
    if args.table_out:
        write_lines(args.table_out, (f"{e}\t{f}\t{p:.12g}" for e, f, p in aligner.table_rows(table)))
    return 0


def cmd_gen_partial(args: argparse.Namespace) -> int:
    method = partials.Method(args.method)
    if args.min_i < 1:
        args.parser.error("--min-i must be >= 1")
    if method is partials.Method.ALIGNMENT and not args.alignments:
        args.parser.error("--alignments is required with --method alignment")
    corpus = load_corpus(args.src, args.tgt)
    links = None
    if method is partials.Method.ALIGNMENT:
        lines, what = read_lines(args.alignments), (args.src, args.alignments)
        links = alignment_links(lines, corpus, what=what)
    blocks = partials.partial_blocks(corpus, method, links, args.min_i)
    out, count = args.out_prefix, 0
    # Each pair's rows are written as they are made, so no more than one pair's are held.
    with (
        open(f"{out}.src", "w", encoding="utf-8", newline="\n") as src_out,
        open(f"{out}.tgt", "w", encoding="utf-8", newline="\n") as tgt_out,
        open(f"{out}.manifest.tsv", "w", encoding="utf-8", newline="\n") as manifest_out,
    ):
        manifest_out.write(partials.MANIFEST_HEADER + "\n")
        for rows, source, target, manifest in blocks:
            src_out.write(source)
            tgt_out.write(target)
            manifest_out.write(manifest)
            count += rows
    _note(args, f"generated {count} prefix rows from {len(corpus)} pairs")
    return 0


def cmd_mix(args: argparse.Namespace) -> int:
    full = load_corpus(args.full_src, args.full_tgt)
    partial = partials.read_partial(
        LineFile(args.partial_src),
        LineFile(args.partial_tgt),
        what=(args.partial_src, args.partial_tgt),
    )
    mixed, manifest = mixing.mix(full, partial, args.seed)
    _note(args, f"mixed {manifest.full_count} full + {manifest.partial_sampled} partial rows")
    src_lines, tgt_lines = corpus_lines(mixed)
    write_lines(f"{args.out_prefix}.src", src_lines)
    write_lines(f"{args.out_prefix}.tgt", tgt_lines)
    counts = [*vars(manifest).items(), ("output_size", manifest.output_size)]
    write_lines(f"{args.out_prefix}.manifest.txt", [f"{k}: {v}" for k, v in counts])
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    hyps = token_lines(args.hyp)
    refs = token_lines(args.ref)
    if len(hyps) != len(refs):
        raise CorpusMismatchError(len(hyps), len(refs), (args.hyp, args.ref))
    if not hyps:
        raise DataError(f"nothing to score: {args.hyp} and {args.ref} are both empty")
    if args.metric != "bleu":
        for k, (hyp, ref) in enumerate(zip(hyps, refs), start=1):
            if not ref:
                raise DataError(f"{args.ref} line {k}: {args.metric} requires a non-empty reference")
            if not hyp and args.metric == "gleu":
                raise DataError(f"{args.hyp} line {k}: gleu requires a non-empty hypothesis")
    if args.metric == "bleu":
        value = metrics.bleu(hyps, refs, smooth=args.smooth)
        print(f"bleu\t{value:.4f}")
        print(f"bleu100\t{100 * value:.4f}")
    elif args.metric == "gleu":
        value = metrics.mean_gleu(hyps, refs)
        print(f"gleu\t{value:.4f}")
    else:
        edits = 0
        ref_total = 0
        for hyp, ref in zip(hyps, refs):
            e, _ = metrics.wer(hyp, ref)
            edits += e
            ref_total += len(ref)
        print(f"wer\t{edits / ref_total:.4f}")
    return 0


def _read_refs(path: str) -> list[Tokens]:
    """Reference segments of a file, one per line; a file without any is a data error."""
    refs = token_lines(path)
    if not refs:
        raise DataError(f"{path}: need at least one reference segment")
    return refs


def cmd_reseg(args: argparse.Namespace) -> int:
    stream = tuple(token for line in token_lines(args.hyp_stream) for token in line)
    segments = metrics.resegment(stream, _read_refs(args.refs))
    write_lines(args.out, [detokenize(s) for s in segments])
    return 0


def _build_translator(spec: str, timeout: float) -> session.Translator | session.CommandTranslator:
    name, _, rest = spec.partition(":")
    if name == "identity":
        return session.identity_translator
    if name == "dict":
        if not rest:
            raise UsageError("dict translator needs a file: dict:FILE")
        lines = read_lines(rest)
        lexicon = session.load_tsv_map(lines, what=rest)
        for no, line in enumerate(lines, start=1):
            # load_tsv_map has checked the tab, so two tokens mean one a side.
            if len(line.split()) not in (0, 2):
                src, _, tgt = line.partition("\t")
                raise DataError(
                    f"{rest} line {no}: lexicon entry {src.strip()!r} -> {tgt.strip()!r}"
                    " is not word-to-word"
                )
        return session.dictionary_translator(lexicon)
    if name == "script":
        if not rest:
            raise UsageError("script translator needs a file: script:FILE")
        return session.scripted_translator(session.load_tsv_map(read_lines(rest), what=rest))
    if name == "cmd":
        if not rest:
            raise UsageError("cmd translator needs a command: cmd:\"...\"")
        return session.CommandTranslator(rest, timeout=timeout)
    raise UsageError(f"unknown translator {spec!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    if not 0 < args.timeout < float("inf"):
        args.parser.error("--timeout must be a finite number > 0")
    events = session.read_events(read_lines(args.events), what=args.events)
    # The references are checked before any translator work is done.
    refs = _read_refs(args.refs) if args.refs else None
    if refs and not events:
        raise DataError(f"{args.events}: need at least one event when --refs is given")
    translator = _build_translator(args.translator, args.timeout)
    try:
        logs = session.run_session(events, translator)
    except EventOrderError as err:
        raise DataError(f"{args.events}: {err}") from None
    finally:
        if isinstance(translator, session.CommandTranslator):
            translator.close()
    if args.log_out:
        steps = [
            {"utterance_id": log.utterance_id, "step": step,
             "source": detokenize(source), "translation": detokenize(translation)}
            for log in logs
            for step, (source, translation) in enumerate(log.steps)
        ]
        write_lines(args.log_out, [json.dumps(step, ensure_ascii=False) for step in steps])
    report_lines = session.evaluate_sessions(logs, refs).lines()
    for line in report_lines:
        print(line)
    if args.report_out:
        write_lines(args.report_out, report_lines)
    return 0


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")
    common.add_argument(
        "-v", "--verbose", action="count", default=0, help="extra diagnostics"
    )

    parser = _Parser(prog="retrans", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("align", parents=[common], help="train a lexical table and align a corpus")
    p.add_argument("--src", required=True, help="source corpus file")
    p.add_argument("--tgt", required=True, help="target corpus file")
    p.add_argument("--iterations", type=int, default=5, help="EM iterations")
    p.add_argument("--out", required=True, help="output alignment file")
    p.add_argument("--table-out", help="optional TSV dump of the lexical table")
    p.set_defaults(func=cmd_align, parser=p)

    p = sub.add_parser("gen-partial", parents=[common], help="generate prefix-pair training rows")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--method", required=True, choices=[m.value for m in partials.Method])
    p.add_argument("--alignments", help="alignment file (required for --method alignment)")
    p.add_argument("--min-i", type=int, default=1, dest="min_i")
    p.add_argument("--out-prefix", required=True, dest="out_prefix")
    p.set_defaults(func=cmd_gen_partial, parser=p)

    p = sub.add_parser("mix", parents=[common], help="mix full and prefix corpora 1:1")
    p.add_argument("--full-src", required=True, dest="full_src")
    p.add_argument("--full-tgt", required=True, dest="full_tgt")
    p.add_argument("--partial-src", required=True, dest="partial_src")
    p.add_argument("--partial-tgt", required=True, dest="partial_tgt")
    p.add_argument("--out-prefix", required=True, dest="out_prefix")
    p.set_defaults(func=cmd_mix, parser=p)

    p = sub.add_parser("score", parents=[common], help="score hypothesis files")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", required=True, choices=["bleu", "gleu", "wer"])
    p.add_argument("--smooth", action="store_true", help="add-one smoothing for bleu")
    p.set_defaults(func=cmd_score, parser=p)

    p = sub.add_parser("reseg", parents=[common], help="resegment a stream against references")
    p.add_argument("--hyp-stream", required=True, dest="hyp_stream")
    p.add_argument("--refs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reseg, parser=p)

    p = sub.add_parser("simulate", parents=[common], help="replay an update stream through a translator")
    p.add_argument("--events", required=True, help="JSON-lines update events")
    p.add_argument(
        "--translator",
        required=True,
        help="identity | dict:FILE | script:FILE | cmd:\"...\"",
    )
    p.add_argument("--refs", help="reference stream for BLEU (one segment per line)")
    p.add_argument("--log-out", dest="log_out", help="JSON-lines step log")
    p.add_argument("--report-out", dest="report_out", help="key:value metrics file")
    p.add_argument(
        "--timeout", type=float, default=30.0,
        help="seconds to wait for each reply line of a cmd translator, and for its output to end",
    )
    p.set_defaults(func=cmd_simulate, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _echo_config(args)
        return args.func(args)
    except UsageError as err:
        print(f"{err.usage}error: {err}", file=sys.stderr)
        return 1
    except (DataError, TranslatorError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
