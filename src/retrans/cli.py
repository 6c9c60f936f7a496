"""Command line entry point dispatching the toolkit subcommands.

Exit codes: 0 success, 1 usage error (with usage text), 2 data error (with
file or line context). Every run echoes its resolved configuration to stderr
so outputs can be reproduced.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from itertools import chain
from types import ModuleType
from typing import NoReturn

from .errors import DataError, TranslatorError, count_mismatch


def _lazy(name: str) -> ModuleType:
    """retrans.NAME, registered now but executed on its first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# A command executes only the modules it touches. They are placeholders rather
# than imports inside each command because perfbench/tracing.py finds them in
# sys.modules right after `import retrans.cli`. `corpus` is a local name in
# several commands, so its module goes by `_corpus`.
aligner, _corpus, metrics, mixing, partials, session = map(
    _lazy, ("aligner", "corpus", "metrics", "mixing", "partials", "session")
)

DEFAULT_SEED = 17


class UsageError(Exception):
    def __init__(self, message: str, usage: str) -> None:
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
    corpus = _corpus.load_corpus(args.src, args.tgt)
    if not corpus:
        raise DataError(f"nothing to align: {args.src} and {args.tgt} are both empty")
    table = aligner.train_model1(corpus, args.iterations)
    _note(args, f"trained on {len(corpus)} pairs, {args.iterations} iterations")
    alignments = aligner.align_corpus(table, corpus)
    _corpus.write_lines(args.out, map(_corpus.format_alignment, alignments))
    if args.table_out is not None:
        rows = (f"{e}\t{f}\t{p:.12g}" for e, f, p in aligner.table_rows(table))
        _corpus.write_lines(args.table_out, rows)
    return 0


def cmd_gen_partial(args: argparse.Namespace) -> int:
    if not args.out_prefix:
        args.parser.error("--out-prefix must not be empty")
    if args.method == "alignment" and not args.alignments:
        args.parser.error("--alignments is required with --method alignment")
    if args.method == "ratio" and args.alignments is not None:
        args.parser.error("--alignments is only used with --method alignment")
    corpus = _corpus.load_corpus(args.src, args.tgt)
    links = None
    if args.method == "alignment":
        lines, what = _corpus.read_lines(args.alignments), (args.src, args.alignments)
        links = _corpus.alignment_links(lines, corpus, what=what)
    blocks = partials.partial_blocks(corpus, args.method, links)
    paths = [f"{args.out_prefix}.{ext}" for ext in ("src", "tgt", "manifest.tsv")]
    # Each pair's rows are written as they are made, so no more than one pair's are held.
    _corpus.write_files(paths, chain([("", "", partials.MANIFEST_HEADER + "\n")], blocks))
    rows = sum(len(p.source) for p in corpus)
    _note(args, f"generated {rows} prefix rows from {len(corpus)} pairs")
    return 0


def cmd_mix(args: argparse.Namespace) -> int:
    if not args.out_prefix:
        args.parser.error("--out-prefix must not be empty")
    full = _corpus.load_corpus(args.full_src, args.full_tgt)
    partial = partials.read_partial(
        _corpus.LineFile(args.partial_src),
        _corpus.LineFile(args.partial_tgt),
        what=(args.partial_src, args.partial_tgt),
    )
    mixed, manifest = mixing.mix(full, partial, args.seed)
    _note(args, f"mixed {manifest.full_count} full + {manifest.partial_sampled} partial rows")
    _corpus.write_lines(f"{args.out_prefix}.src", (_corpus.detokenize(p.source) for p in mixed))
    _corpus.write_lines(f"{args.out_prefix}.tgt", (_corpus.detokenize(p.target) for p in mixed))
    counts = [*vars(manifest).items(), ("output_size", manifest.output_size)]
    _corpus.write_lines(f"{args.out_prefix}.manifest.txt", [f"{k}: {v}" for k, v in counts])
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    if args.smooth and args.metric != "bleu":
        args.parser.error("--smooth is only used with --metric bleu")
    hyps = _corpus.token_lines(args.hyp)
    refs = _corpus.token_lines(args.ref)
    if len(hyps) != len(refs):
        raise count_mismatch(len(hyps), len(refs), (args.hyp, args.ref))
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


def _read_refs(path: str) -> list[_corpus.Tokens]:
    """Reference segments of a file, one per line; a file without any is a data error."""
    refs = _corpus.token_lines(path)
    if not refs:
        raise DataError(f"{path}: need at least one reference segment")
    return refs


def cmd_reseg(args: argparse.Namespace) -> int:
    stream = tuple(token for line in _corpus.token_lines(args.hyp_stream) for token in line)
    segments = metrics.resegment(stream, _read_refs(args.refs))
    _corpus.write_lines(args.out, [_corpus.detokenize(s) for s in segments])
    return 0


def _build_translator(args: argparse.Namespace) -> session.Translator:
    """The --translator spec's translator; a malformed spec is a usage error."""
    spec = args.translator
    name, _, rest = spec.partition(":")
    if spec == "identity":
        return session.dictionary_translator({})
    if name in ("dict", "script"):
        if not rest:
            args.parser.error(f"{name} translator needs a file: {name}:FILE")
        lines = _corpus.read_lines(rest)
        lexicon = session.load_tsv_map(lines, what=rest)
        if name == "script":
            return session.scripted_translator(lexicon)
        for no, line in enumerate(lines, start=1):
            # load_tsv_map has checked the tab, so two tokens mean one a side.
            if len(line.split()) not in (0, 2):
                src, _, tgt = line.partition("\t")
                raise DataError(
                    f"{rest} line {no}: lexicon entry {src.strip()!r} -> {tgt.strip()!r}"
                    " is not word-to-word"
                )
        return session.dictionary_translator(lexicon)
    if name == "cmd":
        if not rest.strip():
            args.parser.error("cmd translator needs a command: cmd:\"...\"")
        try:
            return session.CommandTranslator(rest, timeout=args.timeout)
        except ValueError as err:  # shlex cannot split it, as in an unclosed quote
            args.parser.error(f"--translator {spec!r}: {err}")
    args.parser.error(f"unknown translator {spec!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    if not 0 < args.timeout < float("inf"):
        args.parser.error("--timeout must be a finite number > 0")
    translator = _build_translator(args)  # before the events: a bad spec is a usage error
    events = session.read_events(_corpus.read_lines(args.events), what=args.events)
    # The references are checked before any translator work is done.
    refs = _read_refs(args.refs) if args.refs is not None else None
    if refs and not events:
        raise DataError(f"{args.events}: need at least one event when --refs is given")
    try:
        logs = session.run_session(events, translator)
    except DataError as err:  # the events' fault: a translator's is raised as TranslatorError
        raise DataError(f"{args.events}: {err}") from None
    if args.log_out is not None:
        _corpus.write_lines(args.log_out, session.log_lines(logs))
    report_lines = session.evaluate_sessions(logs, refs).lines()
    for line in report_lines:
        print(line)
    if args.report_out is not None:
        _corpus.write_lines(args.report_out, report_lines)
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
    p.add_argument("--method", required=True, choices=["ratio", "alignment"])
    p.add_argument("--alignments", help="alignment file (required for --method alignment)")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_gen_partial, parser=p)

    p = sub.add_parser("mix", parents=[common], help="mix full and prefix corpora 1:1")
    p.add_argument("--full-src", required=True)
    p.add_argument("--full-tgt", required=True)
    p.add_argument("--partial-src", required=True)
    p.add_argument("--partial-tgt", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_mix, parser=p)

    p = sub.add_parser("score", parents=[common], help="score hypothesis files")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", required=True, choices=["bleu", "gleu", "wer"])
    p.add_argument("--smooth", action="store_true", help="add-one smoothing for bleu")
    p.set_defaults(func=cmd_score, parser=p)

    p = sub.add_parser("reseg", parents=[common], help="resegment a stream against references")
    p.add_argument("--hyp-stream", required=True)
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
    p.add_argument("--log-out", help="JSON-lines step log")
    p.add_argument("--report-out", help="key:value metrics file")
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
