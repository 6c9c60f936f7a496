"""Command line entry point dispatching the toolkit subcommands.

Exit codes: 0 success, 1 usage error (with usage text), 2 data error (with
file or line context). Every run echoes its resolved configuration to stderr
so outputs can be reproduced.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import os
import sys
from collections.abc import Iterator
from itertools import chain, count
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
_STAGED = count()  # numbers the staged files of this process, so no two runs share one


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


@contextlib.contextmanager
def _outputs(args: argparse.Namespace, inputs: list, outputs: list) -> Iterator[list]:
    """Refuse outputs on an input's or an earlier output's file, then yield the paths to write.

    Each regular or new output is staged: made now with its mode, renamed over it in order on success.
    """
    seen, staged = [("input", path) for path in inputs if path], {}  # output: (staged file, real path)
    try:
        for out in outputs:
            if out is not None and (os.path.isfile(out) or not os.path.exists(out)):
                for role, path in seen:
                    if os.path.realpath(out) == os.path.realpath(path) or (
                            os.path.isfile(out) and os.path.exists(path) and os.path.samefile(out, path)):
                        args.parser.error(f"output {out} would overwrite {role} {path}")
                seen.append(("output", out))
                unopenable = os.path.basename(out) in ("", ".", "..") or os.path.isfile(out) and not os.access(out, os.W_OK)
                part = out if unopenable else f"{os.path.realpath(out)}.{os.getpid()}.{next(_STAGED)}.part"
                try:
                    _corpus.write_files([part], [])
                except OSError as err:
                    raise OSError(err.errno, err.strerror, out) from None
                staged[out] = part, os.path.realpath(out)
                if os.path.isfile(out):
                    os.chmod(part, os.stat(out).st_mode & 0o7777)
        yield [staged[out][0] if out in staged else out for out in outputs]
        for part, real in staged.values():
            os.replace(part, real)
    finally:  # deletes every staged file not renamed into place, which after an exception is all
        for part, _ in staged.values():
            with contextlib.suppress(OSError):  # a renamed one is gone; a failed delete hides no error
                os.remove(part)


def cmd_align(args: argparse.Namespace) -> int:
    if args.iterations < 1:
        args.parser.error("--iterations must be >= 1")
    with _outputs(args, [args.src, args.tgt], [args.out, args.table_out]) as (out, table_out):
        corpus = _corpus.load_corpus(args.src, args.tgt)
        table = aligner.train_model1(corpus, args.iterations)
        _note(args, f"trained on {len(corpus)} pairs, {args.iterations} iterations")
        alignments = aligner.align_corpus(table, corpus)
        _corpus.write_lines(out, map(_corpus.format_alignment, alignments))
        if table_out is not None:
            rows = (f"{e}\t{f}\t{p:.12g}" for e, f, p in aligner.table_rows(table))
            _corpus.write_lines(table_out, rows)
    return 0


def cmd_gen_partial(args: argparse.Namespace) -> int:
    if not args.out_prefix:
        args.parser.error("--out-prefix must not be empty")
    if args.method == "alignment" and not args.alignments:
        args.parser.error("--alignments is required with --method alignment")
    if args.method == "ratio" and args.alignments is not None:
        args.parser.error("--alignments is only used with --method alignment")
    paths = [f"{args.out_prefix}.{ext}" for ext in ("src", "tgt", "manifest.tsv")]
    with _outputs(args, [args.src, args.tgt, args.alignments], paths) as paths:
        corpus = _corpus.load_corpus(args.src, args.tgt)
        links = None
        if args.method == "alignment":
            lines, what = _corpus.read_lines(args.alignments), (args.src, args.alignments)
            links = _corpus.alignment_links(lines, corpus, what=what)
        blocks = partials.partial_blocks(corpus, args.method, links)
        # Each pair's rows are written as they are made, so no more than one pair's are held.
        _corpus.write_files(paths, chain([("", "", partials.MANIFEST_HEADER + "\n")], blocks))
    rows = sum(len(p.source) for p in corpus)
    _note(args, f"generated {rows} prefix rows from {len(corpus)} pairs")
    return 0


def cmd_mix(args: argparse.Namespace) -> int:
    if not args.out_prefix:
        args.parser.error("--out-prefix must not be empty")
    paths = [f"{args.out_prefix}.{ext}" for ext in ("src", "tgt", "manifest.txt")]
    with _outputs(args, [args.full_src, args.full_tgt, args.partial_src, args.partial_tgt], paths) as paths:
        full = _corpus.load_corpus(args.full_src, args.full_tgt)
        partial = partials.read_partial(
            _corpus.LineFile(args.partial_src),
            _corpus.LineFile(args.partial_tgt),
            what=(args.partial_src, args.partial_tgt),
        )
        mixed, manifest = mixing.mix(full, partial, args.seed)
        _note(args, f"mixed {manifest.full_count} full + {manifest.partial_sampled} partial rows")
        _corpus.write_lines(paths[0], (_corpus.detokenize(p.source) for p in mixed))
        _corpus.write_lines(paths[1], (_corpus.detokenize(p.target) for p in mixed))
        counts = [*vars(manifest).items(), ("output_size", manifest.output_size)]
        _corpus.write_lines(paths[2], [f"{k}: {v}" for k, v in counts])
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
    for k, (hyp, ref) in enumerate(zip(hyps, refs), start=1):
        if not ref and (args.metric == "wer" or args.metric == "gleu" and not hyp):
            need = "reference" if args.metric == "wer" else "hypothesis or reference"
            raise DataError(f"{args.ref} line {k}: {args.metric} requires a non-empty {need}")
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
    with _outputs(args, [args.hyp_stream, args.refs], [args.out]) as (out,):
        stream = tuple(token for line in _corpus.token_lines(args.hyp_stream) for token in line)
        segments = metrics.resegment(stream, _read_refs(args.refs))
        _corpus.write_lines(out, [_corpus.detokenize(s) for s in segments])
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
        try:
            return session.CommandTranslator(rest, timeout=args.timeout)
        except ValueError as err:  # no command, or shlex cannot split it (an unclosed quote)
            args.parser.error(f"--translator {spec!r}: {err}")
    args.parser.error(f"unknown translator {spec!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    if not 0 < args.timeout < float("inf"):
        args.parser.error("--timeout must be a finite number > 0")
    table = args.translator.startswith(("dict:", "script:")) and args.translator.partition(":")[2]
    with _outputs(args, [args.events, args.refs, table], [args.log_out, args.report_out]) as (log, report):
        translator = _build_translator(args)  # before the events: a bad spec is a usage error
        events = session.read_events(_corpus.read_lines(args.events), what=args.events)
        # The references are checked before any translator work is done.
        refs = _read_refs(args.refs) if args.refs is not None else None
        try:
            logs = session.run_session(events, translator)
        except DataError as err:  # the events' fault: a translator's is raised as TranslatorError
            raise DataError(f"{args.events}: {err}") from None
        if log is not None:
            _corpus.write_lines(log, session.log_lines(logs))
        report_lines = session.evaluate_sessions(logs, refs).lines()
        for line in report_lines:
            print(line)
        if report is not None:
            _corpus.write_lines(report, report_lines)
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
