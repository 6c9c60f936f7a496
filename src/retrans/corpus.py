"""Sentence and corpus data model plus plain-text parallel/alignment I/O.

Sentences are tuples of whitespace-free tokens. Token positions are 1-based
everywhere in this package; the on-disk alignment format is 0-based and is
converted at the I/O boundary only.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import AlignmentParseError, CorpusMismatchError, DataError, EmptySentenceError

_LINK_RE = re.compile(r"([0-9]+)-([0-9]+)")

Tokens = tuple[str, ...]
"""A sentence as an ordered tuple of non-empty, whitespace-free tokens."""


def tokenize(line: str) -> Tokens:
    """Split a line on runs of whitespace, ignoring leading/trailing space.

    Raises EmptySentenceError if the line contains no tokens.
    """
    tokens = tuple(line.split())
    if not tokens:
        raise EmptySentenceError()
    return tokens


def detokenize(tokens: Sequence[str]) -> str:
    """Join tokens with single spaces (inverse of tokenize for valid tokens)."""
    return " ".join(tokens)


@dataclass(frozen=True)
class SentencePair:
    """One row of a parallel corpus.

    The source side is always non-empty. The target side is non-empty for
    pairs read from corpus files, but may be empty for rows that originate
    from partial-sentence generation (an empty translation is a legal label
    for a very short source prefix).
    """

    id: int
    source: Tokens
    target: Tokens

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"pair id must be >= 0, got {self.id}")
        if not self.source:
            raise ValueError(f"pair {self.id}: source must be non-empty")


ParallelCorpus = tuple[SentencePair, ...]
"""An ordered collection of sentence pairs, ids matching line order."""


@dataclass(frozen=True)
class Alignment:
    """Word links for one sentence pair, as 1-based (source, target) positions.

    A target position may be unaligned or carry several links; many-to-many
    link sets are kept as-is.
    """

    src_len: int
    tgt_len: int
    links: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.src_len < 1 or self.tgt_len < 1:
            raise ValueError("alignment requires src_len >= 1 and tgt_len >= 1")
        for i, j in self.links:
            if not (1 <= i <= self.src_len) or not (1 <= j <= self.tgt_len):
                raise ValueError(
                    f"link ({i},{j}) outside sentence lengths "
                    f"({self.src_len},{self.tgt_len})"
                )


def line_tokens(line: str, what: str, k: int) -> Tokens:
    """tokenize() for line k (0-based) of what, naming both on error."""
    try:
        return tokenize(line)
    except EmptySentenceError:
        raise EmptySentenceError(f"{what} line {k + 1}") from None


def paired_lines(
    src_lines: Iterable[str],
    tgt_lines: Iterable[str],
    what: tuple[str, str] = ("source", "target"),
) -> tuple[list[str], list[str]]:
    """The lines of two aligned streams, as two lists of equal length.

    Raises CorpusMismatchError, naming the streams by what, when they differ
    in length.
    """
    src = list(src_lines)
    tgt = list(tgt_lines)
    if len(src) != len(tgt):
        raise CorpusMismatchError(len(src), len(tgt), what)
    return src, tgt


def read_parallel(
    src_lines: Iterable[str],
    tgt_lines: Iterable[str],
    *,
    what: tuple[str, str] = ("source", "target"),
) -> ParallelCorpus:
    """Build a corpus from two aligned line streams; pair k gets id k.

    Raises CorpusMismatchError on unequal lengths and EmptySentenceError
    (naming the stream and line) on blank lines. what names the two streams,
    such as the paths they came from.
    """
    src_what, tgt_what = what
    return tuple(
        SentencePair(k, line_tokens(s, src_what, k), line_tokens(t, tgt_what, k))
        for k, (s, t) in enumerate(zip(*paired_lines(src_lines, tgt_lines, what)))
    )


def corpus_lines(corpus: ParallelCorpus) -> tuple[list[str], list[str]]:
    """Render a corpus back into (source lines, target lines)."""
    return (
        [detokenize(p.source) for p in corpus],
        [detokenize(p.target) for p in corpus],
    )


def read_alignment_line(line: str, src_len: int, tgt_len: int) -> Alignment:
    """Parse one line of space-separated 0-based "i-j" link pairs.

    A blank line yields an empty link set (a fully unaligned pair is legal).
    Duplicate pairs collapse. Raises AlignmentParseError on malformed tokens
    or indices outside [0, len).
    """
    links = set()
    for token in line.split():
        match = _LINK_RE.fullmatch(token)
        if match is None:
            raise AlignmentParseError(token)
        i, j = int(match.group(1)), int(match.group(2))
        if i >= src_len or j >= tgt_len:
            raise AlignmentParseError(
                token, f"index out of range for lengths ({src_len},{tgt_len})"
            )
        links.add((i + 1, j + 1))
    return Alignment(src_len, tgt_len, frozenset(links))


def format_alignment(alignment: Alignment) -> str:
    """Render links as sorted 0-based "i-j" pairs (inverse of parsing)."""
    return " ".join(f"{i - 1}-{j - 1}" for i, j in sorted(alignment.links))


def read_alignments(
    lines: Iterable[str],
    corpus: ParallelCorpus,
    *,
    what: tuple[str, str] = ("corpus", "alignments"),
) -> list[Alignment]:
    """Parse one alignment line per corpus pair, in corpus order.

    what names the corpus and the alignment lines in error messages, such
    as the paths they came from.
    """
    lines = list(lines)
    if len(lines) != len(corpus):
        raise CorpusMismatchError(len(corpus), len(lines), what)
    alignments = []
    for no, (line, pair) in enumerate(zip(lines, corpus), start=1):
        try:
            alignments.append(read_alignment_line(line, len(pair.source), len(pair.target)))
        except AlignmentParseError as err:
            raise AlignmentParseError(err.token, err.detail, f"{what[1]} line {no}") from None
    return alignments


def read_lines(path: str | Path) -> list[str]:
    """Read a UTF-8 text file as a list of lines without terminators.

    Lines end at "\n" only, so form feeds, U+2028 and the other characters
    str.splitlines() also breaks on stay inside their line; one "\r" before
    the "\n" (a CRLF file) is dropped. The inverse of write_lines for lines
    that hold no "\n" and do not end in "\r". Invalid UTF-8 raises
    DataError naming the path, the 1-based line and the byte column.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        column = err.start - data.rfind(b"\n", 0, err.start)
        raise DataError(
            f"{path} line {line}: invalid UTF-8 byte 0x{data[err.start]:02x} "
            f"at column {column} ({err.reason})"
        ) from None
    del data  # not held while the lines are split
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return lines


def token_lines(path: str | Path) -> list[Tokens]:
    """Read a UTF-8 text file as one token tuple per line; blank lines give ()."""
    return [tuple(line.split()) for line in read_lines(path)]


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write lines as a UTF-8 text file with trailing newline."""
    lines = list(lines)
    text = "\n".join(lines) + "\n" if lines else ""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def load_corpus(src_path: str | Path, tgt_path: str | Path) -> ParallelCorpus:
    """Read a parallel corpus from two one-sentence-per-line files."""
    return read_parallel(
        read_lines(src_path), read_lines(tgt_path), what=(str(src_path), str(tgt_path))
    )
